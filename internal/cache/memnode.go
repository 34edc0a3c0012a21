package cache

import (
	"fmt"

	"snacknoc/internal/mem"
	"snacknoc/internal/noc"
)

// MemNode bridges the NoC to a mem.Controller at a memory-controller
// node (the mesh corners in the Table IV platform).
type MemNode struct {
	sys  *System
	node noc.NodeID
	ctrl *mem.Controller
	pool *msgPool
}

func newMemNode(sys *System, node noc.NodeID, ctrl *mem.Controller) *MemNode {
	return &MemNode{sys: sys, node: node, ctrl: ctrl, pool: &sys.pool}
}

// Controller returns the underlying DRAM model (shared with a co-located
// CPM when the SnackNoC platform is attached).
func (m *MemNode) Controller() *mem.Controller { return m.ctrl }

// handle services memory protocol messages; both types are consumed
// here, so the fields the response needs are copied out before the
// message is recycled.
func (m *MemNode) handle(msg *Msg, cycle int64) {
	addr := msg.Block * BlockBytes
	switch msg.Type {
	case MemRead:
		from, block, req := msg.From, msg.Block, msg.Req
		m.ctrl.Access(addr, false, func(at int64) {
			resp := m.pool.get()
			resp.Type, resp.To, resp.Block, resp.Req = MemResp, RoleL2, block, req
			send(m.sys.Net, m.node, from, resp, at)
		})
	case MemWrite:
		m.ctrl.Access(addr, true, nil)
	default:
		panic(fmt.Sprintf("mem %d: unexpected message %s", m.node, msg.Type))
	}
	m.pool.put(msg)
}
