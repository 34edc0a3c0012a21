package core

import (
	"fmt"

	"snacknoc/internal/attrib"
	"snacknoc/internal/fixed"
	"snacknoc/internal/noc"
	"snacknoc/internal/stats"
	"snacknoc/internal/trace"
)

// RCUConfig sizes one Router Compute Unit.
type RCUConfig struct {
	// EnqueueLat is the extra pipeline stage between a flit arriving at
	// the router and the instruction becoming schedulable (§III-D2: "this
	// action adds an additional router pipeline stage").
	EnqueueLat int64
}

// DefaultRCUConfig matches the paper's router integration.
func DefaultRCUConfig() RCUConfig {
	return RCUConfig{EnqueueLat: 1}
}

// inboxEntry is an instruction awaiting its enqueue stage.
type inboxEntry struct {
	it    *InstrToken
	stamp int64
}

// instrNode is one linked-list cell of the RCU's shared node slab. Both
// the per-sub-block instruction queues and the per-dependency waiting
// lists are singly linked chains of these, so an instruction buffered
// in a sub-block and indexed under two unresolved operands occupies
// three cells. Free cells are chained through next.
type instrNode struct {
	it   *InstrToken
	next int32
}

// sbState is one active sub-block: an intra-dependent chain executed
// strictly in SBIdx order (§III-D1). Queued instructions live as
// index-linked slab cells kept sorted on SBIdx; the head fires only
// when it is the next unexecuted index, so chains survive NoC
// reordering.
type sbState struct {
	id       uint32
	executed int   // instructions of this sub-block already dispatched
	head     int32 // first queued slab cell, -1 when empty
	tail     int32 // last queued slab cell, -1 when empty
	count    int32
}

// waitList heads one dependency's waiting-instruction chain.
type waitList struct {
	head, tail int32
}

// outToken is a result awaiting injection through the compute port.
type outToken struct {
	dst  noc.NodeID
	tok  *DataToken
	loop bool
}

// RCU is the Router Compute Unit of §III-D: flit decode, an ordered
// instruction buffer with sub-block partial ordering, a dependency-
// capture path fed by transient loop tokens, a fixed-point ALU with an
// accumulator register, and result re-encoding back onto the NoC.
//
// The hot state is flat (PR 8): sub-block queues and the dependency-
// capture index are open-addressed tables over index-linked slab cells,
// sized once and reused across kernels, and the result queue is a ring.
// No map grows or shrinks on the dispatch path.
type RCU struct {
	cfg     RCUConfig
	node    noc.NodeID
	port    *noc.InjectPort
	loop    *noc.LoopRoute
	cpmNode noc.NodeID
	pool    *TokenPool // engine-local; nil falls back to plain allocation

	inbox []inboxEntry

	nodes    []instrNode // shared slab for sub-block queues and waiting lists
	nodeFree int32       // slab free-list head, -1 when empty

	sbSlots  []sbState
	sbFree   []int32
	sbActive []int32  // live sub-block slots, in arrival order
	sbTab    u32Table // SubBlock id -> sbSlots index

	waitSlots []waitList
	waitFree  []int32
	waitTab   u32Table // DepID -> waitSlots index

	acc     fixed.Q
	accSB   uint32
	accOpen bool

	exec      *InstrToken
	execVal   fixed.Q
	busyUntil int64
	execStart int64 // dispatch cycle of exec, for the trace span

	outQ    []outToken // ring
	outHead int
	outLen  int

	// statistics
	executed   stats.Counter
	captured   stats.Counter // dependency values captured from loop tokens
	emitted    stats.Counter
	maxBuffer  int
	stallCount stats.Counter // cycles with buffered work but nothing ready

	// tr records operand/compute events; nil disables tracing.
	tr *trace.Tracer

	// at classifies each evaluated cycle for attribution; nil disables.
	at *attrib.Counters
}

// NewRCU builds the compute unit for one router. The Network's
// AttachCompute must be called separately (or via the Platform) to give
// it its injection port.
func NewRCU(cfg RCUConfig, node noc.NodeID, loop *noc.LoopRoute, cpmNode noc.NodeID) *RCU {
	return &RCU{
		cfg:      cfg,
		node:     node,
		loop:     loop,
		cpmNode:  cpmNode,
		nodeFree: -1,
	}
}

// SetPort installs the compute-port handle returned by AttachCompute.
func (r *RCU) SetPort(p *noc.InjectPort) { r.port = p }

// SetPool installs the platform's token pool. A nil pool (direct NewRCU
// construction) allocates.
func (r *RCU) SetPool(p *TokenPool) { r.pool = p }

// Name implements sim.Component.
func (r *RCU) Name() string { return fmt.Sprintf("rcu%d", r.node) }

// Node returns the RCU's mesh node.
func (r *RCU) Node() noc.NodeID { return r.node }

// Executed returns the number of instructions completed.
func (r *RCU) Executed() int64 { return r.executed.Value() }

// Captured returns the number of dependency values taken from the loop.
func (r *RCU) Captured() int64 { return r.captured.Value() }

// Emitted returns the number of data tokens produced.
func (r *RCU) Emitted() int64 { return r.emitted.Value() }

// MaxBuffered returns the high-water mark of the instruction buffer.
func (r *RCU) MaxBuffered() int { return r.maxBuffer }

// Idle reports whether the RCU holds no work at all.
func (r *RCU) Idle() bool {
	return r.exec == nil && len(r.inbox) == 0 && len(r.sbActive) == 0 && r.outLen == 0
}

// newNode takes a slab cell off the free list.
func (r *RCU) newNode(it *InstrToken) int32 {
	if r.nodeFree >= 0 {
		n := r.nodeFree
		r.nodeFree = r.nodes[n].next
		r.nodes[n] = instrNode{it: it, next: -1}
		return n
	}
	r.nodes = append(r.nodes, instrNode{it: it, next: -1})
	return int32(len(r.nodes) - 1)
}

// freeNode returns a slab cell to the free list.
func (r *RCU) freeNode(n int32) {
	r.nodes[n] = instrNode{next: r.nodeFree}
	r.nodeFree = n
}

// freeInstr recycles a completed instruction. An instruction with an
// unfilled reference operand may still be indexed in a waiting list
// (only OpAccAdd can dispatch with R unresolved), so it is left to the
// GC rather than recycled under a live alias.
func (r *RCU) freeInstr(it *InstrToken) {
	if (it.L.IsRef && !it.L.filled) || (it.R.IsRef && !it.R.filled) {
		return
	}
	r.pool.PutInstr(it)
}

// OnArrival implements noc.ComputeUnit: instruction flits are consumed
// into the inbox; passing data tokens fill any waiting operands and are
// consumed once their dependent count reaches zero.
func (r *RCU) OnArrival(f *noc.Flit, cycle int64) bool {
	switch pl := f.Payload.(type) {
	case *InstrToken:
		r.inbox = append(r.inbox, inboxEntry{it: pl, stamp: cycle})
		return true
	case *DataToken:
		if !f.Loop {
			// A directly addressed token (e.g. an output heading to the
			// CPM): not ours to consume.
			return false
		}
		fills := r.deliver(pl.Dep, pl.V)
		if fills == 0 {
			return false
		}
		r.captured.Add(int64(fills))
		r.emitCompute(trace.KindRCUCapture, cycle, cycle, int32(fills))
		if int(pl.Dependents) < fills {
			panic(fmt.Sprintf("%s: token %s over-consumed by %d fills", r.Name(), pl, fills))
		}
		pl.Dependents -= uint16(fills)
		if pl.Dependents == 0 {
			r.pool.PutData(pl) // consumed off the loop; the flit is recycled by the router
			return true
		}
		return false
	default:
		return false
	}
}

// deliver fills every waiting operand that references dep, returning the
// number of operand fills performed.
func (r *RCU) deliver(dep DepID, v fixed.Q) int {
	wi, ok := r.waitTab.get(uint32(dep))
	if !ok {
		return 0
	}
	fills := 0
	for n := r.waitSlots[wi].head; n >= 0; {
		it := r.nodes[n].it
		if it.L.IsRef && !it.L.filled && it.L.Dep == dep {
			it.L.fill(v)
			fills++
		}
		if it.R.IsRef && !it.R.filled && it.R.Dep == dep {
			it.R.fill(v)
			fills++
		}
		next := r.nodes[n].next
		r.freeNode(n)
		n = next
	}
	r.waitFree = append(r.waitFree, wi)
	r.waitTab.del(uint32(dep))
	return fills
}

// waitAdd indexes an unresolved operand: the instruction joins dep's
// chain at the tail, preserving arrival order.
func (r *RCU) waitAdd(dep DepID, it *InstrToken) {
	n := r.newNode(it)
	if wi, ok := r.waitTab.get(uint32(dep)); ok {
		w := &r.waitSlots[wi]
		r.nodes[w.tail].next = n
		w.tail = n
		return
	}
	var wi int32
	if k := len(r.waitFree); k > 0 {
		wi = r.waitFree[k-1]
		r.waitFree = r.waitFree[:k-1]
	} else {
		r.waitSlots = append(r.waitSlots, waitList{})
		wi = int32(len(r.waitSlots) - 1)
	}
	r.waitSlots[wi] = waitList{head: n, tail: n}
	r.waitTab.put(uint32(dep), wi)
}

// Evaluate implements sim.Component: enqueue arrived instructions,
// complete the executing operation, and start the next ready one.
func (r *RCU) Evaluate(cycle int64) {
	if r.port != nil {
		r.port.Update(cycle)
	}
	r.drainInbox(cycle)
	if r.exec != nil && cycle >= r.busyUntil {
		r.complete(cycle)
	}
	if r.exec == nil {
		r.dispatch(cycle)
	}
	// Attribution, exactly once per cycle: executing beats everything;
	// a backed-up output ring means results can't drain into the NoC;
	// queued instructions or live scoreboards are operand wait; else idle.
	if r.at != nil {
		switch {
		case r.exec != nil:
			r.at.Inc(attrib.RCUExec)
		case r.outLen > 0:
			r.at.Inc(attrib.RCUOutputBackpressure)
		case len(r.inbox) > 0 || len(r.sbActive) > 0:
			r.at.Inc(attrib.RCUOperandWait)
		default:
			r.at.Inc(attrib.RCUIdle)
		}
	}
}

// Advance injects at most one queued result token per cycle.
func (r *RCU) Advance(cycle int64) {
	if r.outLen == 0 || r.port == nil {
		return
	}
	o := &r.outQ[r.outHead]
	if r.port.Send(o.dst, o.tok, o.loop, cycle) {
		*o = outToken{}
		r.outHead = (r.outHead + 1) % len(r.outQ)
		r.outLen--
	}
}

// outPush appends a result to the injection ring.
func (r *RCU) outPush(o outToken) {
	if r.outLen == len(r.outQ) {
		n := len(r.outQ) * 2
		if n < 8 {
			n = 8
		}
		q := make([]outToken, n)
		for i := 0; i < r.outLen; i++ {
			q[i] = r.outQ[(r.outHead+i)%len(r.outQ)]
		}
		r.outQ = q
		r.outHead = 0
	}
	r.outQ[(r.outHead+r.outLen)%len(r.outQ)] = o
	r.outLen++
}

// sbFor returns the sub-block slot for id, creating it on first use.
// The returned pointer is invalidated by the next sbFor call.
func (r *RCU) sbFor(id uint32) *sbState {
	if si, ok := r.sbTab.get(id); ok {
		return &r.sbSlots[si]
	}
	var si int32
	if k := len(r.sbFree); k > 0 {
		si = r.sbFree[k-1]
		r.sbFree = r.sbFree[:k-1]
	} else {
		r.sbSlots = append(r.sbSlots, sbState{})
		si = int32(len(r.sbSlots) - 1)
	}
	r.sbSlots[si] = sbState{id: id, head: -1, tail: -1}
	r.sbTab.put(id, si)
	r.sbActive = append(r.sbActive, si)
	return &r.sbSlots[si]
}

// sbInsert places it into the sub-block's chain, sorted on SBIdx (flits
// may arrive out of order); equal indices keep arrival order.
func (r *RCU) sbInsert(sb *sbState, it *InstrToken) {
	n := r.newNode(it)
	// Flits usually arrive in sub-block order, so appending at the tail
	// is the hot case; the head-walk below only runs for the stragglers.
	if sb.tail >= 0 && r.nodes[sb.tail].it.SBIdx <= it.SBIdx {
		r.nodes[n].next = -1
		r.nodes[sb.tail].next = n
		sb.tail = n
		sb.count++
		return
	}
	prev, cur := int32(-1), sb.head
	for cur >= 0 && r.nodes[cur].it.SBIdx <= it.SBIdx {
		prev, cur = cur, r.nodes[cur].next
	}
	r.nodes[n].next = cur
	if prev < 0 {
		sb.head = n
	} else {
		r.nodes[prev].next = n
	}
	if cur < 0 {
		sb.tail = n
	}
	sb.count++
}

// drainInbox moves instructions that have passed the enqueue stage into
// their sub-block queues and indexes their unresolved operands.
func (r *RCU) drainInbox(cycle int64) {
	n := 0
	for n < len(r.inbox) && cycle-r.inbox[n].stamp >= r.cfg.EnqueueLat {
		it := r.inbox[n].it
		r.sbInsert(r.sbFor(it.SubBlock), it)
		if it.L.IsRef && !it.L.filled {
			r.waitAdd(it.L.Dep, it)
		}
		if it.R.IsRef && !it.R.filled {
			r.waitAdd(it.R.Dep, it)
		}
		n++
	}
	if n > 0 {
		r.inbox = append(r.inbox[:0], r.inbox[n:]...)
	}
	if b := r.buffered(); b > r.maxBuffer {
		r.maxBuffer = b
	}
}

func (r *RCU) buffered() int {
	n := len(r.inbox)
	for _, si := range r.sbActive {
		n += int(r.sbSlots[si].count)
	}
	return n
}

// sbHeadReady reports whether the slot's head instruction is the next
// in sub-block order with every operand available.
func (r *RCU) sbHeadReady(si int32) bool {
	sb := &r.sbSlots[si]
	if sb.head < 0 {
		return false
	}
	it := r.nodes[sb.head].it
	return it.SBIdx == sb.executed && operandsReady(it)
}

// dispatch picks the next instruction under the §III-D1 partial order:
// while an accumulator chain is open only its own sub-block may issue;
// otherwise the lowest-sequence ready head across sub-blocks wins (ties
// broken by arrival order).
func (r *RCU) dispatch(cycle int64) {
	pick := int32(-1)
	if r.accOpen {
		si, ok := r.sbTab.get(r.accSB)
		if !ok || !r.sbHeadReady(si) {
			if len(r.sbActive) > 0 {
				r.stallCount.Inc()
			}
			return
		}
		pick = si
	} else {
		var pickSeq uint32
		for _, si := range r.sbActive {
			if !r.sbHeadReady(si) {
				continue
			}
			seq := r.nodes[r.sbSlots[si].head].it.Seq
			if pick < 0 || seq < pickSeq {
				pick, pickSeq = si, seq
			}
		}
		if pick < 0 {
			if len(r.sbActive) > 0 {
				r.stallCount.Inc()
			}
			return
		}
	}
	sb := &r.sbSlots[pick]
	n := sb.head
	it := r.nodes[n].it
	sb.head = r.nodes[n].next
	if sb.head < 0 {
		sb.tail = -1
	}
	r.freeNode(n)
	sb.count--
	sb.executed++
	if it.EndSB {
		if sb.head >= 0 {
			panic(fmt.Sprintf("%s: sub-block %d has instructions beyond EndSB", r.Name(), sb.id))
		}
		r.removeSB(pick)
	}
	r.exec = it
	r.busyUntil = cycle + it.Op.Latency()
	r.execStart = cycle
	r.execVal = r.compute(it)
}

func operandsReady(it *InstrToken) bool {
	if !it.L.ready() {
		return false
	}
	if it.Op == OpAccAdd {
		return true // unary: R unused
	}
	return it.R.ready()
}

// compute applies the ALU operation, updating the accumulator for
// chained operations.
func (r *RCU) compute(it *InstrToken) fixed.Q {
	l := it.L.value()
	var v fixed.Q
	switch it.Op {
	case OpAdd:
		v = l.Add(it.R.value())
	case OpSub:
		v = l.Sub(it.R.value())
	case OpMul:
		v = l.Mul(it.R.value())
	case OpMAC:
		m := l.Mul(it.R.value())
		if it.AccInit {
			r.acc = m
		} else {
			r.checkAccChain(it)
			r.acc = r.acc.Add(m)
		}
		v = r.acc
	case OpAccAdd:
		if it.AccInit {
			r.acc = l
		} else {
			r.checkAccChain(it)
			r.acc = r.acc.Add(l)
		}
		v = r.acc
	default:
		panic(fmt.Sprintf("%s: unknown op %s", r.Name(), it.Op))
	}
	if it.Op.usesAcc() {
		r.accOpen = !it.EndSB
		r.accSB = it.SubBlock
	}
	return v
}

// complete finishes the executing instruction: local consumers are
// satisfied immediately (§III-A: same-PE results are preserved locally),
// and any remaining dependents receive a data token — to the CPM for
// final outputs, onto the loop route for transient intermediates. The
// retired instruction and any fully consumed token go back to the pool.
func (r *RCU) complete(cycle int64) {
	it := r.exec
	r.exec = nil
	r.executed.Inc()
	// ALU-occupancy span: dispatch to completion.
	r.emitCompute(trace.KindRCUExec, cycle, r.execStart, 0)
	if !it.Emit {
		r.freeInstr(it)
		return
	}
	r.emitted.Inc()
	r.emitCompute(trace.KindRCUEmit, cycle, cycle, 0)
	tok := r.pool.GetData()
	tok.Dep, tok.Dependents, tok.V = it.EmitDep, it.Dependents, r.execVal
	toCPM, home := it.ToCPM, it.Home
	r.freeInstr(it)
	if toCPM {
		r.outPush(outToken{dst: home, tok: tok, loop: false})
		return
	}
	if fills := r.deliver(tok.Dep, tok.V); fills > 0 {
		r.captured.Add(int64(fills))
		r.emitCompute(trace.KindRCUCapture, cycle, cycle, int32(fills))
		if int(tok.Dependents) < fills {
			panic(fmt.Sprintf("%s: local delivery over-consumed %s", r.Name(), tok))
		}
		tok.Dependents -= uint16(fills)
	}
	if tok.Dependents > 0 {
		r.outPush(outToken{dst: r.loop.Next(r.node), tok: tok, loop: true})
	} else {
		r.pool.PutData(tok)
	}
}

// checkAccChain guards the §III-D1 invariant: a non-initial accumulator
// instruction must continue the currently open chain.
func (r *RCU) checkAccChain(it *InstrToken) {
	if !r.accOpen || r.accSB != it.SubBlock {
		panic(fmt.Sprintf("%s: accumulator chain broken at %s (open=%v sb=%d)",
			r.Name(), it, r.accOpen, r.accSB))
	}
}

// removeSB retires an emptied sub-block slot, preserving the arrival
// order of the remaining active sub-blocks.
func (r *RCU) removeSB(si int32) {
	r.sbTab.del(r.sbSlots[si].id)
	for i, s := range r.sbActive {
		if s == si {
			r.sbActive = append(r.sbActive[:i], r.sbActive[i+1:]...)
			break
		}
	}
	r.sbFree = append(r.sbFree, si)
}

// SetTracer installs (or, with nil, removes) the compute-event tracer.
func (r *RCU) SetTracer(t *trace.Tracer) { r.tr = t }

// SetAttrib installs (or, with nil, removes) the cycle-attribution counters.
func (r *RCU) SetAttrib(c *attrib.Counters) { r.at = c }

// emitCompute records one compute-track event when tracing is on.
func (r *RCU) emitCompute(k trace.Kind, cycle, start int64, aux int32) {
	if r.tr == nil {
		return
	}
	rec := trace.Instant(k, cycle, int32(r.node))
	rec.Start = start
	rec.Class = trace.ClassSnack
	rec.Aux = aux
	r.tr.Emit(rec)
}

// RegisterMetrics names the RCU's statistics in reg under the prefix
// "rcuN.".
func (r *RCU) RegisterMetrics(reg *stats.Registry) {
	p := fmt.Sprintf("rcu%d.", r.node)
	reg.AddCounter(p+"executed", &r.executed)
	reg.AddCounter(p+"captured", &r.captured)
	reg.AddCounter(p+"emitted", &r.emitted)
	reg.AddCounter(p+"stalls", &r.stallCount)
	reg.AddGauge(p+"buffer.max", func() float64 { return float64(r.maxBuffer) })
}
