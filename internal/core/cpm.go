package core

import (
	"fmt"

	"snacknoc/internal/attrib"
	"snacknoc/internal/fixed"
	"snacknoc/internal/mem"
	"snacknoc/internal/noc"
	"snacknoc/internal/stats"
	"snacknoc/internal/trace"
)

// KernelState is the CPM's kernel execution state (§III-C).
type KernelState int

// Kernel states.
const (
	StateIdle KernelState = iota
	StateLoading
	StateRunning
	StateDone
)

// String names the state.
func (s KernelState) String() string {
	return [...]string{"idle", "loading", "running", "done"}[s]
}

// CPMConfig sizes the Central Packet Manager.
type CPMConfig struct {
	Node noc.NodeID
	// InstrBufCap bounds the assembled-instruction buffer; the paper
	// sizes it against the peak rate values stream from a two-rank DDR3
	// (§III-C1).
	InstrBufCap int
	// FetchAhead is the number of outstanding 64 B command-stream reads.
	FetchAhead int
	// EntriesPerTxn is how many command-stream entries one DDR3
	// transaction carries (64 B / 16 B instruction).
	EntriesPerTxn int
	// ALOThreshold is the free-VC floor below which the CPM treats the
	// NoC as congested (§III-C2); ALOHysteresis holds the state.
	ALOThreshold  int
	ALOHysteresis int64
	// SnackALOThreshold is the free snack-VC floor below which the CPM
	// vacuums transient tokens off the loop into the offload buffer.
	SnackALOThreshold int
	// OffloadBufFlits is the Offload Data Memory Buffer capacity: four
	// flits, one DDR3 64 B transaction (§III-C2).
	OffloadBufFlits int
	// ResultBatch is how many results share one write-back transaction.
	ResultBatch int
	// ProgBase is the command buffer's physical base address.
	ProgBase uint64
}

// DefaultCPMConfig returns the paper's sizing at the given node.
func DefaultCPMConfig(node noc.NodeID) CPMConfig {
	return CPMConfig{
		Node:              node,
		InstrBufCap:       512,
		FetchAhead:        48,
		EntriesPerTxn:     4,
		ALOThreshold:      6,
		ALOHysteresis:     32,
		SnackALOThreshold: 1,
		OffloadBufFlits:   4,
		ResultBatch:       4,
		ProgBase:          1 << 40, // far from any cache-substrate address
	}
}

// CPM is the Central Packet Manager (§III-C): it streams the compiled
// kernel from main memory, assembles and issues instruction flits at one
// per cycle, throttles against NoC congestion, spills transient tokens to
// memory under overflow, collects final results, and writes them back.
type CPM struct {
	cfg      CPMConfig
	net      *noc.Network
	mem      *mem.Controller
	loop     *noc.LoopRoute
	alo      *noc.ALODetector
	snackALO *noc.SnackALODetector
	// port is the CPM's own connection into its router (Fig 5 shows the
	// CPM attached beside the router, not behind the node's network
	// interface). It shares the compute input port with the co-located
	// RCU so instruction issue never serializes against the memory
	// controller's response traffic at the node's NI.
	port      *noc.InjectPort
	staged    *ProgEntry // entry awaiting injection through the port
	stagedBuf ProgEntry  // backing store for staged, reused per issue
	pool      *TokenPool // engine-local; nil falls back to plain allocation

	state      KernelState
	prog       *Program
	onDone     func(*Result)
	result     *Result
	fetched    int         // entries whose memory read has been issued
	inflight   int         // outstanding command-stream transactions
	instrBuf   []ProgEntry // ring
	instrHead  int
	instrLen   int
	issuedIdx  int // entries issued onto the NoC
	resultsGot int
	writesOut  int // outstanding result write-backs
	pendingWB  int // results not yet grouped into a write-back

	// progStore is the reused backing for the stamped private copy each
	// Submit makes; its tokens come from pool. slotCache memoizes the
	// stamped OutputSlot map per source program (the fig9/fig12 pattern
	// resubmits one immutable program many times; the stamped keys are a
	// pure function of the source map and this CPM's namespace).
	progStore Program
	slotCache map[DepID]int
	slotSrc   *Program

	// overflow management
	offload []*DataToken // tokens captured into the offload buffer
	// offloadPending holds flushed batches whose memory write is still in
	// flight, in issue order. The write-completion callback pops the front
	// rather than capturing its batch: DDR3 completions for one address
	// come back in issue order, and keeping the batch in a field (instead
	// of a closure) lets a checkpoint carry it.
	offloadPending [][]*DataToken
	offloadMem     []*DataToken // tokens parked in main memory
	reinjecting    bool         // alternate offload/instruction issue

	// statistics
	issued      stats.Counter
	offloaded   stats.Counter
	reinjected  stats.Counter
	busyReplies stats.Counter
	congestedCy stats.Counter

	// tr records scheduling decisions; nil disables tracing.
	tr *trace.Tracer

	// at classifies each evaluated cycle for attribution; nil disables.
	at *attrib.Counters
}

// NewCPM builds the manager. Attach it at its node (as the NI client and,
// together with the node's RCU, as the router compute hook) before
// running; the Platform does this wiring.
func NewCPM(cfg CPMConfig, net *noc.Network, ctrl *mem.Controller) *CPM {
	r := net.Router(cfg.Node)
	return &CPM{
		cfg:      cfg,
		net:      net,
		mem:      ctrl,
		loop:     net.Loop(),
		alo:      noc.NewALODetector(r, cfg.ALOThreshold, cfg.ALOHysteresis),
		snackALO: noc.NewSnackALODetector(r, net.Loop().Next(cfg.Node), cfg.SnackALOThreshold, cfg.ALOHysteresis),
	}
}

// SetPort installs the router injection port; the Platform wires it.
func (c *CPM) SetPort(p *noc.InjectPort) { c.port = p }

// SetPool installs the platform's token pool. A nil pool (direct NewCPM
// construction) allocates.
func (c *CPM) SetPool(p *TokenPool) { c.pool = p }

// Name implements sim.Component.
func (c *CPM) Name() string { return fmt.Sprintf("cpm%d", c.cfg.Node) }

// Node returns the CPM's mesh node.
func (c *CPM) Node() noc.NodeID { return c.cfg.Node }

// State returns the kernel execution state.
func (c *CPM) State() KernelState { return c.state }

// Busy reports whether a kernel occupies the platform; the runtime's
// lock acquisition spins on this (§IV-C).
func (c *CPM) Busy() bool { return c.state == StateLoading || c.state == StateRunning }

// Issued returns the number of command-stream entries issued to the NoC.
func (c *CPM) Issued() int64 { return c.issued.Value() }

// Offloaded returns tokens spilled to memory under congestion.
func (c *CPM) Offloaded() int64 { return c.offloaded.Value() }

// BusyReplies counts requests rejected while the platform was occupied.
func (c *CPM) BusyReplies() int64 { return c.busyReplies.Value() }

// CongestedCycles counts cycles the ALO detector reported congestion.
func (c *CPM) CongestedCycles() int64 { return c.congestedCy.Value() }

// Submit starts a kernel. It returns false (a "busy response") if one is
// already loading or running. onDone fires when all results are in main
// memory.
func (c *CPM) Submit(p *Program, cycle int64, onDone func(*Result)) bool {
	if c.Busy() {
		c.busyReplies.Inc()
		return false
	}
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("cpm: invalid program: %v", err))
	}
	// Execution fills operand references in place, so run a private copy
	// and leave the caller's program reusable. The copy is stamped with
	// this CPM's identity: its node as the result home, and a per-CPM
	// namespace on dependency and sub-block IDs so concurrently executing
	// kernels from decentralized CPMs (§VII) can never alias each other's
	// tokens at the RCUs. The copy's tokens come from the engine-local
	// pool (the previous kernel's were recycled as they were consumed),
	// so resubmitting a kernel is allocation-free in steady state.
	c.prog = c.stampClone(p)
	c.onDone = onDone
	c.state = StateLoading
	c.fetched = 0
	c.inflight = 0
	for i := range c.instrBuf {
		c.instrBuf[i] = ProgEntry{}
	}
	c.instrHead, c.instrLen = 0, 0
	c.issuedIdx = 0
	c.resultsGot = 0
	c.writesOut = 0
	c.pendingWB = 0
	c.offload = c.offload[:0]
	c.offloadMem = c.offloadMem[:0]
	c.staged = nil
	c.result = &Result{
		Values:     make([]fixed.Q, p.NumOutputs),
		StartCycle: cycle,
	}
	if c.tr != nil {
		rec := trace.Instant(trace.KindCPMSubmit, cycle, int32(c.cfg.Node))
		rec.Class = trace.ClassSnack
		rec.Aux = int32(len(c.prog.Entries))
		c.tr.Emit(rec)
	}
	return true
}

// stampClone copies p into this CPM's reused program store, stamping
// the copy with the CPM's namespace as it goes. Dependency and
// sub-block IDs must stay below 1<<24 (≈16.7 M per kernel). Tokens come
// from the engine-local pool; entry and slot buffers are reused across
// submissions.
func (c *CPM) stampClone(p *Program) *Program {
	base := (uint32(c.cfg.Node) + 1) << 24
	remapDep := func(d DepID) DepID {
		if uint32(d) >= 1<<24 {
			panic(fmt.Sprintf("cpm: dependency id %d exceeds the namespace", d))
		}
		return DepID(uint32(d) | base)
	}
	dst := &c.progStore
	dst.Name = p.Name
	dst.NumOutputs = p.NumOutputs
	if cap(dst.Entries) < len(p.Entries) {
		dst.Entries = make([]ProgEntry, 0, len(p.Entries))
	}
	entries := dst.Entries[:0]
	for _, e := range p.Entries {
		var ne ProgEntry
		if e.Instr != nil {
			it := c.pool.GetInstr()
			*it = *e.Instr
			it.Home = c.cfg.Node
			if it.SubBlock >= 1<<24 {
				panic(fmt.Sprintf("cpm: sub-block id %d exceeds the namespace", it.SubBlock))
			}
			it.SubBlock |= base
			if it.L.IsRef {
				it.L.Dep = remapDep(it.L.Dep)
			}
			if it.R.IsRef {
				it.R.Dep = remapDep(it.R.Dep)
			}
			if it.Emit {
				it.EmitDep = remapDep(it.EmitDep)
			}
			ne.Instr = it
		}
		if e.Data != nil {
			d := c.pool.GetData()
			*d = *e.Data
			d.Dep = remapDep(d.Dep)
			ne.Data = d
		}
		entries = append(entries, ne)
	}
	dst.Entries = entries
	if c.slotSrc != p || c.slotCache == nil {
		slots := make(map[DepID]int, len(p.OutputSlot))
		for d, s := range p.OutputSlot {
			slots[remapDep(d)] = s
		}
		c.slotCache, c.slotSrc = slots, p
	}
	dst.OutputSlot = c.slotCache
	return dst
}

// Evaluate implements sim.Component: refill the instruction buffer from
// memory, and stage one flit per cycle for issue subject to congestion
// control.
func (c *CPM) Evaluate(cycle int64) {
	if !c.Busy() {
		c.at.Inc(attrib.CPMIdle)
		return
	}
	c.port.Update(cycle)
	c.refill(cycle)
	if c.staged != nil {
		c.at.Inc(attrib.CPMThrottled)
		return // a previous entry is still waiting for a buffer slot
	}
	congested := c.alo.Congested(cycle)
	if congested {
		c.congestedCy.Inc()
		if c.tr != nil {
			rec := trace.Instant(trace.KindCPMThrottle, cycle, int32(c.cfg.Node))
			rec.Class = trace.ClassSnack
			c.tr.Emit(rec)
		}
	} else if len(c.offload) > 0 {
		// Congestion has passed with a partial offload buffer: release
		// the stragglers so their dependents are never stranded.
		c.FlushOffload()
	}
	if congested || !c.port.CanSend() {
		c.at.Inc(attrib.CPMThrottled)
		return // hold issue this cycle
	}
	// Alternate between re-injecting spilled tokens and fresh
	// instructions once resources free up (§III-C2).
	if c.reinjecting && len(c.offloadMem) > 0 {
		tok := c.offloadMem[0]
		c.offloadMem = c.offloadMem[1:]
		c.stagedBuf = ProgEntry{Data: tok}
		c.staged = &c.stagedBuf
		c.reinjected.Inc()
		c.reinjecting = false
		c.at.Inc(attrib.CPMIssue)
		return
	}
	c.reinjecting = true
	if c.instrLen == 0 {
		// Resources were free but the program has nothing left to stage:
		// the CPM is drained, waiting only on in-flight completions.
		c.at.Inc(attrib.CPMDrained)
		return
	}
	c.stagedBuf = c.instrBuf[c.instrHead]
	c.instrBuf[c.instrHead] = ProgEntry{}
	c.instrHead = (c.instrHead + 1) % len(c.instrBuf)
	c.instrLen--
	c.staged = &c.stagedBuf
	c.at.Inc(attrib.CPMIssue)
}

// bufPush appends one assembled entry to the instruction-buffer ring.
func (c *CPM) bufPush(e ProgEntry) {
	if c.instrLen == len(c.instrBuf) {
		n := len(c.instrBuf) * 2
		if n < 64 {
			n = 64
		}
		q := make([]ProgEntry, n)
		for i := 0; i < c.instrLen; i++ {
			q[i] = c.instrBuf[(c.instrHead+i)%len(c.instrBuf)]
		}
		c.instrBuf = q
		c.instrHead = 0
	}
	c.instrBuf[(c.instrHead+c.instrLen)%len(c.instrBuf)] = e
	c.instrLen++
}

// Advance injects the staged entry through the CPM's router port at the
// paper's one-flit-per-cycle rate.
func (c *CPM) Advance(cycle int64) {
	if c.staged == nil {
		return
	}
	var sent bool
	switch {
	case c.staged.Instr != nil:
		sent = c.port.Send(c.staged.Instr.Dst, c.staged.Instr, false, cycle)
	case c.staged.Data != nil:
		sent = c.port.Send(c.loop.Next(c.cfg.Node), c.staged.Data, true, cycle)
	}
	if sent {
		c.staged = nil
		c.issued.Inc()
		if c.tr != nil {
			rec := trace.Instant(trace.KindCPMIssue, cycle, int32(c.cfg.Node))
			rec.Class = trace.ClassSnack
			c.tr.Emit(rec)
		}
	}
}

// refill streams the command buffer from main memory in 64 B
// transactions, each carrying EntriesPerTxn entries (§III-C1).
func (c *CPM) refill(cycle int64) {
	total := len(c.prog.Entries)
	for c.inflight < c.cfg.FetchAhead &&
		c.fetched < total &&
		c.instrLen+c.inflight*c.cfg.EntriesPerTxn < c.cfg.InstrBufCap {
		lo := c.fetched
		hi := lo + c.cfg.EntriesPerTxn
		if hi > total {
			hi = total
		}
		c.fetched = hi
		c.inflight++
		addr := c.cfg.ProgBase + uint64(lo*InstrBytes)
		c.mem.Access(addr, false, func(at int64) {
			c.inflight--
			for i := lo; i < hi; i++ {
				c.bufPush(c.prog.Entries[i])
			}
			if c.state == StateLoading {
				c.state = StateRunning
			}
		})
	}
}

// Deliver implements noc.Client for the CPM's node: final result tokens
// are collected into the output FIFO and written back to main memory in
// batches (§III-C).
func (c *CPM) Deliver(p *noc.Packet, cycle int64) {
	tok, ok := p.Payload.(*DataToken)
	if !ok {
		panic(fmt.Sprintf("cpm: unexpected packet payload %T", p.Payload))
	}
	slot, ok := c.prog.OutputSlot[tok.Dep]
	if !ok {
		panic(fmt.Sprintf("cpm: result token %s has no output slot", tok))
	}
	c.result.Values[slot] = tok.V
	c.pool.PutData(tok) // the result is recorded; the token is consumed
	c.resultsGot++
	c.pendingWB++
	if c.pendingWB >= c.cfg.ResultBatch || c.resultsGot == c.prog.NumOutputs {
		c.pendingWB = 0
		c.writesOut++
		addr := c.cfg.ProgBase + uint64(1<<20) + uint64(slot*4)
		c.mem.Access(addr, true, func(at int64) {
			c.writesOut--
			c.maybeFinish(at)
		})
	}
}

func (c *CPM) maybeFinish(cycle int64) {
	if c.state != StateRunning || c.resultsGot < c.prog.NumOutputs ||
		c.writesOut > 0 || c.pendingWB > 0 {
		return
	}
	c.state = StateDone
	c.result.DoneCycle = cycle
	if c.tr != nil {
		// Kernel-lifetime span: submission to final write-back.
		rec := trace.Instant(trace.KindCPMFinish, cycle, int32(c.cfg.Node))
		rec.Start = c.result.StartCycle
		rec.Class = trace.ClassSnack
		c.tr.Emit(rec)
	}
	if c.onDone != nil {
		c.onDone(c.result)
	}
	c.state = StateIdle
}

// InstrBufLen returns the assembled-but-unissued entry count (debug).
func (c *CPM) InstrBufLen() int { return c.instrLen }

// Inflight returns outstanding command-stream fetches (debug).
func (c *CPM) Inflight() int { return c.inflight }

// WantsOverflowCapture reports whether the CPM is currently vacuuming
// transient tokens off the loop: the snack virtual network itself has
// run out of resources for the tokens in flight (§III-C2: "the number of
// instruction packets enqueued onto the NoC exceeds the threshold for
// NoC resources"). Communication-side congestion does not trigger
// capture — snack flits cannot displace communication flits under the
// priority arbiter, so spilling them would only add memory round-trips.
func (c *CPM) WantsOverflowCapture(cycle int64) bool {
	return c.Busy() && c.snackALO.Congested(cycle)
}

// CaptureOverflow takes one transient token into the Offload Data Memory
// Buffer; a full buffer flushes to main memory as one 64 B transaction.
func (c *CPM) CaptureOverflow(tok *DataToken, cycle int64) {
	c.offload = append(c.offload, tok)
	c.offloaded.Inc()
	if len(c.offload) >= c.cfg.OffloadBufFlits {
		batch := append([]*DataToken(nil), c.offload...)
		c.offload = c.offload[:0]
		c.offloadPending = append(c.offloadPending, batch)
		addr := c.cfg.ProgBase + uint64(2<<20)
		c.mem.Access(addr, true, func(at int64) {
			b := c.offloadPending[0]
			c.offloadPending = c.offloadPending[1:]
			c.offloadMem = append(c.offloadMem, b...)
		})
	}
}

// FlushOffload drains any partial offload buffer back into circulation
// (used at quiesce points so no token is stranded).
func (c *CPM) FlushOffload() {
	c.offloadMem = append(c.offloadMem, c.offload...)
	c.offload = c.offload[:0]
}

// SetTracer installs (or, with nil, removes) the scheduling-event tracer.
func (c *CPM) SetTracer(t *trace.Tracer) { c.tr = t }

// SetAttrib installs (or, with nil, removes) the cycle-attribution counters.
func (c *CPM) SetAttrib(at *attrib.Counters) { c.at = at }

// RegisterMetrics names the CPM's statistics in reg under the prefix
// "cpmN.".
func (c *CPM) RegisterMetrics(reg *stats.Registry) {
	p := fmt.Sprintf("cpm%d.", c.cfg.Node)
	reg.AddCounter(p+"issued", &c.issued)
	reg.AddCounter(p+"offloaded", &c.offloaded)
	reg.AddCounter(p+"reinjected", &c.reinjected)
	reg.AddCounter(p+"busy.replies", &c.busyReplies)
	reg.AddCounter(p+"congested.cycles", &c.congestedCy)
}
