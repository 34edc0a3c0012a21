package noc

import (
	"fmt"

	"snacknoc/internal/attrib"
	"snacknoc/internal/stats"
)

// Checkpoint support. A NetworkState captures every piece of mutable NoC
// state — wire queues, router VC/credit/slab state, NI rings and
// reassembly, statistics — as deep copies, and RestoreState writes it
// back onto the same network. Snapshot owns its copies and restore
// clones them again into the live structures, so one snapshot restores
// (forks) any number of times.
//
// Flit and packet payloads are opaque to this package: the caller passes
// a clone function (nil shares pointers, correct for immutable payloads
// such as cache protocol messages). The SnackNoC layer passes an
// identity-preserving token cloner so the aliasing between buffered
// tokens and RCU/CPM bookkeeping survives the copy.
//
// Snapshots must be taken at a settled point — between engine runs, when
// every staged output has been committed by Advance. The snapshot asserts
// this rather than trying to save mid-cycle transients.

// NetworkState is a saved network.
type NetworkState struct {
	flitWires [][]wireEntry[*Flit]
	credWires [][]wireEntry[creditMsg]
	routers   []routerState
	nis       []niState
}

type routerState struct {
	vcs       []inputVC
	bufSlab   []*Flit
	needRoute []int
	waitVA    []int
	saCand    [numDirections][2][]int
	saMask    [2]uint32
	saPtr     [numDirections]int
	saRound   int
	vaPtr     int
	occupancy int

	outCredits [][]int32
	outBusy    []uint64
	outVCRR    [][]int32
	outUtil    []stats.UtilizationState
	outSeries  []stats.TimeSeriesState

	xbarUtil   stats.UtilizationState
	xbarSeries stats.TimeSeriesState
	hasSeries  bool
	xbarMoves  stats.CounterState
	bufHist    stats.HistogramState
	consumed   stats.CounterState
	classMoves [2]stats.CounterState
	attrib     attrib.CountersState
}

type txnState struct {
	flits    []*Flit // the unsent suffix, cloned
	vnet, vc int
}

type reasmSnap struct {
	id   uint64
	pkt  Packet
	seen int
}

type niState struct {
	credits      [][]int
	vcBusy       [][]bool
	vcRR         []int
	incoming     []injectReq
	waiting      [][]*Packet
	waitingCount int
	active       []txnState
	txRR         int
	reasm        []reasmSnap
	pktSeq       uint64

	injected, ejected, flitsIn, flitsOut stats.CounterState
	latSum, latCount                     []int64
	maxQueued                            int
	attrib                               attrib.CountersState
}

// identityClone is the nil-cloner fallback: payloads are shared.
func identityClone(v any) any { return v }

func cloneFlit(f *Flit, clone func(any) any) *Flit {
	if f == nil {
		return nil
	}
	nf := &Flit{}
	*nf = *f
	if nf.Payload != nil {
		nf.Payload = clone(nf.Payload)
	}
	return nf
}

func clonePacket(p *Packet, clone func(any) any) *Packet {
	if p == nil {
		return nil
	}
	np := &Packet{}
	*np = *p
	if np.Payload != nil {
		np.Payload = clone(np.Payload)
	}
	return np
}

// wireWalk visits every wire of the network in a deterministic order,
// deduplicating aliases (an output port's wires are the downstream input
// port's wires; NI and InjectPort wires alias router local/compute
// ports). Snapshot and restore perform the identical walk, so saved
// queues line up positionally without keying state by pointer.
func (n *Network) wireWalk(fw func(*wire[*Flit]), cw func(*wire[creditMsg])) {
	seenF := make(map[*wire[*Flit]]bool)
	seenC := make(map[*wire[creditMsg]]bool)
	visitF := func(w *wire[*Flit]) {
		if w != nil && !seenF[w] {
			seenF[w] = true
			fw(w)
		}
	}
	visitC := func(w *wire[creditMsg]) {
		if w != nil && !seenC[w] {
			seenC[w] = true
			cw(w)
		}
	}
	for _, r := range n.routers {
		for d := Direction(0); d < numDirections; d++ {
			if in := r.inputs[d]; in != nil {
				visitF(in.in)
				visitC(in.credit)
			}
			if out := r.outputs[d]; out != nil {
				visitF(out.out)
				visitC(out.credit)
			}
		}
	}
	for _, ni := range n.nis {
		visitF(ni.toRouter)
		visitF(ni.fromRouter)
		visitC(ni.creditIn)
	}
}

// SnapshotState captures the network. clone deep-copies flit/packet
// payloads (nil shares them).
func (n *Network) SnapshotState(clone func(any) any) *NetworkState {
	if clone == nil {
		clone = identityClone
	}
	s := &NetworkState{}
	n.wireWalk(func(w *wire[*Flit]) {
		var q []wireEntry[*Flit]
		for _, e := range w.q {
			q = append(q, wireEntry[*Flit]{v: cloneFlit(e.v, clone), arrive: e.arrive})
		}
		s.flitWires = append(s.flitWires, q)
	}, func(w *wire[creditMsg]) {
		s.credWires = append(s.credWires, append([]wireEntry[creditMsg](nil), w.q...))
	})
	for _, r := range n.routers {
		s.routers = append(s.routers, r.snapshot(clone))
	}
	for _, ni := range n.nis {
		s.nis = append(s.nis, ni.snapshot(clone))
	}
	return s
}

// RestoreState writes a saved network state back. clone must mirror the
// snapshot-side cloner (same payload semantics, fresh identity map).
func (n *Network) RestoreState(s *NetworkState, clone func(any) any) {
	if clone == nil {
		clone = identityClone
	}
	fi, ci := 0, 0
	n.wireWalk(func(w *wire[*Flit]) {
		q := w.q[:0]
		for _, e := range s.flitWires[fi] {
			q = append(q, wireEntry[*Flit]{v: cloneFlit(e.v, clone), arrive: e.arrive})
		}
		w.q = q
		fi++
	}, func(w *wire[creditMsg]) {
		w.q = append(w.q[:0], s.credWires[ci]...)
		ci++
	})
	for i, r := range n.routers {
		r.restore(&s.routers[i], clone)
	}
	for i, ni := range n.nis {
		ni.restore(&s.nis[i], clone)
	}
}

func (r *Router) snapshot(clone func(any) any) routerState {
	if r.stagedCount != 0 || len(r.stagedCredits) != 0 {
		panic(fmt.Sprintf("%s: snapshot with uncommitted staged state", r.Name()))
	}
	s := routerState{
		vcs:       append([]inputVC(nil), r.vcs...),
		needRoute: append([]int(nil), r.needRoute...),
		waitVA:    append([]int(nil), r.waitVA...),
		saMask:    r.saMask,
		saPtr:     r.saPtr,
		saRound:   r.saRound,
		vaPtr:     r.vaPtr,
		occupancy: r.occupancy,

		xbarUtil:   r.xbarUtil.State(),
		xbarMoves:  r.xbarMoves.State(),
		bufHist:    r.bufHist.State(),
		consumed:   r.consumed.State(),
		classMoves: [2]stats.CounterState{r.classMoves[0].State(), r.classMoves[1].State()},
		attrib:     r.at.State(),
	}
	if r.xbarSeries != nil {
		s.xbarSeries = r.xbarSeries.State()
		s.hasSeries = true
	}
	s.bufSlab = make([]*Flit, len(r.bufSlab))
	for i, f := range r.bufSlab {
		s.bufSlab[i] = cloneFlit(f, clone)
	}
	for d := range s.saCand {
		for c := range s.saCand[d] {
			s.saCand[d][c] = append([]int(nil), r.saCand[d][c]...)
		}
	}
	for _, out := range r.outList {
		if out.staged != nil {
			panic(fmt.Sprintf("%s: snapshot with staged output flit", r.Name()))
		}
		s.outCredits = append(s.outCredits, append([]int32(nil), out.credits...))
		s.outBusy = append(s.outBusy, out.busy)
		s.outVCRR = append(s.outVCRR, append([]int32(nil), out.vcRR...))
		s.outUtil = append(s.outUtil, out.util.State())
		if out.series != nil {
			s.outSeries = append(s.outSeries, out.series.State())
		} else {
			s.outSeries = append(s.outSeries, stats.TimeSeriesState{})
		}
	}
	return s
}

func (r *Router) restore(s *routerState, clone func(any) any) {
	copy(r.vcs, s.vcs)
	for i, f := range s.bufSlab {
		r.bufSlab[i] = cloneFlit(f, clone)
	}
	r.needRoute = append(r.needRoute[:0], s.needRoute...)
	r.waitVA = append(r.waitVA[:0], s.waitVA...)
	for d := range r.saCand {
		for c := range r.saCand[d] {
			r.saCand[d][c] = append(r.saCand[d][c][:0], s.saCand[d][c]...)
		}
	}
	r.saMask = s.saMask
	r.saPtr = s.saPtr
	r.saRound = s.saRound
	r.vaPtr = s.vaPtr
	r.occupancy = s.occupancy
	r.stagedCount = 0
	r.stagedCredits = r.stagedCredits[:0]
	for i, out := range r.outList {
		copy(out.credits, s.outCredits[i])
		out.busy = s.outBusy[i]
		copy(out.vcRR, s.outVCRR[i])
		out.util.Restore(s.outUtil[i])
		if out.series != nil {
			out.series.Restore(s.outSeries[i])
		}
		out.staged = nil
	}
	r.xbarUtil.Restore(s.xbarUtil)
	if r.xbarSeries != nil && s.hasSeries {
		r.xbarSeries.Restore(s.xbarSeries)
	}
	r.xbarMoves.Restore(s.xbarMoves)
	r.bufHist.Restore(s.bufHist)
	r.consumed.Restore(s.consumed)
	r.classMoves[0].Restore(s.classMoves[0])
	r.classMoves[1].Restore(s.classMoves[1])
	r.at.Restore(s.attrib)
}

func (ni *NI) snapshot(clone func(any) any) niState {
	if ni.staged != nil {
		panic(fmt.Sprintf("%s: snapshot with uncommitted staged flit", ni.Name()))
	}
	s := niState{
		vcRR:         append([]int(nil), ni.vcRR...),
		waitingCount: ni.waitingCount,
		txRR:         ni.txRR,
		pktSeq:       ni.pktSeq,
		injected:     ni.injected.State(),
		ejected:      ni.ejected.State(),
		flitsIn:      ni.flitsIn.State(),
		flitsOut:     ni.flitsOut.State(),
		latSum:       append([]int64(nil), ni.latSum...),
		latCount:     append([]int64(nil), ni.latCount...),
		maxQueued:    ni.maxQueued,
		attrib:       ni.at.State(),
	}
	for _, c := range ni.credits {
		s.credits = append(s.credits, append([]int(nil), c...))
	}
	for _, b := range ni.vcBusy {
		s.vcBusy = append(s.vcBusy, append([]bool(nil), b...))
	}
	for _, req := range ni.incoming {
		s.incoming = append(s.incoming, injectReq{pkt: clonePacket(req.pkt, clone), stamp: req.stamp})
	}
	for _, q := range ni.waiting {
		var cq []*Packet
		for _, p := range q {
			cq = append(cq, clonePacket(p, clone))
		}
		s.waiting = append(s.waiting, cq)
	}
	for _, t := range ni.active {
		// Flits before t.next were already handed to the router (they live
		// on in wires or buffers); only the unsent suffix belongs to the
		// transaction, so the saved record starts at index 0.
		ts := txnState{vnet: t.vnet, vc: t.vc}
		for _, f := range t.flits[t.next:] {
			ts.flits = append(ts.flits, cloneFlit(f, clone))
		}
		s.active = append(s.active, ts)
	}
	for id, st := range ni.reasm {
		rp := st.pkt
		if rp.Payload != nil {
			rp.Payload = clone(rp.Payload)
		}
		s.reasm = append(s.reasm, reasmSnap{id: id, pkt: rp, seen: st.seen})
	}
	return s
}

func (ni *NI) restore(s *niState, clone func(any) any) {
	for i := range ni.credits {
		copy(ni.credits[i], s.credits[i])
	}
	for i := range ni.vcBusy {
		copy(ni.vcBusy[i], s.vcBusy[i])
	}
	copy(ni.vcRR, s.vcRR)
	ni.incoming = ni.incoming[:0]
	for _, req := range s.incoming {
		ni.incoming = append(ni.incoming, injectReq{pkt: clonePacket(req.pkt, clone), stamp: req.stamp})
	}
	for v := range ni.waiting {
		q := ni.waiting[v][:0]
		for _, p := range s.waiting[v] {
			q = append(q, clonePacket(p, clone))
		}
		ni.waiting[v] = q
	}
	ni.waitingCount = s.waitingCount
	for _, t := range ni.active {
		t.flits = nil
	}
	ni.active = ni.active[:0]
	for _, ts := range s.active {
		flits := make([]*Flit, 0, len(ts.flits))
		for _, f := range ts.flits {
			flits = append(flits, cloneFlit(f, clone))
		}
		ni.active = append(ni.active, &txn{flits: flits, vnet: ts.vnet, vc: ts.vc})
	}
	ni.txRR = s.txRR
	ni.staged = nil
	for id := range ni.reasm {
		delete(ni.reasm, id)
	}
	for _, rs := range s.reasm {
		st := &reasmState{pkt: rs.pkt, seen: rs.seen}
		if st.pkt.Payload != nil {
			st.pkt.Payload = clone(rs.pkt.Payload)
		}
		ni.reasm[rs.id] = st
	}
	ni.pktSeq = s.pktSeq
	ni.injected.Restore(s.injected)
	ni.ejected.Restore(s.ejected)
	ni.flitsIn.Restore(s.flitsIn)
	ni.flitsOut.Restore(s.flitsOut)
	copy(ni.latSum, s.latSum)
	copy(ni.latCount, s.latCount)
	ni.maxQueued = s.maxQueued
	ni.at.Restore(s.attrib)
}

// InjectPortState is a compute injection port's saved credit and
// round-robin state.
type InjectPortState struct {
	Credits []int
	RR      int
	Seq     uint64
}

// State captures the port (its wires belong to the network snapshot).
func (p *InjectPort) State() InjectPortState {
	return InjectPortState{Credits: append([]int(nil), p.credits...), RR: p.rr, Seq: p.seq}
}

// Restore writes a saved state back.
func (p *InjectPort) Restore(s InjectPortState) {
	copy(p.credits, s.Credits)
	p.rr, p.seq = s.RR, s.Seq
}

// ALODetectorState is an ALO congestion detector's saved state.
type ALODetectorState struct{ LastBusy int64 }

// State captures the detector.
func (d *ALODetector) State() ALODetectorState { return ALODetectorState{LastBusy: d.lastBusy} }

// Restore writes a saved state back.
func (d *ALODetector) Restore(s ALODetectorState) { d.lastBusy = s.LastBusy }

// SnackALOState is the snack-vnet detector's saved state.
type SnackALOState struct {
	LastBusy   int64
	Streak     int64
	LastSample int64
}

// State captures the detector.
func (d *SnackALODetector) State() SnackALOState {
	return SnackALOState{LastBusy: d.lastBusy, Streak: d.streak, LastSample: d.lastSample}
}

// Restore writes a saved state back.
func (d *SnackALODetector) Restore(s SnackALOState) {
	d.lastBusy, d.streak, d.lastSample = s.LastBusy, s.Streak, s.LastSample
}

// SyntheticInjectorState is a synthetic traffic driver's saved state.
type SyntheticInjectorState struct {
	RNG      uint64
	Injected int64
	// Received, LatSum and LatMax are the sink's latency statistics.
	Received, LatSum, LatMax int64
	Hist                     stats.HistogramState
}

// State captures the injector and its sink.
func (s *SyntheticInjector) State() SyntheticInjectorState {
	sk := &s.sink
	return SyntheticInjectorState{
		RNG: s.rng, Injected: s.injected,
		Received: sk.received, LatSum: sk.latSum, LatMax: sk.latMax, Hist: sk.hist.State(),
	}
}

// Restore writes a saved state back.
func (s *SyntheticInjector) Restore(st SyntheticInjectorState) {
	s.rng, s.injected = st.RNG, st.Injected
	sk := &s.sink
	sk.received, sk.latSum, sk.latMax = st.Received, st.LatSum, st.LatMax
	sk.hist.Restore(st.Hist)
}
