package noc

import "fmt"

// FlitType distinguishes the positions of a flit within a packet under
// wormhole switching.
type FlitType int

// Flit positions within a packet.
const (
	HeadFlit FlitType = iota
	BodyFlit
	TailFlit
	HeadTailFlit // single-flit packet
)

// String returns a short name for traces.
func (t FlitType) String() string {
	switch t {
	case HeadFlit:
		return "H"
	case BodyFlit:
		return "B"
	case TailFlit:
		return "T"
	case HeadTailFlit:
		return "HT"
	}
	return fmt.Sprintf("FlitType(%d)", int(t))
}

// Packet is the unit of injection: a protocol message (cache request,
// data response, SnackNoC instruction or data token) that the network
// interface serializes into flits.
type Packet struct {
	ID        uint64
	Src, Dst  NodeID
	VNet      int
	SizeBytes int
	// Payload carries the protocol message. For snack-vnet packets it is
	// a *core* token; for cache traffic a cache message.
	Payload any
	// Loop marks a transient data token that follows the static loop
	// route instead of routing directly to Dst (§III-E).
	Loop bool
	// InjectCycle is stamped by the network interface at injection.
	InjectCycle int64
	// pooled marks a packet owned by its source NI's free list (created
	// by Network.InjectMsg); the NI recycles it after flitization.
	pooled bool
}

// Flit is the atomic transfer unit; one flit crosses one link per cycle.
type Flit struct {
	PacketID    uint64
	Type        FlitType
	Src, Dst    NodeID
	VNet        int
	VC          int // input VC at the current router (set by upstream VA)
	SeqInPkt    int
	PktFlits    int
	Payload     any // carried on head/headtail flits only
	Loop        bool
	InjectCycle int64

	// router-internal state, reset at each hop
	outPort    Direction
	eligibleAt int64
	// arrivedAt is the cycle this flit was buffered at the current router,
	// stamped only while tracing so flit spans know their start.
	arrivedAt int64
}

// IsHead reports whether the flit opens a packet.
func (f *Flit) IsHead() bool { return f.Type == HeadFlit || f.Type == HeadTailFlit }

// IsTail reports whether the flit closes a packet.
func (f *Flit) IsTail() bool { return f.Type == TailFlit || f.Type == HeadTailFlit }

// String formats the flit for traces.
func (f *Flit) String() string {
	return fmt.Sprintf("flit{pkt=%d %s %d->%d vnet=%d vc=%d %d/%d}",
		f.PacketID, f.Type, f.Src, f.Dst, f.VNet, f.VC, f.SeqInPkt+1, f.PktFlits)
}

// flitPool recycles Flit objects and flitization scratch slices within
// one network. A network runs on one goroutine at a time, so a plain
// free-list needs no locking and — unlike sync.Pool — is fully
// deterministic; put fully zeroes the flit, so recycling is
// unobservable. Flits are returned when they leave the network: consumed
// by a compute unit, drained into the CPM overflow path, or reassembled
// at an ejection NI.
type flitPool struct {
	flits  []*Flit
	slices [][]*Flit
}

// get returns a zeroed flit. A nil pool degrades to plain allocation so
// unit tests can flitize without a network.
func (p *flitPool) get() *Flit {
	if p == nil {
		return &Flit{}
	}
	if n := len(p.flits); n > 0 {
		f := p.flits[n-1]
		p.flits = p.flits[:n-1]
		return f
	}
	return &Flit{}
}

// put recycles a flit that has left the network. All fields are cleared so
// a pooled flit retains no payload reference.
func (p *flitPool) put(f *Flit) {
	if p == nil {
		return
	}
	*f = Flit{}
	p.flits = append(p.flits, f)
}

// getSlice returns a length-n flit slice, reusing a retired flitization
// buffer when one is large enough.
func (p *flitPool) getSlice(n int) []*Flit {
	if p != nil {
		if k := len(p.slices); k > 0 {
			s := p.slices[k-1]
			p.slices = p.slices[:k-1]
			if cap(s) >= n {
				return s[:n]
			}
		}
	}
	return make([]*Flit, n)
}

// putSlice retires a flitization buffer once its last flit has been
// handed to the router.
func (p *flitPool) putSlice(s []*Flit) {
	if p == nil || cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	for i := range s {
		s[i] = nil
	}
	p.slices = append(p.slices, s[:0])
}

// flitize serializes a packet into flits for the given channel width,
// drawing storage from pool (which may be nil).
func flitize(p *Packet, cfg *Config, pool *flitPool) []*Flit {
	n := cfg.FlitsFor(p.SizeBytes)
	flits := pool.getSlice(n)
	for i := 0; i < n; i++ {
		t := BodyFlit
		switch {
		case n == 1:
			t = HeadTailFlit
		case i == 0:
			t = HeadFlit
		case i == n-1:
			t = TailFlit
		}
		f := pool.get()
		f.PacketID = p.ID
		f.Type = t
		f.Src = p.Src
		f.Dst = p.Dst
		f.VNet = p.VNet
		f.SeqInPkt = i
		f.PktFlits = n
		f.Loop = p.Loop
		f.InjectCycle = p.InjectCycle
		if f.IsHead() {
			f.Payload = p.Payload
		}
		flits[i] = f
	}
	return flits
}
