package noc

import (
	"fmt"

	"snacknoc/internal/attrib"
	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
	"snacknoc/internal/trace"
)

// Network is a complete mesh NoC instance: routers, links, and network
// interfaces, registered with a simulation engine.
type Network struct {
	cfg     *Config
	routers []*Router
	nis     []*NI
	loop    *LoopRoute
	// pool recycles the flits of every router, NI and compute port.
	pool flitPool
}

// New constructs the mesh described by cfg and registers every router and
// network interface with the engine.
func New(eng *sim.Engine, cfg *Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg}
	nodes := cfg.Nodes()
	n.routers = make([]*Router, nodes)
	n.nis = make([]*NI, nodes)
	for i := 0; i < nodes; i++ {
		n.routers[i] = newRouter(NodeID(i), cfg)
		n.routers[i].pool = &n.pool
		n.nis[i] = newNI(NodeID(i), cfg, &n.pool)
	}

	// Mesh links: for each adjacent pair, create the downstream input
	// port first, then mirror it at the upstream output.
	link := func(up *Router, dir Direction, down *Router, rdir Direction) {
		up.addOutput(dir, down.addInput(rdir, false), false)
	}
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			r := n.routers[cfg.Node(x, y)]
			if x+1 < cfg.Width {
				east := n.routers[cfg.Node(x+1, y)]
				link(r, East, east, West)
				link(east, West, r, East)
			}
			if y+1 < cfg.Height {
				south := n.routers[cfg.Node(x, y+1)]
				link(r, South, south, North)
				link(south, North, r, South)
			}
		}
	}

	// Local ports: NI <-> router.
	for i := 0; i < nodes; i++ {
		r := n.routers[i]
		ni := n.nis[i]
		ni.connect(r.addInput(Local, false))
		eject := &inputPort{dir: Local, in: ni.fromRouter, credit: &wire[creditMsg]{}}
		r.addOutput(Local, eject, true)
	}

	// Compute ports and the transient-data loop route.
	if cfg.SnackVNet >= 0 {
		n.loop = NewLoopRoute(cfg)
		for i := 0; i < nodes; i++ {
			n.routers[i].loop = n.loop
		}
	}
	if cfg.ComputePort {
		for i := 0; i < nodes; i++ {
			n.routers[i].addInput(Compute, true)
		}
	}

	for i := 0; i < nodes; i++ {
		n.routers[i].finalize()
		n.routers[i].setHandle(eng.Register(n.routers[i]))
		n.nis[i].setHandle(eng.Register(n.nis[i]))
	}
	return n, nil
}

// Cfg returns the network configuration.
func (n *Network) Cfg() *Config { return n.cfg }

// Loop returns the transient-data loop route (nil without a snack vnet).
func (n *Network) Loop() *LoopRoute { return n.loop }

// Router returns the router at the given node.
func (n *Network) Router(id NodeID) *Router { return n.routers[id] }

// NI returns the network interface at the given node.
func (n *Network) NI(id NodeID) *NI { return n.nis[id] }

// Routers returns all routers in node order.
func (n *Network) Routers() []*Router { return n.routers }

// AttachClient registers the packet receiver for a node.
func (n *Network) AttachClient(id NodeID, c Client) { n.nis[id].AttachClient(c) }

// AttachCompute installs a compute unit on a router and returns the
// injection port it uses to push result flits into the crossbar.
func (n *Network) AttachCompute(id NodeID, cu ComputeUnit) *InjectPort {
	if !n.cfg.ComputePort {
		panic("noc: AttachCompute on a network without compute ports")
	}
	r := n.routers[id]
	r.attachCompute(cu)
	in := r.inputs[Compute]
	p := &InjectPort{
		node:     id,
		vnet:     n.cfg.SnackVNet,
		pool:     &n.pool,
		out:      in.in,
		creditIn: in.credit,
		credits:  make([]int, n.cfg.VNets[n.cfg.SnackVNet].VCs),
	}
	for i := range p.credits {
		p.credits[i] = n.cfg.VNets[n.cfg.SnackVNet].BufDepth
	}
	return p
}

// Inject stamps and queues a packet at its source NI. The caller must be
// in its Evaluate phase; the packet enters the network on a later cycle.
//
// Packet IDs are allocated per source node (node tag in the high half, a
// local sequence number in the low), so an ID names its source and is
// unique network-wide without a shared counter. The IDs key each NI's
// reassembly table and appear in traces and checkpoints.
func (n *Network) Inject(p *Packet, cycle int64) {
	if p.Src < 0 || int(p.Src) >= len(n.nis) {
		panic(fmt.Sprintf("noc: inject from invalid node %d", p.Src))
	}
	p.ID = n.nis[p.Src].nextPktID()
	p.InjectCycle = cycle
	n.nis[p.Src].Inject(p, cycle)
}

// InjectMsg injects a protocol message without allocating: the Packet
// envelope comes from the source NI's free list and is recycled once the
// packet has been serialized into flits. Equivalent to Inject with a fresh
// Packet, for callers that do not retain the envelope.
func (n *Network) InjectMsg(src, dst NodeID, vnet, sizeBytes int, payload any, cycle int64) {
	if src < 0 || int(src) >= len(n.nis) {
		panic(fmt.Sprintf("noc: inject from invalid node %d", src))
	}
	ni := n.nis[src]
	p := ni.getPacket()
	p.Src = src
	p.Dst = dst
	p.VNet = vnet
	p.SizeBytes = sizeBytes
	p.Payload = payload
	p.ID = ni.nextPktID()
	p.InjectCycle = cycle
	ni.Inject(p, cycle)
}

// EnableSampling turns on time-series sampling (crossbar and links) on
// every router with the given interval in cycles.
func (n *Network) EnableSampling(interval int64) {
	for _, r := range n.routers {
		r.EnableSampling(interval)
	}
}

// SetTracer installs the lifecycle-event tracer on every router and
// network interface (nil removes it). Tracing must be configured before
// the run whose events are wanted; it does not alter simulated behavior.
func (n *Network) SetTracer(t *trace.Tracer) {
	for _, r := range n.routers {
		r.SetTracer(t)
	}
	for _, ni := range n.nis {
		ni.SetTracer(t)
	}
}

// SetAttrib attaches one cycle-attribution slab per router and NI from
// rec (nil rec yields nil slabs, the disabled state).
func (n *Network) SetAttrib(rec *attrib.Recorder) {
	for _, r := range n.routers {
		r.SetAttrib(rec.NewCounters(attrib.KindRouter, r.Name()))
	}
	for _, ni := range n.nis {
		ni.SetAttrib(rec.NewCounters(attrib.KindNI, ni.Name()))
	}
}

// RegisterMetrics names every router and NI statistic in reg, plus the
// network-wide aggregates (total packets, per-vnet mean latency).
func (n *Network) RegisterMetrics(reg *stats.Registry) {
	for _, r := range n.routers {
		r.RegisterMetrics(reg)
	}
	for _, ni := range n.nis {
		ni.RegisterMetrics(reg)
	}
	reg.AddGauge("net.packets.injected", func() float64 { return float64(n.TotalInjected()) })
	reg.AddGauge("net.packets.ejected", func() float64 { return float64(n.TotalEjected()) })
	for v := range n.cfg.VNets {
		v := v
		reg.AddGauge(fmt.Sprintf("net.vnet%d.avglat", v),
			func() float64 { return n.AvgPacketLatency(v) })
	}
}

// TotalInjected returns packets injected across all nodes.
func (n *Network) TotalInjected() int64 {
	var t int64
	for _, ni := range n.nis {
		t += ni.InjectedPackets()
	}
	return t
}

// TotalEjected returns packets delivered across all nodes.
func (n *Network) TotalEjected() int64 {
	var t int64
	for _, ni := range n.nis {
		t += ni.EjectedPackets()
	}
	return t
}

// AvgPacketLatency returns the mean packet latency in cycles over all
// nodes for the given vnet (0 when no packets were delivered).
func (n *Network) AvgPacketLatency(vnet int) float64 {
	var sum, count int64
	for _, ni := range n.nis {
		sum += ni.latSum[vnet]
		count += ni.latCount[vnet]
	}
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count)
}

// MeshLinkUtils returns the cumulative utilization fraction of every mesh
// link (excluding local/ejection links), keyed by "router->dir".
func (n *Network) MeshLinkUtils() map[string]float64 {
	m := make(map[string]float64)
	for _, r := range n.routers {
		for d := North; d <= West; d++ {
			if u := r.LinkUtil(d); u != nil {
				m[fmt.Sprintf("r%d->%s", r.id, d)] = u.Fraction()
			}
		}
	}
	return m
}

// InjectPort lets a compute unit push single-flit snack packets directly
// into its router's compute input port, subject to credit flow control.
// Update must be called once per cycle from the unit's Evaluate; Send must
// be called from the unit's Advance phase.
type InjectPort struct {
	node     NodeID
	vnet     int
	pool     *flitPool
	out      *wire[*Flit]
	creditIn *wire[creditMsg]
	credits  []int
	rr       int
	seq      uint64
}

// injectPortTag distinguishes compute-port packet IDs from NI packet IDs,
// which share the node-tag-plus-sequence layout (see Network.Inject).
const injectPortTag = uint64(1) << 63

// Node returns the node this port injects at.
func (p *InjectPort) Node() NodeID { return p.node }

// Update ingests returned credits; call once per cycle before CanSend.
func (p *InjectPort) Update(cycle int64) {
	p.creditIn.drainReady(cycle, func(msg creditMsg) {
		p.credits[msg.vc]++
	})
}

// FreeSlots returns the number of free downstream buffer slots.
func (p *InjectPort) FreeSlots() int {
	n := 0
	for _, c := range p.credits {
		n += c
	}
	return n
}

// CanSend reports whether at least one flit can be sent this cycle.
func (p *InjectPort) CanSend() bool { return p.FreeSlots() > 0 }

// Send injects a single-flit snack packet carrying the given payload.
// It returns false when no credit is available. Call during Advance.
func (p *InjectPort) Send(dst NodeID, payload any, loop bool, cycle int64) bool {
	nvc := len(p.credits)
	for i := 0; i < nvc; i++ {
		c := (p.rr + i) % nvc
		if p.credits[c] <= 0 {
			continue
		}
		p.credits[c]--
		p.rr = c + 1
		p.seq++
		f := p.pool.get()
		f.PacketID = injectPortTag | uint64(p.node+1)<<32 | p.seq
		f.Type = HeadTailFlit
		f.Src = p.node
		f.Dst = dst
		f.VNet = p.vnet
		f.VC = c
		f.PktFlits = 1
		f.Payload = payload
		f.Loop = loop
		f.InjectCycle = cycle
		p.out.push(f, cycle+1)
		return true
	}
	return false
}
