package snacknoc

import (
	"fmt"

	"snacknoc/internal/compiler"
	"snacknoc/internal/core"
	"snacknoc/internal/dataflow"
	"snacknoc/internal/fixed"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
)

// DecentralizedPlatform implements the paper's §VII proposal: one Central
// Packet Manager per memory-controller node, operating in parallel, so
// several kernels can stream into the communication layer at once. Each
// concurrently executing context is compiled onto a disjoint partition of
// the RCUs — concurrent kernels must not share accumulator chains.
type DecentralizedPlatform struct {
	cfg  Config
	eng  *sim.Engine
	core *core.Platform
}

// NewDecentralizedPlatform builds a platform with CPMs at the given
// nodes (default: the four mesh corners, the paper's memory-controller
// placement).
func NewDecentralizedPlatform(opts ...Option) (*DecentralizedPlatform, error) {
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	eng := sim.NewEngine()
	w, h := cfg.Width, cfg.Height
	corners := []noc.NodeID{0, noc.NodeID(w - 1), noc.NodeID(w * (h - 1)), noc.NodeID(w*h - 1)}
	cp, err := core.NewStandaloneMulti(eng, w, h, cfg.PriorityArbitration, core.DefaultRCUConfig(), corners)
	if err != nil {
		return nil, err
	}
	return &DecentralizedPlatform{cfg: cfg, eng: eng, core: cp}, nil
}

// CPMs returns the number of packet managers.
func (p *DecentralizedPlatform) CPMs() int { return len(p.core.CPMs) }

// RCUs returns the number of Router Compute Units.
func (p *DecentralizedPlatform) RCUs() int { return p.cfg.Width * p.cfg.Height }

// Cycle returns the current simulated NoC cycle.
func (p *DecentralizedPlatform) Cycle() int64 { return p.eng.Cycle() }

// NewContext creates a context for concurrent execution on this
// platform.
func (p *DecentralizedPlatform) NewContext() *Context {
	return &Context{
		builder: dataflow.NewBuilder(),
		name:    "context",
	}
}

// ExecuteConcurrent runs up to CPMs() contexts simultaneously, one per
// packet manager, each mapped onto a disjoint slice of the RCUs. It
// returns per-context statistics in input order.
func (p *DecentralizedPlatform) ExecuteConcurrent(ctxs ...*Context) ([]*Stats, error) {
	if len(ctxs) == 0 {
		return nil, fmt.Errorf("snacknoc: no contexts")
	}
	if len(ctxs) > len(p.core.CPMs) {
		return nil, fmt.Errorf("snacknoc: %d contexts exceed %d packet managers", len(ctxs), len(p.core.CPMs))
	}
	nRCU := p.RCUs()
	per := nRCU / len(ctxs)
	type job struct {
		cpm     *core.CPM
		prog    []*core.Program
		outs    [][]float64
		results []*core.Result
		next    int
		stats   *Stats
	}
	jobs := make([]*job, len(ctxs))
	for i, ctx := range ctxs {
		if len(ctx.requests) == 0 {
			return nil, fmt.Errorf("snacknoc: context %d has no GetValue requests", i)
		}
		cc := compiler.DefaultConfig(nRCU)
		cc.RCUs = cc.RCUs[i*per : (i+1)*per]
		if p.cfg.MinChunk > 0 {
			cc.MinChunk = p.cfg.MinChunk
		}
		j := &job{cpm: p.core.CPMs[i], stats: &Stats{}}
		for _, req := range ctx.requests {
			g, err := ctx.builder.Build(req.value.node)
			if err != nil {
				return nil, err
			}
			cached, err := compiler.CompileCached(g, cc)
			if err != nil {
				return nil, err
			}
			// Shared cached program: relabel a shallow copy (see Execute).
			prog := new(core.Program)
			*prog = *cached
			prog.Name = ctx.name
			j.prog = append(j.prog, prog)
			j.outs = append(j.outs, req.out)
		}
		ctx.requests = nil
		jobs[i] = j
	}

	// Submit the first kernel of every job; chain the rest on completion.
	// A CPM that refuses a submission stops the engine and fails the call.
	done := 0
	var busyErr error
	var submit func(i int, j *job)
	submit = func(i int, j *job) {
		k := j.next
		if !j.cpm.Submit(j.prog[k], p.eng.Cycle(), func(r *core.Result) {
			j.results = append(j.results, r)
			j.stats.Cycles += r.Cycles()
			j.stats.Graphs++
			j.next++
			if j.next < len(j.prog) {
				p.eng.ScheduleAfter(1, func() { submit(i, j) })
			} else {
				done++
			}
		}) {
			busyErr = fmt.Errorf("snacknoc: context %d: CPM busy at submission of kernel %d (cycle %d)", i, k, p.eng.Cycle())
			p.eng.Stop()
		}
	}
	for i, j := range jobs {
		submit(i, j)
		if busyErr != nil {
			return nil, busyErr
		}
	}
	var budget int64
	for _, j := range jobs {
		for _, pr := range j.prog {
			budget += int64(len(pr.Entries))*400 + 2_000_000
		}
	}
	_, ok := p.eng.RunUntil(func() bool { return done == len(jobs) }, budget)
	if busyErr != nil {
		return nil, busyErr
	}
	if !ok {
		return nil, fmt.Errorf("snacknoc: concurrent execution did not complete")
	}

	stats := make([]*Stats, len(jobs))
	for i, j := range jobs {
		for k, r := range j.results {
			out := j.outs[k]
			if len(out) < len(r.Values) {
				return nil, fmt.Errorf("snacknoc: context %d output buffer too small", i)
			}
			copyValues(out, r.Values)
		}
		stats[i] = j.stats
	}
	return stats, nil
}

func copyValues(dst []float64, src []fixed.Q) {
	for i, v := range src {
		dst[i] = v.Float()
	}
}
