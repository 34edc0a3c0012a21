// Package cpu provides the two processor models the paper's evaluation
// needs: trace-style CMP cores that execute the Table III benchmark
// profiles against the simulated cache hierarchy and NoC (Figs 1, 2, 12,
// 13), and a multicore kernel-execution model standing in for the Intel
// Haswell EP server the paper measures the linear-algebra kernels on
// (Fig 9).
package cpu

import (
	"fmt"

	"snacknoc/internal/cache"
	"snacknoc/internal/sim"
	"snacknoc/internal/traffic"
)

// IssuePerCycle is how many instructions a core can retire per NoC
// cycle. Cores run at 2 GHz against the 1 GHz uncore (Table IV), so two
// core slots fit in each simulated cycle.
const IssuePerCycle = 2

// Core is one in-order CMP core executing a benchmark profile: it
// interleaves compute slots with memory accesses drawn from the
// profile's reference stream, stalls on dependent misses and MSHR
// pressure, and idles across synchronization points.
type Core struct {
	id     int
	prof   *traffic.Profile
	stream *traffic.Stream
	l1     *cache.L1
	ncores int

	// onMissFn caches the onMiss method value: passing c.onMiss directly
	// would allocate a fresh closure on every L1 access, the single
	// largest allocation site in whole-sweep profiles.
	onMissFn func(int64)

	retired     int64
	outstanding int
	blocked     bool
	idleUntil   int64
	sinceStall  int

	finished    bool
	finishCycle int64
	stallAt     int // jittered threshold for the next synchronization stall

	stallCycles int64 // cycles spent blocked or idle (for reports)
}

// NewCore binds a core to its L1 and workload profile.
func NewCore(id int, prof *traffic.Profile, l1 *cache.L1, ncores int, seed uint64) *Core {
	c := &Core{
		id:     id,
		prof:   prof,
		stream: traffic.NewStream(prof, id, seed),
		l1:     l1,
		ncores: ncores,
	}
	c.onMissFn = c.onMiss
	return c
}

// Name implements sim.Component.
func (c *Core) Name() string { return fmt.Sprintf("core%d(%s)", c.id, c.prof.Name) }

// Finished reports whether the core has retired its budget.
func (c *Core) Finished() bool { return c.finished }

// FinishCycle returns the cycle the core retired its last instruction.
func (c *Core) FinishCycle() int64 { return c.finishCycle }

// Retired returns the instructions retired so far.
func (c *Core) Retired() int64 { return c.retired }

// StallCycles returns cycles the core spent unable to issue.
func (c *Core) StallCycles() int64 { return c.stallCycles }

// Evaluate issues up to IssuePerCycle instructions.
func (c *Core) Evaluate(cycle int64) {
	if c.finished {
		return
	}
	if c.blocked || cycle < c.idleUntil {
		c.stallCycles++
		return
	}
	ph := c.prof.PhaseAt(float64(c.retired) / float64(c.prof.Instrs))
	rng := c.stream.RNG()
	for slot := 0; slot < IssuePerCycle; slot++ {
		if ph.StallEvery > 0 && c.sinceStall >= c.nextStall(ph, rng) {
			c.sinceStall = 0
			c.stallAt = 0
			c.idleUntil = cycle + int64(ph.StallCycles)
			return
		}
		c.retire(cycle)
		if c.finished {
			return
		}
		c.sinceStall++
		if !rng.Bool(ph.MemFrac) {
			continue // pure compute slot
		}
		block, write := c.stream.Next(ph, c.ncores)
		if c.l1.AccessFast(block, write, c.onMissFn) {
			continue
		}
		c.outstanding++
		if c.outstanding >= c.prof.MLP || rng.Bool(c.prof.BlockFrac) {
			c.blocked = true
			return
		}
	}
}

// Advance implements sim.Component; cores commit state in Evaluate.
func (c *Core) Advance(int64) {}

// nextStall returns the jittered instruction count before the next
// synchronization stall. Real barrier intervals vary with data; perfectly
// periodic stalls would phase-lock the cores into convoys and make
// runtimes chaotically sensitive to tiny timing shifts, drowning the
// sub-1% interference effects of Fig 12.
func (c *Core) nextStall(ph *traffic.Phase, rng *traffic.RNG) int {
	if c.stallAt == 0 {
		c.stallAt = ph.StallEvery*3/4 + rng.Intn(ph.StallEvery/2+1)
	}
	return c.stallAt
}

func (c *Core) retire(cycle int64) {
	c.retired++
	if c.retired >= c.prof.Instrs {
		c.finished = true
		c.finishCycle = cycle
	}
}

func (c *Core) onMiss(cycle int64) {
	c.outstanding--
	c.blocked = false
}

// Workload is a set of cores running one benchmark across the CMP.
type Workload struct {
	Profile *traffic.Profile
	Cores   []*Core
}

// NewWorkload creates one core per node of the system, all running the
// given profile, registered on eng.
func NewWorkload(eng *sim.Engine, sys *cache.System, prof *traffic.Profile, seed uint64) (*Workload, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	n := len(sys.L1s)
	w := &Workload{Profile: prof, Cores: make([]*Core, n)}
	for i := 0; i < n; i++ {
		w.Cores[i] = NewCore(i, prof, sys.L1s[i], n, seed)
		eng.Register(w.Cores[i])
	}
	return w, nil
}

// Done reports whether every core has retired its budget.
func (w *Workload) Done() bool {
	for _, c := range w.Cores {
		if !c.Finished() {
			return false
		}
	}
	return true
}

// Runtime returns the benchmark runtime: the cycle the last core
// finished. It panics if the workload has not completed.
func (w *Workload) Runtime() int64 {
	var max int64
	for _, c := range w.Cores {
		if !c.Finished() {
			panic("cpu: Runtime on unfinished workload")
		}
		if c.FinishCycle() > max {
			max = c.FinishCycle()
		}
	}
	return max
}

// MeanFinish returns the mean per-core finish cycle. Interference
// studies use it instead of Runtime: the maximum is dominated by one
// core's final stall alignment, while the mean averages timing noise
// across all cores — necessary to resolve the paper's sub-1% impacts at
// reproduction scale.
func (w *Workload) MeanFinish() float64 {
	var sum int64
	for _, c := range w.Cores {
		if !c.Finished() {
			panic("cpu: MeanFinish on unfinished workload")
		}
		sum += c.FinishCycle()
	}
	return float64(sum) / float64(len(w.Cores))
}

// Run drives the engine until the workload completes or maxCycles pass,
// returning the runtime and whether it completed.
func Run(eng *sim.Engine, w *Workload, maxCycles int64) (int64, bool) {
	_, ok := eng.RunUntil(w.Done, maxCycles)
	if !ok {
		return eng.Cycle(), false
	}
	return w.Runtime(), true
}
