package experiments

import (
	"fmt"
	"sync"

	"snacknoc/internal/cache"
	"snacknoc/internal/checkpoint"
	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
	"snacknoc/internal/traffic"
)

// Warm sweeps. The fig12/fig13 co-run matrices repeat two expensive
// legs across cells: the benchmark-alone baseline (leg 1) is identical
// for every kernel sharing one (benchmark, mesh, priority, scale)
// group, and the zero-load kernel latency (leg 2) is identical for
// every benchmark sharing one (kernel, mesh, priority) point. In warm
// mode the sweep builds ONE baseline platform per group, runs it to the
// warmup boundary, takes a checkpoint, and forks it per cell — each
// fork replays the tail deterministically, so outputs stay byte-
// identical to the cold sweep while (cells-1) platform builds and
// warmups are skipped per group. Leg 2 is memoized outright (a
// zero-load run has no benchmark in it). Leg 3 — the co-run itself —
// genuinely differs per cell and always runs cold.
//
// Warm mode silently falls back to cold runs while tracing or metrics
// collection is enabled: observability sinks are per-run, and sharing a
// platform across labelled runs would misattribute events.

// WarmupCycles is the warmup boundary at which warm sweeps checkpoint
// the baseline platform. Correctness does not depend on the value —
// forks replay the exact cold-run future from any boundary (runs
// shorter than this settle at completion and fork into no-op tails);
// it only sets how much simulation the forks skip.
const WarmupCycles = 8192

var (
	warmMu    sync.Mutex
	warmOn    bool
	warmDepth int // nested/concurrent sweep scopes currently open
)

// beginSweepScope opens a warm-memo scope and returns its closer. The
// warmed platforms and zero-load memos live exactly as long as some
// scope is open: every sweep driver (and each co-run, which nests
// inside a sweep's scope or stands alone) brackets itself, and when the
// last scope closes the memos are dropped. Without this, distinct
// figure sweeps in one process would accumulate each other's platforms
// unbounded — the groups are keyed by (bench, mesh, ...), so a fig12
// run's 4x4 groups would sit in memory for the whole of a following
// fig13 run that can never hit them.
func beginSweepScope() func() {
	warmMu.Lock()
	warmDepth++
	warmMu.Unlock()
	return endSweepScope
}

func endSweepScope() {
	warmMu.Lock()
	warmDepth--
	last := warmDepth == 0
	warmMu.Unlock()
	if last {
		resetWarmState()
	}
}

// warmStateSize reports how many baseline groups and zero-load memos
// are currently cached (test hook for the drain guarantee).
func warmStateSize() (groups, zeros int) {
	warmGroups.Range(func(_, _ any) bool { groups++; return true })
	zeroCache.Range(func(_, _ any) bool { zeros++; return true })
	return
}

// SetWarmSweeps toggles warm sweep mode for subsequent co-run sweeps.
// Turning it off releases every cached platform and zero-load result.
func SetWarmSweeps(on bool) {
	warmMu.Lock()
	warmOn = on
	warmMu.Unlock()
	if !on {
		resetWarmState()
	}
}

// WarmSweeps reports whether warm sweep mode is enabled.
func WarmSweeps() bool {
	warmMu.Lock()
	defer warmMu.Unlock()
	return warmOn
}

// warmActive reports whether the next co-run may take the warm path:
// the mode is on and no observability sink is attached. Attribution
// counts as a sink: warm legs fork memoized platforms whose counters
// belong to another cell's timeline, so attributed sweeps run cold.
func warmActive() bool {
	return WarmSweeps() && TraceCollector() == nil && !obsMetricsOn() && !AttribEnabled()
}

// resetWarmState drops all warmed platforms and memoized results.
func resetWarmState() {
	warmGroups.Range(func(k, _ any) bool {
		warmGroups.Delete(k)
		return true
	})
	zeroCache.Range(func(k, _ any) bool {
		zeroCache.Delete(k)
		return true
	})
}

// warmKey identifies one baseline (leg 1) platform group.
type warmKey struct {
	bench string
	w, h  int
	pri   bool
	scale Scale
}

// warmBase is a built baseline simulation: the platform every fork of
// the group replays on.
type warmBase struct {
	eng *sim.Engine
	net *noc.Network
	sys *cache.System
	w   *cpu.Workload
}

// warmGroup is one group's warmed platform plus its checkpoint. Forks
// share the platform instance, so they serialize on mu.
type warmGroup struct {
	mu   sync.Mutex
	err  error
	base *warmBase
	snap *checkpoint.State
}

var warmGroups sync.Map // warmKey -> *warmGroup

// warmBaselineLeg produces the leg-1 result for spec by forking the
// group's warmup checkpoint and running the tail.
func warmBaselineLeg(spec CoRunSpec) (*legResult, error) {
	key := warmKey{
		bench: spec.Bench.Name, w: spec.Width, h: spec.Height,
		pri: spec.Priority, scale: spec.Scale,
	}
	gi, _ := warmGroups.LoadOrStore(key, &warmGroup{})
	g := gi.(*warmGroup)
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err == nil && g.snap == nil {
		g.err = g.build(spec)
	}
	if g.err != nil {
		return nil, g.err
	}
	g.snap.Restore()
	b := g.base
	if !b.w.Done() {
		if _, ok := b.eng.RunUntil(b.w.Done, 2_000_000_000); !ok {
			return nil, fmt.Errorf("experiments: warm baseline %s did not complete", spec.Bench.Name)
		}
	}
	return collectLegStats(b.net, b.w), nil
}

// build constructs the group's platform (the same way the cold leg
// does), runs it to the warmup boundary, and checkpoints it.
func (g *warmGroup) build(spec CoRunSpec) error {
	eng := sim.NewEngine()
	net, err := noc.New(eng, noc.SnackPlatform(spec.Width, spec.Height, spec.Priority))
	if err != nil {
		return err
	}
	net.EnableSampling(sampleInterval)
	sys, err := cache.NewSystem(eng, net, cache.DefaultSystemConfig())
	if err != nil {
		return err
	}
	w, err := cpu.NewWorkload(eng, sys, traffic.Scale(spec.Bench, float64(spec.Scale)), Seed)
	if err != nil {
		return err
	}
	// A run shorter than the boundary settles at completion instead;
	// its forks then collect results without stepping another cycle.
	eng.RunUntil(w.Done, WarmupCycles)
	g.base = &warmBase{eng: eng, net: net, sys: sys, w: w}
	g.snap = checkpoint.Take(checkpoint.Target{Eng: eng, Net: net, Sys: sys, Work: w})
	return nil
}

// zeroKey identifies one zero-load (leg 2) measurement; it has no
// benchmark component — the platform is otherwise idle by definition.
type zeroKey struct {
	kernel cpu.KernelName
	dims   KernelDims
	w, h   int
	pri    bool
}

// zeroEntry memoizes one zero-load run.
type zeroEntry struct {
	once   sync.Once
	cycles int64
	err    error
}

var zeroCache sync.Map // zeroKey -> *zeroEntry

// warmZeroLoad returns the memoized zero-load kernel latency for spec.
func warmZeroLoad(spec CoRunSpec, prog *core.Program) (int64, error) {
	key := zeroKey{
		kernel: spec.Kernel, dims: spec.Dims, w: spec.Width, h: spec.Height,
		pri: spec.Priority,
	}
	ei, _ := zeroCache.LoadOrStore(key, &zeroEntry{})
	e := ei.(*zeroEntry)
	e.once.Do(func() {
		zeroEng := sim.NewEngine()
		zeroPlat, err := core.NewStandalone(zeroEng, spec.Width, spec.Height, spec.Priority, core.DefaultPlatformConfig())
		if err != nil {
			e.err = err
			return
		}
		zr, err := zeroPlat.Run(prog, 500_000_000)
		if err != nil {
			e.err = fmt.Errorf("experiments: zero-load %s: %w", spec.Kernel, err)
			return
		}
		e.cycles = zr.Cycles()
	})
	return e.cycles, e.err
}
