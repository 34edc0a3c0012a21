package experiments

import (
	"sync"
	"sync/atomic"

	"snacknoc/internal/cpu"
)

// Leg deduplication. A co-run cell is three simulations (see RunCoRun),
// and two of them do not depend on the cell: the benchmark-alone
// baseline is fixed by (benchmark, mesh, priority, scale) and the
// zero-load kernel latency by (kernel, dims, mesh, priority). Each
// Fig 12/13 sweep creates one legMemo and shares it across its cells,
// so every distinct leg runs once and later cells reuse its numbers.
// A memoized leg is the same deterministic cold simulation a lone cell
// would run, so a memoized sweep renders byte-identically to
// independent RunCoRun calls. The memo keeps only those numbers — no
// engine, platform or checkpoint — and is dropped with the sweep.
//
// Observed sweeps (tracing, metrics or attribution on) get a nil memo:
// every cell then runs its own legs and records its own labelled
// .../base and .../zero traces, snapshots and counters.

// baseKey identifies one benchmark-alone baseline leg.
type baseKey struct {
	bench string
	w, h  int
	pri   bool
	scale Scale
}

// zeroKey identifies one zero-load kernel leg; no benchmark runs in it.
type zeroKey struct {
	kernel cpu.KernelName
	dims   KernelDims
	w, h   int
	pri    bool
}

// onceMap runs fn once per key and hands every caller of that key the
// same result; concurrent callers wait for the first.
type onceMap[K comparable, V any] struct {
	m sync.Map // K -> *onceEntry[V]
}

type onceEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

func (m *onceMap[K, V]) do(k K, fn func() (V, error)) (V, error) {
	ei, _ := m.m.LoadOrStore(k, new(onceEntry[V]))
	e := ei.(*onceEntry[V])
	e.once.Do(func() { e.v, e.err = fn() })
	return e.v, e.err
}

// legMemo is one sweep's shared leg results. A nil *legMemo memoizes
// nothing: each call runs its leg.
type legMemo struct {
	base onceMap[baseKey, *legResult]
	zero onceMap[zeroKey, int64]
}

// newSweepMemo returns a fresh memo for one sweep, or nil while any
// observability sink is on.
func newSweepMemo() *legMemo {
	if TraceCollector() != nil || obsMetricsOn() || AttribEnabled() {
		return nil
	}
	return new(legMemo)
}

// baseline returns spec's leg-1 result, running it on the first request.
func (m *legMemo) baseline(spec CoRunSpec, run func() (*legResult, error)) (*legResult, error) {
	if m == nil {
		return run()
	}
	return m.base.do(baseKey{spec.Bench.Name, spec.Width, spec.Height, spec.Priority, spec.Scale}, run)
}

// zeroLoad returns spec's leg-2 cycle count, running it on the first
// request.
func (m *legMemo) zeroLoad(spec CoRunSpec, run func() (int64, error)) (int64, error) {
	if m == nil {
		return run()
	}
	return m.zero.do(zeroKey{spec.Kernel, spec.Dims, spec.Width, spec.Height, spec.Priority}, run)
}

// Leg kinds for legCounts.
const (
	legBase = iota
	legZero
	legCoRun
)

// legCounts tallies the legs one sweep actually simulates, by kind (a
// test hook: a broken memo key stays byte-identical, only slower). A
// nil *legCounts counts nothing.
type legCounts [3]atomic.Int64

func (c *legCounts) ran(leg int) {
	if c != nil {
		c[leg].Add(1)
	}
}
