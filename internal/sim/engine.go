// Package sim provides the cycle-driven simulation kernel that underpins
// every timing model in this repository: the NoC, the memory controllers,
// the CMP cores, and the SnackNoC compute layer.
//
// The kernel advances global time in discrete cycles. Every hardware block
// registers as a Component; each cycle the engine runs a two-phase update:
//
//  1. Evaluate — every component reads the committed state of its inputs
//     (as of the end of the previous cycle) and computes its next state.
//  2. Advance — every component commits that next state.
//
// Two-phase update makes component ordering irrelevant, which is the same
// determinism guarantee cycle-accurate RTL simulation provides and the
// property Garnet2.0 relies on for router pipelines.
//
// The engine also provides a lightweight event queue for blocks that sleep
// for long, data-dependent intervals (for example a DRAM access returning
// tCAS cycles later). Events scheduled for cycle C run at the start of
// cycle C, before Evaluate. The queue is a calendar queue (time wheel):
// see timewheel.go for the layout and the overflow policy.
//
// # Quiescence
//
// Components that are idle most of the time (the paper's §II premise:
// median router utilization is ≤~10%) may additionally implement Quiescer.
// After each Advance the engine asks such a component whether it has any
// work pending; if not, the component leaves the active list and its
// Evaluate/Advance are skipped until something wakes it — an input wire
// write (see Handle.WakeAt) or a scheduled event. On wake the engine calls
// CatchUp with the number of fully skipped cycles so per-cycle statistics
// (utilization denominators, sampled time series, occupancy histograms)
// remain bit-identical to the always-evaluate execution.
//
// The active list is materialized: the engine keeps the awake components
// in a dedicated slice ordered by registration index, so each cycle costs
// O(awake) rather than O(registered) — on a 128-node mesh with the paper's
// ~10% utilization most routers and NIs are asleep at any instant.
// Wake-ups are buffered and merged into the active list once per cycle,
// so a burst of wakes costs one merge instead of one sorted insertion
// each (the insertion scan dominated whole-run profiles before).
//
// An engine is single-threaded: one simulation runs on one goroutine at
// a time. Parallelism comes from running independent simulations side by
// side (see DESIGN.md §9).
package sim

import (
	"fmt"

	"snacknoc/internal/attrib"
	"snacknoc/internal/stats"
)

// Component is a hardware block driven by the engine. Evaluate must not
// modify state observable by other components; Advance commits it.
type Component interface {
	// Name identifies the component in traces and error messages.
	Name() string
	// Evaluate computes the component's next state from committed inputs.
	Evaluate(cycle int64)
	// Advance commits the state computed by Evaluate.
	Advance(cycle int64)
}

// Quiescer is optionally implemented by components that can sleep while
// idle. Quiescent is consulted after the component's Advance; it must
// return true only when no input wire, queue, or staged output holds work
// — a quiescent component with no future wake-up would otherwise
// deadlock. CatchUp is invoked on wake (and when a Run returns) with the
// number of whole cycles the component was skipped for, so it can replay
// the idle observations its statistics would have recorded.
type Quiescer interface {
	Quiescent() bool
	CatchUp(idleCycles int64)
}

// compState is the engine's per-component bookkeeping for the active list.
type compState struct {
	c       Component
	q       Quiescer // nil when the component never sleeps
	idx     int      // registration index; the active list stays sorted by it
	asleep  bool
	sleptAt int64 // last cycle executed before sleeping
	wakeAt  int64 // earliest pending wake event (0 = none)
}

// Handle identifies a registered component to wake-up producers. A nil
// handle is valid and inert, so wiring code can attach wakers
// unconditionally.
type Handle struct {
	e  *Engine
	st *compState
}

// WakeAt ensures the component is awake (and caught up) no later than the
// start of cycle at. Calling it for an already-awake component is free;
// redundant or superseded wake-ups are deduplicated. Producers call it
// whenever they hand a sleeping consumer work that becomes visible at a
// future cycle.
func (h *Handle) WakeAt(at int64) {
	if h == nil {
		return
	}
	st := h.st
	if !st.asleep {
		return
	}
	e := h.e
	if at <= e.cycle {
		e.wake(st)
		return
	}
	if st.wakeAt != 0 && st.wakeAt <= at {
		return // an earlier wake-up is already scheduled
	}
	st.wakeAt = at
	// Wake events carry the component directly instead of a closure, so
	// the per-wake path (every wire push to a sleeper) allocates nothing.
	e.scheduleEvent(at, nil, st)
}

// Engine owns global simulated time and the registered components.
type Engine struct {
	cycle int64
	comps []*compState
	// active holds the awake components in registration order; Step
	// iterates it instead of scanning comps for asleep flags.
	active []*compState
	// woken buffers components re-activated since the last merge; Step
	// merges it into active (restoring registration order) before the
	// Evaluate phase, so N wakes cost one merge instead of N insertions.
	woken []*compState
	seq   int64
	// fnScheduled counts callback schedules only (not wake-ups). Callbacks
	// are model behaviour; wake events are active-list bookkeeping whose
	// count moves with any quiescence tuning, so the exported event metric
	// (pinned by the committed smoke-metrics golden) leaves them out.
	fnScheduled int64
	wheel       timeWheel
	// eventPool recycles event records; Schedule runs on per-miss and
	// per-wake paths, so the allocation shows up in whole-sweep profiles.
	eventPool []*event
	// quiesce gates the active list; disabled it reproduces the classic
	// evaluate-everything kernel (used by equivalence tests).
	quiesce bool
	// StopRequested lets a component or sampler end Run early.
	stopped bool

	// at counts per-step evaluation volume for attribution; nil disables.
	at *attrib.Counters
}

// NewEngine returns an engine at cycle 0 with no components.
func NewEngine() *Engine {
	e := &Engine{quiesce: true}
	e.wheel.init()
	return e
}

// Register adds a component to the engine and returns its wake handle.
// Components are evaluated in registration order, but two-phase update
// makes the order immaterial to simulated behaviour.
func (e *Engine) Register(c Component) *Handle {
	if c == nil {
		panic("sim: Register called with nil component")
	}
	st := &compState{c: c, idx: len(e.comps)}
	st.q, _ = c.(Quiescer)
	e.comps = append(e.comps, st)
	e.active = append(e.active, st)
	return &Handle{e: e, st: st}
}

// Cycle returns the current simulated cycle. During Evaluate/Advance it is
// the cycle being executed; after Run it is the next cycle to execute.
func (e *Engine) Cycle() int64 { return e.cycle }

// SetAttrib attaches the engine's evaluation-volume counters ("engine")
// from rec; a nil rec detaches them.
func (e *Engine) SetAttrib(rec *attrib.Recorder) {
	e.at = rec.NewCounters(attrib.KindEngine, "engine")
}

// Schedule runs fn at the start of the given absolute cycle. Scheduling in
// the past (or the current cycle, whose event phase already ran) is an
// error, reported by panic because it is always a model bug.
func (e *Engine) Schedule(at int64, fn func()) {
	e.scheduleEvent(at, fn, nil)
}

// scheduleEvent enqueues either a callback (fn) or a wake-up (wake) for
// the start of cycle at. Exactly one of fn and wake is non-nil.
func (e *Engine) scheduleEvent(at int64, fn func(), wake *compState) {
	if at <= e.cycle {
		panic(fmt.Sprintf("sim: Schedule(%d) at or before current cycle %d", at, e.cycle))
	}
	if fn != nil {
		e.fnScheduled++
	}
	e.seq++
	var ev *event
	if n := len(e.eventPool); n > 0 {
		ev = e.eventPool[n-1]
		e.eventPool = e.eventPool[:n-1]
	} else {
		ev = &event{}
	}
	ev.cycle, ev.seq, ev.fn, ev.wake = at, e.seq, fn, wake
	e.wheel.schedule(e.cycle, ev)
}

// ScheduleAfter runs fn delay cycles from now (delay must be >= 1).
func (e *Engine) ScheduleAfter(delay int64, fn func()) {
	e.Schedule(e.cycle+delay, fn)
}

// Stop makes Run return after the current cycle completes. The stop latch
// stays set — further Run calls return immediately — until Resume clears
// it.
func (e *Engine) Stop() { e.stopped = true }

// Resume clears the stop latch so the engine can run again. Stop/Resume
// make an engine reusable across measurement windows: stop, read
// statistics, resume.
func (e *Engine) Resume() { e.stopped = false }

// Stopped reports whether Stop has been called without a matching Resume.
func (e *Engine) Stopped() bool { return e.stopped }

// SetQuiescence enables or disables the active list. It is enabled by
// default; disabling it forces every component to be evaluated every cycle
// (waking and catching up current sleepers), which the equivalence tests
// use as the reference execution.
func (e *Engine) SetQuiescence(on bool) {
	e.quiesce = on
	if !on {
		for _, st := range e.comps {
			if st.asleep {
				e.wake(st)
			}
		}
		e.mergeWoken()
	}
}

// wake marks a sleeping component awake, replaying the statistics of the
// cycles it skipped, and buffers it for the next active-list merge. It
// will be evaluated from the cycle the merge precedes onward.
func (e *Engine) wake(st *compState) {
	if !st.asleep {
		return
	}
	st.asleep = false
	st.wakeAt = 0
	e.woken = append(e.woken, st)
	if idle := e.cycle - st.sleptAt - 1; idle > 0 {
		st.q.CatchUp(idle)
	}
}

// mergeWoken folds the wake buffer into the active list, restoring
// registration order, so the evaluation order of awake components is
// identical to the scan-everything kernel.
func (e *Engine) mergeWoken() {
	w := e.woken
	if len(w) == 0 {
		return
	}
	// Wake events fire in schedule order, so w is usually already sorted
	// by registration index; insertion sort is O(n) then and n is small.
	for i := 1; i < len(w); i++ {
		for j := i; j > 0 && w[j-1].idx > w[j].idx; j-- {
			w[j-1], w[j] = w[j], w[j-1]
		}
	}
	a := e.active
	n := len(a)
	a = append(a, w...)
	// Backward merge: the read index into the old tail of a is always
	// behind the write index, so merging in place is safe.
	i, k := n-1, len(a)-1
	for j := len(w) - 1; j >= 0; k-- {
		if i >= 0 && a[i].idx > w[j].idx {
			a[k] = a[i]
			i--
		} else {
			a[k] = w[j]
			j--
		}
	}
	e.active = a
	for i := range w {
		w[i] = nil
	}
	e.woken = w[:0]
}

// Settle replays idle statistics for components that are still asleep, up
// to (but not including) the current cycle. Run and RunUntil call it
// before returning so observers always read fully caught-up statistics;
// callers driving Step directly should call it before reading per-cycle
// counters.
func (e *Engine) Settle() {
	e.mergeWoken()
	for _, st := range e.comps {
		if !st.asleep {
			continue
		}
		if idle := e.cycle - st.sleptAt - 1; idle > 0 {
			st.q.CatchUp(idle)
			st.sleptAt = e.cycle - 1
		}
	}
}

// Step executes exactly one cycle: pending events, then Evaluate on all
// active components, then Advance. Components whose Quiescent reports no
// pending work leave the active list after their Advance.
func (e *Engine) Step() {
	if e.wheel.pending > 0 {
		e.runEvents()
	}
	if len(e.woken) > 0 {
		e.mergeWoken()
	}
	act := e.active
	if e.at != nil {
		e.at.Add(attrib.EngineEvals, int64(len(act)))
	}
	for _, st := range act {
		st.c.Evaluate(e.cycle)
	}
	// Compact the active list in place: sleepers drop out, everyone else
	// keeps their relative (registration) order.
	keep := act[:0]
	for _, st := range act {
		st.c.Advance(e.cycle)
		if e.quiesce && st.q != nil && st.q.Quiescent() {
			st.asleep = true
			st.sleptAt = e.cycle
		} else {
			keep = append(keep, st)
		}
	}
	// Clear dropped tail slots so sleeping components stay reachable only
	// through comps (no stale aliases pinning re-slice writes).
	for i := len(keep); i < len(act); i++ {
		act[i] = nil
	}
	e.active = keep
	e.cycle++
}

// runEvents executes every event due at the current cycle, in schedule
// order, returning their records to the pool.
func (e *Engine) runEvents() {
	due := e.wheel.collect(e.cycle)
	for i, ev := range due {
		fn, wake := ev.fn, ev.wake
		ev.fn, ev.wake = nil, nil
		e.eventPool = append(e.eventPool, ev)
		due[i] = nil
		if wake != nil {
			e.wake(wake)
		} else {
			fn()
		}
	}
	e.wheel.release(due)
}

// RegisterMetrics names the engine's own state in reg: the simulated
// cycle, registered and awake component counts, and how many callbacks
// were ever scheduled. All are gauges read at snapshot time, so
// registration adds no per-cycle cost.
func (e *Engine) RegisterMetrics(reg *stats.Registry) {
	reg.AddGauge("engine.cycle", func() float64 { return float64(e.cycle) })
	reg.AddGauge("engine.components", func() float64 { return float64(len(e.comps)) })
	reg.AddGauge("engine.awake", func() float64 { return float64(len(e.active) + len(e.woken)) })
	reg.AddGauge("engine.events.scheduled", func() float64 { return float64(e.fnScheduled) })
}

// Run executes up to n cycles, stopping early if Stop is called.
// It returns the number of cycles actually executed.
func (e *Engine) Run(n int64) int64 {
	var done int64
	for done < n && !e.stopped {
		e.Step()
		done++
	}
	e.Settle()
	return done
}

// RunUntil executes cycles until pred returns true (checked after each
// cycle) or max cycles elapse. It returns the number executed and whether
// pred was satisfied.
func (e *Engine) RunUntil(pred func() bool, max int64) (int64, bool) {
	var done int64
	for done < max && !e.stopped {
		e.Step()
		done++
		if pred() {
			e.Settle()
			return done, true
		}
	}
	e.Settle()
	return done, pred()
}
