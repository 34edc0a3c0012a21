package experiments

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"snacknoc/internal/stats"
	"snacknoc/internal/trace"
)

// Observability for experiment sweeps. Tracing and metrics export are off
// by default and cost nothing beyond a nil check per run; once enabled,
// every simulation a runner builds gets its own trace.Tracer (merged
// through one Collector) and contributes one labelled metrics snapshot.
// Cells of a parallel sweep register concurrently, so the package state
// is mutex-protected; the dump orders everything by label, keeping the
// output independent of completion order.

var (
	obsMu       sync.Mutex
	obsTraces   *trace.Collector
	obsSnaps    []stats.Snapshot
	obsMetrics  bool
	obsAttrib   bool
	obsAttribIv int64
)

// EnableTracing turns on flit-lifecycle tracing for subsequent runs and
// returns the collector the per-run tracers register with. ringLimit > 0
// keeps only the newest ringLimit events per simulation (the -trace-last
// mode); 0 keeps everything.
func EnableTracing(ringLimit int) *trace.Collector {
	obsMu.Lock()
	defer obsMu.Unlock()
	obsTraces = trace.NewCollector(ringLimit)
	return obsTraces
}

// EnableMetrics turns on metrics snapshots for subsequent runs, clearing
// any previously collected ones.
func EnableMetrics() {
	obsMu.Lock()
	defer obsMu.Unlock()
	obsMetrics = true
	obsSnaps = nil
}

// EnableAttribution turns on cycle attribution for subsequent runs.
// interval > 0 additionally samples windowed per-reason deltas every
// interval cycles (exported as attrib.series.* time series and, when
// tracing is also on, as Perfetto counter tracks). Like tracing and
// metrics, attribution turns off sweep leg sharing (see newSweepMemo):
// every co-run cell runs and counts its own baseline and zero-load legs.
func EnableAttribution(interval int64) {
	obsMu.Lock()
	defer obsMu.Unlock()
	obsAttrib = true
	obsAttribIv = interval
}

// AttribEnabled reports whether runs should attach attribution counters.
func AttribEnabled() bool {
	obsMu.Lock()
	defer obsMu.Unlock()
	return obsAttrib
}

// AttribInterval returns the sampling window in cycles (0: no sampling).
func AttribInterval() int64 {
	obsMu.Lock()
	defer obsMu.Unlock()
	return obsAttribIv
}

// DisableObservability turns tracing, metrics, and attribution back off
// and drops collected state (tests use this to isolate themselves).
func DisableObservability() {
	obsMu.Lock()
	defer obsMu.Unlock()
	obsTraces = nil
	obsMetrics = false
	obsSnaps = nil
	obsAttrib = false
	obsAttribIv = 0
}

// TraceCollector returns the active collector, or nil when tracing is off.
func TraceCollector() *trace.Collector {
	obsMu.Lock()
	defer obsMu.Unlock()
	return obsTraces
}

// MetricsSnapshots returns the snapshots collected since EnableMetrics,
// sorted by label so the export is deterministic under parallel sweeps.
func MetricsSnapshots() []stats.Snapshot {
	obsMu.Lock()
	defer obsMu.Unlock()
	out := append([]stats.Snapshot(nil), obsSnaps...)
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// obsTracer returns a fresh tracer labelled label, or nil when tracing is
// off (the disabled fast path every instrumentation site relies on).
func obsTracer(label string) *trace.Tracer {
	obsMu.Lock()
	defer obsMu.Unlock()
	if obsTraces == nil {
		return nil
	}
	return obsTraces.NewTracer(label)
}

// registerTraceMetrics surfaces a run's tracer health in its metrics
// snapshot: trace.dropped counts ring-overwritten events (nonzero means
// the -trace-last window was too small for the run; cmd/tracecheck
// prints the same warning when validating the dump). No-op without a
// tracer.
func registerTraceMetrics(reg *stats.Registry, tr *trace.Tracer) {
	if tr == nil {
		return
	}
	reg.AddGauge("trace.dropped", func() float64 { return float64(tr.Dropped()) })
}

// obsMetricsOn reports whether runs should snapshot their registries.
func obsMetricsOn() bool {
	obsMu.Lock()
	defer obsMu.Unlock()
	return obsMetrics
}

// obsRecord adds one run's snapshot to the export set.
func obsRecord(s stats.Snapshot) {
	obsMu.Lock()
	defer obsMu.Unlock()
	obsSnaps = append(obsSnaps, s)
}

// ObserveTracer returns a labelled tracer for a simulation the caller
// builds itself (cmd/snacksim's standalone kernel path), or nil when
// tracing is off. Pass the result straight to SetTracer.
func ObserveTracer(label string) *trace.Tracer { return obsTracer(label) }

// MetricsEnabled reports whether EnableMetrics is in effect, for callers
// that build their own simulations and registries.
func MetricsEnabled() bool { return obsMetricsOn() }

// RecordSnapshot adds a caller-built snapshot to the export set.
func RecordSnapshot(s stats.Snapshot) { obsRecord(s) }

// WriteTrace dumps the collected trace to path as Chrome trace-event JSON
// (load it in chrome://tracing or ui.perfetto.dev).
func WriteTrace(path string) error {
	c := TraceCollector()
	if c == nil {
		return fmt.Errorf("experiments: tracing was not enabled")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteMetrics dumps the collected metrics snapshots to path; a .csv
// suffix selects the CSV shape, anything else the canonical JSON that
// stats.ReadSnapshots and scripts/metricsdiff.sh consume.
func WriteMetrics(path string) error {
	snaps := MetricsSnapshots()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	write := stats.WriteSnapshotsJSON
	if strings.HasSuffix(path, ".csv") {
		write = stats.WriteSnapshotsCSV
	}
	if err := write(f, snaps); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
