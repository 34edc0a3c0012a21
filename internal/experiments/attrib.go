package experiments

import (
	"snacknoc/internal/attrib"
	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
	"snacknoc/internal/trace"
)

// Cycle-attribution glue for the runners. When attribution is enabled
// (the -attrib flag), every simulation a runner builds gets its own
// attrib.Recorder: counter slabs are attached to each component at build
// time, optionally sampled on an interval, registered into the run's
// metrics registry, and recorded as a labelled snapshot — the shape both
// the binaries' end-of-run reports and cmd/snackscope's JSON mode fold
// with attrib.Summarize.

// obsRecorder returns a fresh recorder when attribution is enabled, or
// nil — the disabled value every SetAttrib walk accepts.
func obsRecorder() *attrib.Recorder {
	if !AttribEnabled() {
		return nil
	}
	return attrib.NewRecorder()
}

// startAttribSampling registers the windowed interval sampler on the
// run's engine. Call it after every SetAttrib walk (the sampler freezes
// the attached-reason set) and before the run starts. A nil recorder or
// a zero interval is a no-op.
func startAttribSampling(rec *attrib.Recorder, eng *sim.Engine, tr *trace.Tracer) {
	if s := rec.StartSampling(AttribInterval(), eng.Settle, tr); s != nil {
		eng.Register(s)
	}
}

// ObserveRecorder returns a fresh recorder for a simulation the caller
// builds itself (cmd/snacksim's standalone kernel path), or nil when
// attribution is off. Pass the result straight to SetAttrib.
func ObserveRecorder() *attrib.Recorder { return obsRecorder() }

// ObserveSampling registers the interval sampler for a caller-built
// simulation; call after the SetAttrib walk and before the run. Nil
// recorder or zero interval is a no-op.
func ObserveSampling(rec *attrib.Recorder, eng *sim.Engine, tr *trace.Tracer) {
	startAttribSampling(rec, eng, tr)
}

// RegisterRunMetrics adds attribution gauges/series and tracer-health
// metrics for a caller-built simulation to reg (rec and tr may be nil).
func RegisterRunMetrics(reg *stats.Registry, rec *attrib.Recorder, tr *trace.Tracer) {
	rec.RegisterMetrics(reg)
	registerTraceMetrics(reg, tr)
}

// AttribSummary pairs one run's label with its folded bottleneck
// summary.
type AttribSummary struct {
	Label   string
	Summary *attrib.Summary
}

// AttribSummaries folds every collected snapshot that carries
// attribution counters into a bottleneck summary, ordered by label.
// Runs record snapshots whenever attribution is on, with or without
// -metrics, so the binaries' end-of-run reports always have data.
func AttribSummaries() []AttribSummary {
	var out []AttribSummary
	for _, s := range MetricsSnapshots() {
		sum := attrib.Summarize(s.Values)
		if len(sum.Layers) == 0 {
			continue
		}
		out = append(out, AttribSummary{Label: s.Label, Summary: sum})
	}
	return out
}
