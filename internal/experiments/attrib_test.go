package experiments

import (
	"bytes"
	"strings"
	"testing"

	"snacknoc/internal/attrib"
	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
	"snacknoc/internal/trace"
	"snacknoc/internal/traffic"
)

// TestAttribByteIdentityFig2 pins the attribution layer's
// non-interference contract on the traffic path: a fig2 sweep with
// attribution (and interval sampling) enabled renders byte-identically
// to the plain run. Counters only observe cycles, never perturb them.
func TestAttribByteIdentityFig2(t *testing.T) {
	DisableObservability()
	res, err := RunFig2(Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	RenderFig2(&plain, res)

	EnableAttribution(5000)
	defer DisableObservability()
	res, err = RunFig2(Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	var attributed bytes.Buffer
	RenderFig2(&attributed, res)

	if !bytes.Equal(plain.Bytes(), attributed.Bytes()) {
		t.Fatalf("fig2 output diverges under -attrib:\nplain:\n%s\nattributed:\n%s",
			plain.String(), attributed.String())
	}
	sums := AttribSummaries()
	if len(sums) != len(Fig2Benchmarks()) {
		t.Fatalf("got %d attribution summaries, want %d", len(sums), len(Fig2Benchmarks()))
	}
}

// TestAttribByteIdentityCompute pins the same contract on the compute
// path (fig9's RCU/CPM kernels), and checks the kernel runs produce
// summaries with a CPM verdict — fig9's cells are zero-load.
func TestAttribByteIdentityCompute(t *testing.T) {
	DisableObservability()
	res, err := RunFig9(DefaultKernelDims(), cpu.DefaultCPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	RenderFig9(&plain, res)

	EnableAttribution(0)
	defer DisableObservability()
	res, err = RunFig9(DefaultKernelDims(), cpu.DefaultCPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	var attributed bytes.Buffer
	RenderFig9(&attributed, res)

	if !bytes.Equal(plain.Bytes(), attributed.Bytes()) {
		t.Fatalf("fig9 output diverges under -attrib:\nplain:\n%s\nattributed:\n%s",
			plain.String(), attributed.String())
	}
	if len(AttribSummaries()) == 0 {
		t.Fatal("attributed fig9 produced no summaries")
	}
}

// TestAttribIntervalSampling drives the windowed-sampling path end to
// end on one benchmark run: interval deltas land in the metrics
// snapshot as attrib.series.* time series, counter samples land in the
// trace JSON as validating "C"-phase tracks, and the deliberately tiny
// trace ring surfaces its overflow both as the trace.dropped metric and
// through the dump's marker (the tracecheck warning path).
func TestAttribIntervalSampling(t *testing.T) {
	run := func(t *testing.T, ringLimit int) (map[string]float64, []byte) {
		t.Helper()
		DisableObservability()
		EnableTracing(ringLimit)
		EnableAttribution(2000)
		if _, err := RunBenchmark(noc.DAPPER(4, 4), traffic.LULESH(), Scale(0.05)); err != nil {
			t.Fatal(err)
		}
		snaps := MetricsSnapshots()
		if len(snaps) != 1 {
			t.Fatalf("got %d snapshots, want 1", len(snaps))
		}
		var buf bytes.Buffer
		if err := TraceCollector().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := trace.Validate(buf.Bytes()); err != nil {
			t.Fatalf("trace invalid: %v", err)
		}
		return snaps[0].Values, buf.Bytes()
	}
	defer DisableObservability()

	// Unbounded ring: interval deltas land in the snapshot as
	// attrib.series.* and in the trace as counter tracks.
	v, dump := run(t, 0)
	sampled := false
	for k, val := range v {
		if strings.HasPrefix(k, "attrib.series.") && strings.HasSuffix(k, ".samples") && val > 0 {
			sampled = true
			break
		}
	}
	if !sampled {
		t.Fatal("no attrib.series.* samples in the snapshot")
	}
	if !bytes.Contains(dump, []byte(`"ph":"C"`)) {
		t.Fatal("trace JSON carries no counter samples")
	}
	if d := v["trace.dropped"]; d != 0 {
		t.Fatalf("unbounded ring dropped %v events", d)
	}

	// A ring far too small for the run: the overflow surfaces as the
	// trace.dropped metric and through the dump's marker (the
	// cmd/tracecheck warning path).
	v, dump = run(t, 256)
	dropped, ok := v["trace.dropped"]
	if !ok || dropped <= 0 {
		t.Fatalf("trace.dropped = %v, %v; want a positive overflow count", dropped, ok)
	}
	if got := trace.DroppedFromJSON(dump); got != int64(dropped) {
		t.Fatalf("DroppedFromJSON = %d, metric says %v", got, dropped)
	}
}

// runAttributedKernel runs one zero-load standalone kernel with a live
// recorder — the cmd/snackscope -kernel path — and returns the folded
// values plus the engine's final cycle.
func runAttributedKernel(t *testing.T, k cpu.KernelName, dims KernelDims) (map[string]float64, int64) {
	t.Helper()
	prog, err := CompileKernel(k, dims, 16, Seed)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	plat, err := core.NewStandalone(eng, 4, 4, true, core.DefaultPlatformConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := attrib.NewRecorder()
	plat.SetAttrib(rec)
	if _, err := plat.Run(prog, 1_000_000_000); err != nil {
		t.Fatal(err)
	}
	return rec.Fold(), eng.Cycle()
}

// TestAttribSumsToCycles is the acceptance-criteria invariant: every
// per-cycle component's reasons sum to the total simulated cycles. The
// subtest keeps its historical name: every run is one engine, i.e. one
// shard.
func TestAttribSumsToCycles(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) {
		values, cycles := runAttributedKernel(t, cpu.KernelSGEMM, DefaultKernelDims())
		if cycles <= 0 {
			t.Fatal("no simulated cycles")
		}
		if err := attrib.CheckTotals(values, cycles); err != nil {
			t.Fatal(err)
		}
	})
}

// TestScopeSGEMMGolden pins cmd/snackscope's SGEMM report against the
// committed artifact, verdict included — the known zero-load behavior
// is CPM-issue-bound (the CPM's one-entry-per-cycle issue port is the
// limiter, not the mesh).
func TestScopeSGEMMGolden(t *testing.T) {
	values, cycles := runAttributedKernel(t, cpu.KernelSGEMM, DefaultKernelDims())
	if err := attrib.CheckTotals(values, cycles); err != nil {
		t.Fatal(err)
	}
	sum := attrib.Summarize(values)
	if sum.Verdict != "cpm-issue-bound" {
		t.Fatalf("SGEMM verdict %q, want cpm-issue-bound", sum.Verdict)
	}
	got := sum.RenderString("kernel/SGEMM@4x4 dims=default")
	compareArtifact(t, "../../results/scope-sgemm.txt", []byte(got))
}

// attribDigest renders every collected summary.
func attribDigest(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, s := range AttribSummaries() {
		b.WriteString(s.Summary.RenderString(s.Label))
	}
	return b.String()
}

// TestAttribDeterminismAcrossScheduling pins counter determinism across
// sweep worker counts: -j 1 and -j 4 must collect identical summaries.
func TestAttribDeterminismAcrossScheduling(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a reduced fig12 sweep twice")
	}
	benches := []*traffic.Profile{traffic.LULESH()}
	kernels := []cpu.KernelName{cpu.KernelMAC}
	sweep := func(t *testing.T) {
		t.Helper()
		DisableObservability()
		EnableAttribution(0)
		if _, err := RunFig12(benches, kernels, DefaultKernelDims(), Scale(0.05), []bool{true}); err != nil {
			t.Fatal(err)
		}
	}
	defer SetWorkers(0)
	defer DisableObservability()

	SetWorkers(1)
	sweep(t)
	want := attribDigest(t)
	if want == "" {
		t.Fatal("baseline sweep collected no attribution summaries")
	}

	SetWorkers(4)
	sweep(t)
	if got := attribDigest(t); got != want {
		t.Fatal("-j 4 attribution diverged from -j 1")
	}
}

// TestDSEAttribVerdicts pins the per-cell verdict column: with Attrib
// on, every zero-load DSE cell is CPM-issue-bound, the rendered report
// grows a verdict column, and the report stays byte-identical across
// workers and with pooled forking disabled (counters rewind with the
// checkpoint, fold before release).
func TestDSEAttribVerdicts(t *testing.T) {
	cfg := dseTestConfig()
	cfg.Attrib = true
	render := func(t *testing.T) []byte {
		t.Helper()
		res, err := RunDSE(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Cells {
			if c.Verdict != "cpm-issue-bound" {
				t.Fatalf("cell buf=%d chan=%d vc=%d verdict %q, want cpm-issue-bound",
					c.BufDepth, c.ChanWidth, c.VCs, c.Verdict)
			}
		}
		var buf bytes.Buffer
		RenderDSE(&buf, res)
		return buf.Bytes()
	}
	defer SetWorkers(0)
	SetWorkers(1)
	want := render(t)
	if !bytes.Contains(want, []byte("verdict")) {
		t.Fatal("attributed DSE report lacks the verdict column")
	}

	SetWorkers(4)
	if got := render(t); !bytes.Equal(got, want) {
		t.Fatal("-j 4 attributed DSE report diverged")
	}
	cfg.PoolDepth = -1
	if got := render(t); !bytes.Equal(got, want) {
		t.Fatal("pool-disabled attributed DSE report diverged")
	}

	// Without Attrib the column must not appear — the committed
	// dse-smoke.txt golden is unchanged by this PR.
	plain := dseTestConfig()
	res, err := RunDSE(plain)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderDSE(&buf, res)
	if bytes.Contains(buf.Bytes(), []byte("verdict")) {
		t.Fatal("plain DSE report grew a verdict column")
	}
}
