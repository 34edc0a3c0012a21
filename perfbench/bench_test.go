package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"snacknoc/internal/experiments"
)

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	s := readSpec(t)
	if len(s.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(s.EndToEnd), len(endToEnd))
	}
	for i, m := range s.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, program prints %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d] = %s %s, program prints %s %s", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
}

// runLine runs the benchmark and decodes its last output line.
func runLine(t *testing.T, args ...string) result {
	t.Helper()
	t.Setenv("PERFBENCH_BUILD", t.TempDir())
	var out, errs bytes.Buffer
	if code := runMain(append(args, "--out", t.TempDir()), &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Fatalf("run not clean: %+v\n%s", r, out.String())
	}
	return r
}

func checkMetrics(t *testing.T, got map[string]metricValue, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("printed %d metrics, want %d", len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
			t.Errorf("metric %s = %+v, want unit %s and a number", d.name, m, d.unit)
		}
	}
}

func TestPrintedMetrics(t *testing.T) {
	r := runLine(t, "--workload", "dse", "--seconds", "1", "--trace", "0")
	checkMetrics(t, r.Metrics, endToEnd)
	for _, d := range endToEnd {
		if r.Metrics[d.name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", d.name, r.Metrics[d.name].Value)
		}
	}
}

func TestTracedRunMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a run")
	}
	r := runLine(t, "--workload", "kernels", "--seconds", "2", "--trace", "1")
	checkMetrics(t, r.Metrics, perLayer)
	share := 0.0
	for _, b := range bucketOrder {
		share += r.Metrics[b+".host_share"].Value
	}
	if math.Abs(share-100) > 1 {
		t.Errorf("host shares sum to %.2f%%", share)
	}
	if r.Metrics["core.rcu_instrs"].Value <= 0 || r.Metrics["compiler.compiles"].Value != 4 {
		t.Errorf("kernel counts missing: rcu_instrs %v, compiles %v",
			r.Metrics["core.rcu_instrs"].Value, r.Metrics["compiler.compiles"].Value)
	}
}

// roundDigests runs one round of w and returns its op digests.
func roundDigests(t *testing.T, b *bench, w *workload) []string {
	t.Helper()
	resetCaches()
	var ds []string
	for _, o := range w.round(b, 0) {
		if o.err != nil {
			t.Fatalf("%s %s: %v", w.name, o.name, o.err)
		}
		ds = append(ds, o.digest)
	}
	return ds
}

// Simulated statistics are deterministic: a round repeats its digests
// back to back, matches the stored references for the shipped seed, and
// the sweep workloads give the same answer on one worker as on two.
func TestDigestsRepeat(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.name == "corun" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			b := &bench{seed: shippedSeed}
			first := strings.Join(roundDigests(t, b, w), " ")
			if again := strings.Join(roundDigests(t, b, w), " "); again != first {
				t.Errorf("back-to-back rounds differ: %s vs %s", first, again)
			}
			if ref := strings.Join(referenceDigests[w.name], " "); first != ref {
				t.Errorf("digests %s, stored references %s", first, ref)
			}
			if w.seeded {
				return
			}
			experiments.SetWorkers(1)
			defer experiments.SetWorkers(0)
			if serial := strings.Join(roundDigests(t, b, w), " "); serial != first {
				t.Errorf("1 worker gives %s, %d workers %s", serial, experiments.Workers(), first)
			}
		})
	}
}

// A wrong simulated answer must count as a failed op.
func TestCorruptedOutputFails(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.name == "corun" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			b := &bench{seed: shippedSeed, corrupt: true}
			p := b.runRounds(w, 0, 0, b.reference(w))
			if len(p.ops) == 0 {
				t.Fatal("no ops ran")
			}
			for _, o := range p.ops {
				if o.err == nil {
					t.Errorf("corrupted op %s passed its check", o.name)
				}
			}
			if len(p.failures) != len(p.ops) {
				t.Errorf("%d failures for %d corrupted ops", len(p.failures), len(p.ops))
			}
		})
	}
}

func TestPanicCountsAsFailure(t *testing.T) {
	w := &workload{
		name:    "panics",
		repeats: true,
		round: func(b *bench, n int) []op {
			return []op{
				runOp("ok", func(o *op) error { o.digest = "d"; return nil }),
				runOp("boom", func(o *op) error {
					var m map[string]int
					m["x"] = 1
					return nil
				}),
			}
		},
	}
	b := &bench{}
	p := b.runRounds(w, 0, 0, nil)
	if len(p.ops) != 2 || p.ops[0].err != nil || p.ops[1].err == nil ||
		!strings.Contains(p.ops[1].err.Error(), "panic") {
		t.Fatalf("ops %+v", p.ops)
	}
	rec := newRecord(w, b, p, nil)
	if rec.Result.Failed != 1 || rec.Result.Attempted != 2 || rec.Result.Correct || rec.OpsFailedFrac != 0.5 {
		t.Errorf("record %+v", rec.Result)
	}
}

func TestTailLatency(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so the function must sort
		}
		return xs
	}
	for _, c := range []struct {
		n          int
		value, pct float64
	}{
		{5, 5, 100},
		{11, 1, 100 * 1.0 / 11},
		{20, 10, 50},
		{100, 90, 90},
	} {
		v, p := tailLatency(seq(c.n))
		if v != c.value || math.Abs(p-c.pct) > 1e-9 {
			t.Errorf("n=%d: tail %v at p%v, want %v at p%v", c.n, v, p, c.value, c.pct)
		}
	}
}

// The quartiles must match Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles %v, want [2.75 5.5 8.25]", q)
	}
	q = quartiles([]float64{1, 2})
	if q != [3]float64{0.75, 1.5, 2.25} { // Python extrapolates below four values
		t.Errorf("quartiles of two %v, want [0.75 1.5 2.25]", q)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		head   []float64
		better string
		want   string
	}{
		{"faster", scale(base, 0.9), "lower", "improved"},
		{"same", base, "lower", "no worse within"},
		{"slower", scale(base, 1.2), "lower", "worse by more"},
		{"noisy", []float64{50, 150, 60, 140, 100, 70, 130, 80, 120, 100}, "lower", "unresolved"},
		{"noisy-but-all-slower", []float64{130, 200, 140, 190, 150, 135, 185, 145, 175, 160}, "lower", "worse by more"},
		{"higher-better", scale(base, 1.1), "higher", "improved"},
	} {
		got := compareMetric(base, c.head, c.better, 0.1)
		if !strings.HasPrefix(got.verdict, c.want) {
			t.Errorf("%s: verdict %q, want %q", c.name, got.verdict, c.want)
		}
	}
}

func TestFoldTraces(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   snacknoc/internal/noc.(*Router).Evaluate
             snacknoc/internal/sim.(*Engine).Step
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
             snacknoc/internal/noc.New
-----------+-------------------------------------------------------
      10ms   internal/runtime/maps.(*Map).getWithKey
-----------+-------------------------------------------------------
      1.5s   snacknoc/internal/dataflow.(*Graph).Eval
-----------+-------------------------------------------------------
     450ms   sort.Float64s
-----------+-------------------------------------------------------
`)
	shares, err := foldTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"noc": 1.5, "runtime": 1, "compiler": 75, "other": 22.5}
	total := 0.0
	for b, v := range shares {
		total += v
		if math.Abs(v-want[b]) > 1e-9 {
			t.Errorf("%s share %v, want %v", b, v, want[b])
		}
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("shares sum to %v", total)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.beginOp("k")
	sp := tr.begin("compile")
	time.Sleep(2 * time.Millisecond)
	tr.end(sp)
	tr.begin("run") // left open: endOp closes it
	tr.endOp()
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Fatalf("spans %+v", tr.spans)
	}
	self := selfTimes(tr.spans)
	whole := tr.spans[0].End - tr.spans[0].Start
	sum := self["op:k"] + self["compile"] + self["run"]
	if math.Abs(sum-whole) > 1e-9 || self["compile"] < 0.002 {
		t.Errorf("self times %v do not partition the op's %v s", self, whole)
	}
}
