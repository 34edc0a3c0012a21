// Command perfbench is the repository's benchmark. It drives the
// simulator in-process through the layers' own functions, one workload
// per process, and prints the host-time metrics a user of the simulator
// waits on. Every simulated statistic is a correctness check, never a
// metric: a change that moves one fails the run instead of scoring.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload kernels --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare <base-results-dir> <head-results-dir>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics below; with --trace 1 they are the per-layer
// metrics of a separate traced run. Each run also writes a result file
// with its provenance to --out (see README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units (TestMetricsMatchBenchmarkJSON holds the two equal)
// and adds the regression bound of each end-to-end metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the host-time metrics of an untraced run.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_cycles_per_s", "cycles/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics of a traced run, grouped by layer.
var perLayer = []metricDef{
	{"sim.host_share", "%", ""},
	{"sim.evals", "count", ""},
	{"sim.evals_per_cycle", "ratio", ""},
	{"noc.host_share", "%", ""},
	{"noc.flit_hops", "count", ""},
	{"noc.router_active_frac", "ratio", ""},
	{"noc.vc_stall_cycles", "count", ""},
	{"noc.credit_stall_cycles", "count", ""},
	{"noc.ni_backpressure_cycles", "count", ""},
	{"core.host_share", "%", ""},
	{"core.build_s", "s", ""},
	{"core.rcu_instrs", "count", ""},
	{"core.cpm_issued", "count", ""},
	{"core.rcu_operand_wait_cycles", "count", ""},
	{"core.cpm_throttled_cycles", "count", ""},
	{"core.tokens_offloaded", "count", ""},
	{"core.cpm_busy_replies", "count", ""},
	{"compiler.host_share", "%", ""},
	{"compiler.self_s", "s", ""},
	{"compiler.compiles", "count", ""},
	{"compiler.cache_hit_ratio", "ratio", ""},
	{"compiler.entries", "count", ""},
	{"checkpoint.host_share", "%", ""},
	{"checkpoint.fork_s", "s", ""},
	{"checkpoint.forks", "count", ""},
	{"checkpoint.pool_hit_ratio", "ratio", ""},
	{"cache.host_share", "%", ""},
	{"cache.l1_accesses", "count", ""},
	{"cache.l1_hit_rate", "ratio", ""},
	{"cache.l2_hit_rate", "ratio", ""},
	{"cache.miss_cycles", "count", ""},
	{"mem.host_share", "%", ""},
	{"mem.dram_accesses", "count", ""},
	{"mem.row_hit_rate", "ratio", ""},
	{"cpu.host_share", "%", ""},
	{"cpu.instrs_retired", "count", ""},
	{"cpu.stall_cycles", "count", ""},
	{"traffic.host_share", "%", ""},
	{"stats.host_share", "%", ""},
	{"stats.collect_s", "s", ""},
	{"experiments.host_share", "%", ""},
	{"runtime.host_share", "%", ""},
	{"runtime.alloc_mb", "MiB", ""},
	{"runtime.gc_cycles", "count", ""},
	{"runtime.gc_pause_ms", "ms", ""},
	{"other.host_share", "%", ""},
	{"trace.overhead_s", "s", ""},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the result file of one run: the printed result plus what a
// reader needs to trust and compare it.
type record struct {
	Workload   string     `json:"workload"`
	Seed       uint64     `json:"seed"`
	Trace      bool       `json:"trace"`
	Provenance provenance `json:"provenance"`
	Result     result     `json:"result"`
	// OpsFailedFrac is failed / attempted ops. It is 0 on a healthy
	// commit, so it travels here and in the result's failed count rather
	// than as a bounded metric.
	OpsFailedFrac float64 `json:"ops_failed_frac"`
	// TailPercentile names the percentile op_tail_ms reports: the
	// highest with at least ten ops beyond it.
	TailPercentile float64 `json:"tail_percentile"`
	// OpMedians is each op name's median latency in ms.
	OpMedians  map[string]float64 `json:"op_medians_ms,omitempty"`
	RoundWalls []float64          `json:"round_walls_s"`
	SimCycles  int64              `json:"sim_cycles"`
	// Digests hash each op's simulated statistics in the first round;
	// References are the stored digests they were checked against (none
	// when the seed has none). Two commits simulate alike when their
	// digests for one seed match.
	Digests    []string `json:"digests"`
	References []string `json:"references,omitempty"`
	Failures   []string `json:"failures,omitempty"`
	// Lacking names per-layer metrics the workload cannot measure; they
	// print as 0.
	Lacking []string `json:"lacking,omitempty"`
	// SpansFile and ProfileFile locate a traced run's raw data.
	SpansFile   string `json:"spans_file,omitempty"`
	ProfileFile string `json:"profile_file,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// buildDir is where the run leaves files: run.sh exports it.
func buildDir() string {
	if d := os.Getenv("PERFBENCH_BUILD"); d != "" {
		return d
	}
	return ".bench_build"
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", shippedSeed, "input seed")
	seconds := fs.Int("seconds", 20, "seconds the timed phase measures")
	traceOn := fs.Int("trace", 0, "1: separate traced run reporting per-layer metrics")
	out := fs.String("out", filepath.Join(buildDir(), "results"), "directory for the result file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	b := &bench{seed: *seed}
	dur := time.Duration(*seconds) * time.Second
	var rec *record
	var err error
	if *traceOn == 1 {
		rec, err = b.tracedRun(w, dur)
	} else {
		rec, err = b.timedRun(w, dur)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rec.Provenance = collectProvenance(w)
	path, err := writeRecord(*out, rec)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printReport(stdout, rec, path)
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// printReport writes the human-readable lines that precede the result:
// provenance, every metric by name with its unit, and the checks.
func printReport(w io.Writer, rec *record, path string) {
	p := rec.Provenance
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v workers=%d rev=%s go=%s nproc=%d GOMAXPROCS=%d\n",
		rec.Workload, rec.Seed, rec.Trace, p.Workers, p.GitRevision, p.GoVersion, p.NumCPU, p.GOMAXPROCS)
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := rec.Result.Metrics[d.name]
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  %-30s %14.6g %s\n", "ops_failed_frac", rec.OpsFailedFrac, "ratio")
	if !rec.Trace {
		fmt.Fprintf(w, "  op_tail_ms is p%.1f of %d ops over %d rounds\n",
			rec.TailPercentile, rec.Result.Attempted, len(rec.RoundWalls))
	}
	if len(rec.Lacking) > 0 {
		fmt.Fprintf(w, "  not measured on %s (printed as 0): %s\n", rec.Workload, strings.Join(rec.Lacking, ", "))
	}
	ref := "none stored for this seed"
	if rec.References != nil {
		ref = "stored for this seed"
	}
	fmt.Fprintf(w, "  digests %s (reference %s)\n", strings.Join(rec.Digests, " "), ref)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	fmt.Fprintf(w, "  result file %s\n", path)
}

// writeRecord stores rec as JSON under dir and returns its path.
func writeRecord(dir string, rec *record) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("result dir: %w", err)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v-%d.json", rec.Workload, rec.Seed, rec.Trace, time.Now().UnixNano())
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write result: %w", err)
	}
	return path, nil
}

// readRecords loads every result file in dir.
func readRecords(dir string) ([]*record, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*record
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		out = append(out, &r)
	}
	if len(out) == 0 {
		return nil, errors.New("no result files in " + dir)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seed < out[j].Seed })
	return out, nil
}
