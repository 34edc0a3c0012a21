package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"snacknoc/internal/cache"
	"snacknoc/internal/compiler"
	"snacknoc/internal/cpu"
	"snacknoc/internal/experiments"
)

// ---- spans ----

// span is one timed call into a layer. Spans of one op share Op; Parent
// is the enclosing span's ID, or -1 for the op's root span.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"` // seconds since the traced phase began
	End    float64 `json:"end_s"`
}

// tracer keeps the spans of a traced phase in memory. Ops run one at a
// time on one goroutine, so a stack gives each span its parent. A nil
// tracer records nothing.
type tracer struct {
	t0    time.Time
	op    int
	stack []int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// beginOp opens a new op's root span.
func (t *tracer) beginOp(name string) {
	if t == nil {
		return
	}
	t.op++
	t.stack = t.stack[:0]
	t.begin("op:" + name)
}

// endOp closes every span the op left open, its root last.
func (t *tracer) endOp() {
	if t == nil {
		return
	}
	for len(t.stack) > 0 {
		t.end(t.stack[len(t.stack)-1])
	}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, ID: id, Parent: parent,
		Start: time.Since(t.t0).Seconds()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0).Seconds()
	for n := len(t.stack); n > 0; n-- {
		top := t.stack[n-1]
		t.stack = t.stack[:n-1]
		if top == id {
			return
		}
	}
}

// selfTimes sums, per span name, each span's duration minus the part
// its children cover.
func selfTimes(spans []span) map[string]float64 {
	child := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for i, s := range spans {
		self[s.Name] += s.End - s.Start - child[i]
	}
	return self
}

// ---- work counts ----

// layerCounts sums the layers' own counters over the traced rounds. A
// key that never appears is a count the workload cannot measure. A nil
// layerCounts ignores everything.
type layerCounts struct {
	n map[string]float64
}

func newLayerCounts() *layerCounts { return &layerCounts{n: map[string]float64{}} }

func (l *layerCounts) add(key string, v float64) {
	if l != nil {
		l.n[key] += v
	}
}

// snapshotCounters maps a suffix of a stats.Registry metric name to the
// count it adds to. Names are "<component><index>.<metric>", so the
// suffix identifies the metric for any component.
var snapshotCounters = []struct{ suffix, key string }{
	{".xbar.moves.count", "noc.flit_hops"},
	{".attrib.router.active", "noc.router_active"},
	{".attrib.router.vc-stall", "noc.vc_stall_cycles"},
	{".attrib.router.credit-stall", "noc.credit_stall_cycles"},
	{".attrib.ni.backpressure", "noc.ni_backpressure_cycles"},
	{".executed.count", "core.rcu_instrs"},
	{".issued.count", "core.cpm_issued"},
	{".attrib.rcu.operand-wait", "core.rcu_operand_wait_cycles"},
	{".attrib.cpm.throttled", "core.cpm_throttled_cycles"},
	{".offloaded.count", "core.tokens_offloaded"},
	{".busy.replies.count", "core.cpm_busy_replies"},
	{".attrib.engine.evals", "sim.evals"},
	{".attrib.cache.miss-cycles", "cache.miss_cycles"},
}

// addSnapshot folds one simulation's metrics snapshot.
func (l *layerCounts) addSnapshot(values map[string]float64) {
	if l == nil {
		return
	}
	for _, name := range sortedKeys(values) {
		v := values[name]
		for _, c := range snapshotCounters {
			if strings.HasSuffix(name, c.suffix) {
				l.add(c.key, v)
			}
		}
		switch {
		case strings.Contains(name, ".attrib.router."):
			l.add("noc.router_cycles", v)
		case name == "engine.cycle":
			l.add("sim.cycles", v)
		case name == "cache.l1.hitrate":
			// The sweep runner exposes only per-leg rates.
			l.add("cache.l1_rate_sum", v)
			l.add("cache.l1_rate_n", 1)
		case name == "cache.l2.hitrate":
			l.add("cache.l2_rate_sum", v)
			l.add("cache.l2_rate_n", 1)
		}
	}
}

// addSystem folds the exact cache, DRAM and core counters of a CMP run.
func (l *layerCounts) addSystem(sys *cache.System, wl *cpu.Workload) {
	if l == nil {
		return
	}
	for _, c := range sys.L1s {
		l.add("cache.l1_hits", float64(c.Hits()))
		l.add("cache.l1_accesses", float64(c.Hits()+c.Misses()))
	}
	for _, c := range sys.L2s {
		l.add("cache.l2_hits", float64(c.Hits()))
		l.add("cache.l2_accesses", float64(c.Hits()+c.Misses()))
	}
	for _, m := range sys.Mems {
		ctrl := m.Controller()
		l.addMem(ctrl.Accesses(), ctrl.RowHitRate())
	}
	for _, c := range wl.Cores {
		l.add("cpu.instrs_retired", float64(c.Retired()))
		l.add("cpu.stall_cycles", float64(c.StallCycles()))
	}
}

func (l *layerCounts) addMem(accesses int64, rowHitRate float64) {
	l.add("mem.dram_accesses", float64(accesses))
	l.add("mem.row_hits", rowHitRate*float64(accesses))
}

// addPool folds the checkpoint pool traffic of one DSE grid.
func (l *layerCounts) addPool(res *experiments.DSEResult) {
	l.add("checkpoint.forks", float64(res.Forks))
	l.add("checkpoint.fork_ns", float64(res.Forks)*res.AvgForkNs)
	l.add("checkpoint.hits", float64(res.PoolHits))
	l.add("checkpoint.misses", float64(res.PoolMisses))
}

// addCompiles folds a round's compile-cache traffic; the caches were
// reset when the round began.
func (l *layerCounts) addCompiles() {
	h1, m1 := experiments.CompileCacheStats()
	h2, m2 := compiler.CacheStats()
	l.add("compiler.hits", float64(h1+h2))
	l.add("compiler.misses", float64(m1+m2))
}

// ---- host profile ----

// hostBuckets maps a package path to the layer its CPU samples count
// for. Anything unlisted is "other", so the shares sum to 100%.
var hostBuckets = map[string]string{
	"snacknoc/internal/sim":         "sim",
	"snacknoc/internal/noc":         "noc",
	"snacknoc/internal/core":        "core",
	"snacknoc/internal/compiler":    "compiler",
	"snacknoc/internal/dataflow":    "compiler",
	"snacknoc/internal/checkpoint":  "checkpoint",
	"snacknoc/internal/cache":       "cache",
	"snacknoc/internal/mem":         "mem",
	"snacknoc/internal/cpu":         "cpu",
	"snacknoc/internal/traffic":     "traffic",
	"snacknoc/internal/stats":       "stats",
	"snacknoc/internal/experiments": "experiments",
}

var bucketOrder = []string{"sim", "noc", "core", "compiler", "checkpoint", "cache", "mem",
	"cpu", "traffic", "stats", "experiments", "runtime", "other"}

// bucketOf names the layer of a profiled function.
func bucketOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	if b, ok := hostBuckets[pkg]; ok {
		return b
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// goTool returns the go command of the toolchain that built this binary.
func goTool() string {
	g := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(g); err == nil {
		return g
	}
	return "go"
}

// hostShares folds a CPU profile's samples by the package of the leaf
// function and returns each layer's percentage of the total.
func hostShares(profile string) (map[string]float64, error) {
	out, err := exec.Command(goTool(), "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTraces(out)
}

// foldTraces parses `go tool pprof -traces` output. Each sample block
// opens with a separator line; its first line holds the sample value
// and the leaf function.
func foldTraces(out []byte) (map[string]float64, error) {
	byBucket := map[string]float64{}
	total := 0.0
	leaf := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			leaf = true
			continue
		}
		if !leaf {
			continue
		}
		leaf = false
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof sample %q: %w", line, err)
		}
		byBucket[bucketOf(f[1])] += d.Seconds()
		total += d.Seconds()
	}
	if total == 0 {
		return nil, fmt.Errorf("the CPU profile holds no samples")
	}
	shares := map[string]float64{}
	for _, b := range bucketOrder {
		shares[b] = 100 * byBucket[b] / total
	}
	return shares, nil
}

// ---- the traced run ----

// tracedRun is the separate traced run. It repeats untraced rounds for
// half the time, then traced rounds for the other half: spans around
// every layer call, attribution counters, metrics snapshots and a CPU
// profile. Per-layer counts and self times are per round; the tracing
// overhead is the difference of the two halves' median round times.
func (b *bench) tracedRun(w *workload, dur time.Duration) (*record, error) {
	_, setupErr := b.setup(w)
	ref := b.reference(w)
	half := dur / 2
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := b.runRounds(w, half, 0, ref)
	runtime.ReadMemStats(&m1)

	dir := filepath.Join(buildDir(), "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.name, b.seed))
	prof, err := os.Create(stem + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	b.tr, b.layers = newTracer(), newLayerCounts()
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	// Tracing must not change what is simulated: traced rounds of a
	// repeating workload must reproduce the untraced digests.
	var tref []string
	if w.repeats {
		tref = plain.digests
	}
	traced := b.runRounds(w, half, len(plain.walls), tref)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	shares, err := hostShares(prof.Name())
	if err != nil {
		return nil, err
	}
	spans, err := json.Marshal(b.tr.spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(stem+".spans.json", spans, 0o644); err != nil {
		return nil, err
	}

	all := &phase{
		walls:    append(append([]float64(nil), plain.walls...), traced.walls...),
		ops:      append(append([]op(nil), plain.ops...), traced.ops...),
		cycles:   traced.cycles,
		digests:  plain.digests,
		failures: append(append([]string(nil), plain.failures...), traced.failures...),
	}
	if setupErr != nil {
		all.failures = append(all.failures, setupErr.Error())
	}
	rec := newRecord(w, b, all, ref)
	rec.SpansFile, rec.ProfileFile = stem+".spans.json", prof.Name()

	rounds := float64(len(traced.walls))
	plainRounds := float64(len(plain.walls))
	self := selfTimes(b.tr.spans)
	c := b.layers.n
	vals := map[string]float64{
		"trace.overhead_s":    median(traced.walls) - median(plain.walls),
		"runtime.alloc_mb":    float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / plainRounds,
		"runtime.gc_cycles":   float64(m1.NumGC-m0.NumGC) / plainRounds,
		"runtime.gc_pause_ms": float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / plainRounds,
	}
	for _, bucket := range bucketOrder {
		vals[bucket+".host_share"] = shares[bucket]
	}
	perRound := func(name, key string) {
		if v, ok := c[key]; ok {
			vals[name] = v / rounds
		}
	}
	ratio := func(name, num, den string) {
		if d, ok := c[den]; ok && d > 0 {
			vals[name] = c[num] / d
		}
	}
	selfPerRound := func(name string, spanNames ...string) {
		for _, s := range spanNames {
			if v, ok := self[s]; ok {
				vals[name] += v / rounds
			}
		}
	}
	for _, k := range []string{"sim.evals", "noc.flit_hops", "noc.vc_stall_cycles", "noc.credit_stall_cycles",
		"noc.ni_backpressure_cycles", "core.rcu_instrs", "core.cpm_issued", "core.rcu_operand_wait_cycles",
		"core.cpm_throttled_cycles", "core.tokens_offloaded", "core.cpm_busy_replies", "checkpoint.forks",
		"cache.l1_accesses", "cache.miss_cycles", "mem.dram_accesses", "cpu.instrs_retired", "cpu.stall_cycles"} {
		perRound(k, k)
	}
	perRound("compiler.compiles", "compiler.misses")
	// Each miss stores one program in a cache emptied at the round's start.
	perRound("compiler.entries", "compiler.misses")
	if c["compiler.hits"]+c["compiler.misses"] > 0 {
		vals["compiler.cache_hit_ratio"] = c["compiler.hits"] / (c["compiler.hits"] + c["compiler.misses"])
	}
	if _, ok := c["checkpoint.fork_ns"]; ok {
		vals["checkpoint.fork_s"] = c["checkpoint.fork_ns"] / 1e9 / rounds
	}
	if c["checkpoint.hits"]+c["checkpoint.misses"] > 0 {
		vals["checkpoint.pool_hit_ratio"] = c["checkpoint.hits"] / (c["checkpoint.hits"] + c["checkpoint.misses"])
	}
	ratio("sim.evals_per_cycle", "sim.evals", "sim.cycles")
	ratio("noc.router_active_frac", "noc.router_active", "noc.router_cycles")
	ratio("cache.l1_hit_rate", "cache.l1_hits", "cache.l1_accesses")
	ratio("cache.l2_hit_rate", "cache.l2_hits", "cache.l2_accesses")
	if _, ok := vals["cache.l1_hit_rate"]; !ok {
		ratio("cache.l1_hit_rate", "cache.l1_rate_sum", "cache.l1_rate_n")
	}
	if _, ok := vals["cache.l2_hit_rate"]; !ok {
		ratio("cache.l2_hit_rate", "cache.l2_rate_sum", "cache.l2_rate_n")
	}
	ratio("mem.row_hit_rate", "mem.row_hits", "mem.dram_accesses")
	selfPerRound("compiler.self_s", "graph", "compile")
	selfPerRound("core.build_s", "build.platform")
	selfPerRound("stats.collect_s", "stats")

	for _, d := range perLayer {
		v, ok := vals[d.name]
		if !ok {
			rec.Lacking = append(rec.Lacking, d.name)
		}
		rec.Result.Metrics[d.name] = metricValue{v, d.unit}
	}
	return rec, nil
}
