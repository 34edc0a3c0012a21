package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"snacknoc/internal/compiler"
	"snacknoc/internal/experiments"
)

// setupRepeats is how many times a run repeats its set-up; setup_s is
// the median, so one slow repetition does not move it.
const setupRepeats = 5

// bench is the state of one benchmark process.
type bench struct {
	seed uint64
	// tr records spans and layers accumulates work counts; both are nil
	// in untraced rounds, which then run only the default code path.
	tr     *tracer
	layers *layerCounts
	// corrupt flips one simulated output before its check (tests use it
	// to prove a wrong answer is counted as a failure).
	corrupt bool
}

// op is one measured call into the simulator.
type op struct {
	name   string
	ms     float64 // host latency of the timed part
	cycles int64   // simulated cycles the op ran
	digest string  // hash of its simulated statistics
	err    error   // nil when the op returned, finished and checked out
}

// workload is one set of inputs the benchmark runs. A round is a fixed
// unit of work; the timed phase repeats rounds until its time is up.
type workload struct {
	name string
	// seeded reports whether the seed reaches the simulation. When it
	// does not, rounds are identical for every seed and the reference
	// digest holds for all of them.
	seeded bool
	// repeats reports whether every round runs the same inputs, so each
	// op's digest must equal the first round's.
	repeats bool
	params  func() map[string]string
	// warmup runs a little of the workload on inputs the timed rounds
	// never see.
	warmup func(b *bench) error
	round  func(b *bench, n int) []op
	// cyclesPerRound, when set, measures a round's simulated cycles in an
	// extra untimed round, because the sweep function the workload calls
	// does not return them. It also returns that round's digests.
	cyclesPerRound func(b *bench) (int64, []string, error)
}

// runOp calls fn as one op, turning a panic into a failure.
func runOp(name string, fn func(o *op) error) (o op) {
	o.name = name
	defer func() {
		if p := recover(); p != nil {
			o.err = fmt.Errorf("panic: %v", p)
		}
	}()
	if err := fn(&o); err != nil {
		o.err = err
	}
	return o
}

// resetCaches empties the program's compile caches, so every round
// starts as cold as a fresh snackbench or snackdse process. The
// checkpoint pool needs no reset: RunDSE builds a new one per call.
func resetCaches() {
	compiler.ResetCache()
	experiments.ResetCompileCache()
}

// setup repeats the workload's set-up and returns its median duration
// and the first warm-up failure. One set-up is a warm-up on inputs the
// timed phase never sees, followed by the cache reset that keeps the
// timed phase cold.
func (b *bench) setup(w *workload) (float64, error) {
	d := make([]float64, setupRepeats)
	var first error
	for i := range d {
		t := time.Now()
		if err := w.warmup(b); err != nil && first == nil {
			first = fmt.Errorf("set-up: %w", err)
		}
		resetCaches()
		d[i] = time.Since(t).Seconds()
	}
	return median(d), first
}

// phase is the outcome of repeating rounds.
type phase struct {
	walls    []float64 // seconds per round
	ops      []op
	cycles   int64
	digests  []string // first round's op digests
	failures []string
}

// runRounds repeats rounds, starting at round number first, until dur
// has passed (at least one round). Every op is checked: it must have
// returned without error, and on repeating workloads its digest must
// equal the first round's.
func (b *bench) runRounds(w *workload, dur time.Duration, first int, ref []string) *phase {
	p := &phase{}
	start := time.Now()
	for n := first; n == first || time.Since(start) < dur; n++ {
		// Each round starts from cold caches and a collected heap, as a
		// fresh process would, so no round pays for its predecessor's
		// garbage and the heap peaks at the same points every round.
		resetCaches()
		runtime.GC()
		t := time.Now()
		ops := w.round(b, n)
		p.walls = append(p.walls, time.Since(t).Seconds())
		if b.layers != nil {
			b.layers.addCompiles()
		}
		if p.digests == nil {
			p.digests = make([]string, len(ops))
			for i := range ops {
				p.digests[i] = ops[i].digest
			}
		}
		for i := range ops {
			o := &ops[i]
			if o.err == nil && w.repeats && i < len(p.digests) && o.digest != p.digests[i] {
				o.err = fmt.Errorf("digest %s differs from the first round's %s", o.digest, p.digests[i])
			}
			if o.err == nil && ref != nil && n == first && i < len(ref) && o.digest != ref[i] {
				o.err = fmt.Errorf("digest %s differs from the stored reference %s", o.digest, ref[i])
			}
			if o.err != nil {
				p.failures = append(p.failures, fmt.Sprintf("round %d %s: %v", n, o.name, o.err))
			}
			p.cycles += o.cycles
		}
		p.ops = append(p.ops, ops...)
	}
	return p
}

// reference returns the stored digests that hold for this seed, or nil.
func (b *bench) reference(w *workload) []string {
	if w.seeded && b.seed != shippedSeed {
		return nil
	}
	return referenceDigests[w.name]
}

// timedRun is the untraced run: set-up, then the timed phase on the
// default code path, then the end-to-end metrics.
func (b *bench) timedRun(w *workload, dur time.Duration) (*record, error) {
	setupS, setupErr := b.setup(w)
	ref := b.reference(w)
	p := b.runRounds(w, dur, 0, ref)
	if setupErr != nil {
		p.failures = append(p.failures, setupErr.Error())
	}
	rss := peakRSSMiB() // before the cycle-counting round, which keeps metrics
	if w.cyclesPerRound != nil {
		resetCaches()
		perRound, digests, err := w.cyclesPerRound(b)
		if err != nil {
			return nil, fmt.Errorf("counting simulated cycles: %w", err)
		}
		if strings.Join(digests, ",") != strings.Join(p.digests, ",") {
			p.failures = append(p.failures, "the cycle-counting round simulated differently from the timed rounds")
		}
		p.cycles = perRound * int64(len(p.walls))
	}
	rec := newRecord(w, b, p, ref)
	lat := make([]float64, len(p.ops))
	for i := range p.ops {
		lat[i] = p.ops[i].ms
	}
	tail, pct := tailLatency(lat)
	rec.TailPercentile = pct
	rec.OpMedians = opMedians(p.ops)
	m := rec.Result.Metrics
	m["wall_s"] = metricValue{median(p.walls), "s"}
	m["setup_s"] = metricValue{setupS, "s"}
	m["sim_cycles_per_s"] = metricValue{float64(p.cycles) / sum(p.walls), "cycles/s"}
	m["op_p50_ms"] = metricValue{median(lat), "ms"}
	m["op_tail_ms"] = metricValue{tail, "ms"}
	m["peak_rss_mb"] = metricValue{rss, "MiB"}
	return rec, nil
}

// newRecord fills the parts of a record every run shares.
func newRecord(w *workload, b *bench, p *phase, ref []string) *record {
	failed := 0
	for i := range p.ops {
		if p.ops[i].err != nil {
			failed++
		}
	}
	rec := &record{
		Workload:   w.name,
		Seed:       b.seed,
		Trace:      b.tr != nil,
		RoundWalls: p.walls,
		SimCycles:  p.cycles,
		Digests:    p.digests,
		References: ref,
		Failures:   p.failures,
		Result: result{
			Correct:   len(p.failures) == 0,
			Attempted: len(p.ops),
			Failed:    failed,
			Metrics:   map[string]metricValue{},
		},
	}
	if len(p.ops) > 0 {
		rec.OpsFailedFrac = float64(failed) / float64(len(p.ops))
	}
	return rec
}

// opMedians is each op name's median latency in ms.
func opMedians(ops []op) map[string]float64 {
	byName := map[string][]float64{}
	for _, o := range ops {
		byName[o.name] = append(byName[o.name], o.ms)
	}
	out := map[string]float64{}
	for name, xs := range byName {
		out[name] = median(xs)
	}
	return out
}

// hashf hashes a formatted line of simulated statistics.
func hashf(format string, args ...any) string {
	h := sha256.Sum256([]byte(fmt.Sprintf(format, args...)))
	return hex.EncodeToString(h[:8])
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLatency returns the highest percentile of xs with at least ten
// values beyond it, and that percentile. With ten values or fewer no
// percentile qualifies, and it returns the maximum as p100.
func tailLatency(xs []float64) (value, pct float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), 0
	}
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// provenance records how a result was made.
type provenance struct {
	Params  map[string]string `json:"params"`
	Workers int               `json:"workers"`
	// GitRevision comes from the build's VCS stamp; a checkout without
	// git history has none, so SourceSHA256 identifies the code instead.
	GitRevision  string `json:"git_revision"`
	GitModified  bool   `json:"git_modified"`
	SourceSHA256 string `json:"source_sha256"`
	GoVersion    string `json:"go_version"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
}

func collectProvenance(w *workload) provenance {
	p := provenance{
		Params:       w.params(),
		Workers:      experiments.Workers(),
		GitRevision:  "unknown",
		SourceSHA256: sourceDigest("."),
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.GitRevision = s.Value
			case "vcs.modified":
				p.GitModified = s.Value == "true"
			}
		}
	}
	return p
}

// sourceDigest hashes every Go source and module file under root,
// skipping hidden directories (the build directory among them).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
