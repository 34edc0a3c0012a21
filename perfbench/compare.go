package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareMain reports two commits' runs side by side: per workload and
// end-to-end metric, each side's median and quartiles, the pair win
// rate and a verdict by the rules in README.md.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchFile := fs.String("benchmark", "BENCHMARK.json", "file holding each metric's bound")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: perfbench compare [-benchmark BENCHMARK.json] <base-results-dir> <head-results-dir>")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	bounds, err := readBounds(*benchFile)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 1
	}
	base, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 1
	}
	head, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 1
	}
	byWorkload := func(recs []*record) map[string][]*record {
		m := map[string][]*record{}
		for _, r := range recs {
			if !r.Trace {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	bw, hw := byWorkload(base), byWorkload(head)
	fmt.Fprintf(stdout, "%-8s %-17s %-9s %-33s %-33s %7s %5s  %s\n",
		"workload", "metric", "unit", "base median [q1, q3] n", "head median [q1, q3] n", "delta", "wins", "verdict")
	for _, wname := range sortedKeys(bw) {
		hr, ok := hw[wname]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			a, b := metricValues(bw[wname], d.name), metricValues(hr, d.name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			c := compareMetric(a, b, d.better, bounds[d.name])
			fmt.Fprintf(stdout, "%-8s %-17s %-9s %-33s %-33s %+6.1f%% %2d/%-2d  %s\n",
				wname, d.name, d.unit, summary(a), summary(b), 100*c.delta, c.wins, c.pairs, c.verdict)
		}
		failed := 0
		for _, r := range hr {
			failed += r.Result.Failed
		}
		if failed > 0 {
			fmt.Fprintf(stdout, "%-8s head runs had %d failed ops: no gain counts\n", wname, failed)
		}
	}
	return 0
}

// readBounds loads each end-to-end metric's bound from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// metricValues lists one metric over runs, ordered by seed.
func metricValues(recs []*record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func summary(xs []float64) string {
	q := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g] %d", q[1], q[0], q[2], len(xs))
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the
// exclusive method, so spreads read the same as in other tools.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// comparison is one metric's verdict between base and head runs.
type comparison struct {
	delta       float64 // head median vs base median, as a share; positive is worse
	wins, pairs int
	verdict     string
}

// compareMetric applies the benchmark's acceptance rules. Runs pair up
// in seed order. Head improved when it wins at least nine tenths of the
// pairs (ties count for neither) and its median beats the base median
// by more than the base's own quartile spread. Otherwise it is no worse
// when its median is within the bound, unless either side's spread is
// wider than the bound: then the answer is unresolved, except when
// every head run beats every base run, or every head run is worse and
// the medians differ by more than the bound.
func compareMetric(base, head []float64, better string, bound float64) comparison {
	worse := func(x, y float64) bool { // x is worse than y
		if better == "higher" {
			return x < y
		}
		return x > y
	}
	qa, qb := quartiles(base), quartiles(head)
	c := comparison{}
	c.delta = (qb[1] - qa[1]) / qa[1]
	if better == "higher" {
		c.delta = -c.delta
	}
	c.pairs = len(base)
	if len(head) < c.pairs {
		c.pairs = len(head)
	}
	for i := 0; i < c.pairs; i++ {
		if worse(base[i], head[i]) {
			c.wins++
		}
	}
	allBetter, allWorse := true, true
	for _, a := range base {
		for _, b := range head {
			allBetter = allBetter && worse(a, b)
			allWorse = allWorse && worse(b, a)
		}
	}
	spread := func(q [3]float64) float64 { return (q[2] - q[0]) / q[1] }
	switch {
	case c.pairs > 0 && float64(c.wins) >= 0.9*float64(c.pairs) && c.delta < 0 &&
		math.Abs(qb[1]-qa[1]) > qa[2]-qa[0]:
		c.verdict = "improved"
	case allBetter:
		c.verdict = "no worse (every head run is better)"
	case allWorse && c.delta > bound:
		c.verdict = fmt.Sprintf("worse by more than the %.0f%% bound (every head run is worse)", 100*bound)
	case spread(qa) > bound || spread(qb) > bound:
		c.verdict = fmt.Sprintf("unresolved (spread wider than the %.0f%% bound)", 100*bound)
	case c.delta <= bound:
		c.verdict = fmt.Sprintf("no worse within the %.0f%% bound", 100*bound)
	default:
		c.verdict = fmt.Sprintf("worse by more than the %.0f%% bound", 100*bound)
	}
	return c
}
