// Command snackdse runs the design-space exploration (ROADMAP item 5):
// a grid search over router buffer depth × channel width × VC count ×
// RCU count, each cell scored on measured kernel speedup, zero-load
// snack-vnet latency, and modeled NoC power and area, reported as a
// deterministic Pareto frontier table + figure.
//
// Usage:
//
//	snackdse                                   # default 256-cell grid
//	snackdse -grid buf=1,2,4:chan=16,32:vc=2,4:rcu=16 -j 4
//	snackdse -kernels SGEMM,MAC -dims smoke -out results/dse.txt
//
// The rendered report is byte-identical for any -j value and whether
// or not platforms are pool-recycled (-pool-depth -1 disables the
// pool); wall-clock throughput (cells/second, pool hit/miss traffic)
// goes to stderr only.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"snacknoc/internal/cpu"
	"snacknoc/internal/experiments"
)

func main() {
	grid := flag.String("grid", "", "axes as buf=..:chan=..:vc=..:rcu=.. with comma-separated values (default: the 256-cell standard grid)")
	kernelList := flag.String("kernels", "", "comma-separated kernel subset (default: all four Table III kernels)")
	dims := flag.String("dims", "default", "kernel input sizes: default, paper, or smoke")
	priority := flag.Bool("priority", true, "priority arbitration on every cell")
	jobs := flag.Int("j", 0, "parallel cell workers (0 = all CPUs, 1 = serial)")
	poolDepth := flag.Int("pool-depth", 0, "idle pooled platforms kept per shape (0 = one per worker, -1 = disable pooling)")
	out := flag.String("out", "", "write the report to this file instead of stdout")
	metricsPath := flag.String("metrics", "", "write metrics snapshots (incl. pool gauges) to this file (.csv for CSV)")
	attribOn := flag.Bool("attrib", false, "attach cycle-attribution counters and add a per-cell bottleneck verdict column")
	flag.Parse()
	experiments.SetWorkers(*jobs)

	cfg := experiments.DefaultDSEConfig()
	cfg.Priority = *priority
	cfg.PoolDepth = *poolDepth
	cfg.Attrib = *attribOn
	if *grid != "" {
		axes, err := parseGrid(*grid)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.Axes = axes
	}
	switch *dims {
	case "default":
		cfg.Dims = experiments.DefaultKernelDims()
	case "paper":
		cfg.Dims = experiments.PaperKernelDims()
	case "smoke":
		cfg.Dims = experiments.DSESmokeDims()
	default:
		fatalf("unknown -dims %q (want default, paper, or smoke)", *dims)
	}
	if *kernelList != "" {
		cfg.Kernels = nil
		for _, name := range strings.Split(*kernelList, ",") {
			k, err := kernelByName(strings.TrimSpace(name))
			if err != nil {
				fatalf("%v", err)
			}
			cfg.Kernels = append(cfg.Kernels, k)
		}
	}
	if *metricsPath != "" {
		experiments.EnableMetrics()
	}

	nCells := cfg.Axes.Cells()
	fmt.Fprintf(os.Stderr, "snackdse: %d cells x %d kernels, %d workers\n",
		nCells, len(cfg.Kernels), experiments.Workers())
	start := time.Now()
	res, err := experiments.RunDSE(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	wall := time.Since(start)

	var buf bytes.Buffer
	experiments.RenderDSE(&buf, res)
	if *out != "" {
		if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
			fatalf("%v", err)
		}
	} else {
		os.Stdout.Write(buf.Bytes())
	}
	fmt.Fprintf(os.Stderr,
		"snackdse: %d cells in %.2fs (%.2f cells/s); pool %d hits / %d misses, %d forks avg %.0f ns\n",
		nCells, wall.Seconds(), float64(nCells)/wall.Seconds(),
		res.PoolHits, res.PoolMisses, res.Forks, res.AvgForkNs)
	if *metricsPath != "" {
		if err := experiments.WriteMetrics(*metricsPath); err != nil {
			fatalf("%v", err)
		}
	}
}

// parseGrid decodes "buf=1,2:chan=16,32:vc=2:rcu=16,32" into axes.
func parseGrid(s string) (experiments.DSEAxes, error) {
	axes := experiments.DefaultDSEAxes()
	for _, part := range strings.Split(s, ":") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return axes, fmt.Errorf("bad -grid segment %q (want axis=v1,v2,...)", part)
		}
		var vals []int
		for _, f := range strings.Split(kv[1], ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				return axes, fmt.Errorf("bad -grid value %q in %q", f, part)
			}
			vals = append(vals, n)
		}
		switch kv[0] {
		case "buf":
			axes.BufDepths = vals
		case "chan":
			axes.ChanWidths = vals
		case "vc":
			axes.VCCounts = vals
		case "rcu":
			axes.RCUCounts = vals
		default:
			return axes, fmt.Errorf("unknown -grid axis %q (want buf, chan, vc, rcu)", kv[0])
		}
	}
	return axes, nil
}

func kernelByName(name string) (cpu.KernelName, error) {
	for _, k := range cpu.Kernels() {
		if strings.EqualFold(string(k), name) {
			return k, nil
		}
	}
	return "", fmt.Errorf("unknown kernel %q", name)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "snackdse: "+format+"\n", args...)
	os.Exit(1)
}
