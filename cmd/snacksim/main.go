// Command snacksim drives a single simulation: either one Table III
// benchmark on a chosen NoC configuration (reporting the utilization
// measurements of §II-A), or one linear-algebra kernel on a standalone
// SnackNoC platform (reporting the §V-B kernel statistics).
//
// Usage:
//
//	snacksim -bench LULESH -noc DAPPER -scale 0.5
//	snacksim -kernel SGEMM -mesh 4x4
//	snacksim -bench Radix -kernel SPMV          # co-run both
//	snacksim -synthetic uniform -noc BiNoCHS    # load-latency curve
//	snacksim -kernel SGEMM -trace sgemm.json -metrics sgemm-metrics.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/experiments"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
	"snacknoc/internal/traffic"
)

func main() {
	bench := flag.String("bench", "", "Table III benchmark to run on the CMP cores")
	synthetic := flag.String("synthetic", "", "synthetic pattern: uniform, transpose, bitcomp, hotspot")
	kernel := flag.String("kernel", "", "SnackNoC kernel: SGEMM, Reduction, MAC, SPMV")
	nocName := flag.String("noc", "DAPPER", "NoC for benchmark-only runs: DAPPER, AxNoC, BiNoCHS")
	mesh := flag.String("mesh", "4x4", "mesh dimensions WxH")
	scale := flag.Float64("scale", 1.0, "benchmark instruction-budget scale")
	priority := flag.Bool("priority", true, "priority arbitration (snack runs)")
	jobs := flag.Int("j", 0, "parallel sweep workers (0 = all CPUs, 1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	blockprofile := flag.String("blockprofile", "", "write a pprof goroutine-blocking profile to this file on exit (sweep-worker and pool waits)")
	mutexprofile := flag.String("mutexprofile", "", "write a pprof contended-mutex profile to this file on exit")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the simulation to this file")
	traceLast := flag.Int("trace-last", 0, "with -trace, keep only the newest N events per simulation")
	metricsPath := flag.String("metrics", "", "write metrics snapshots to this file (.csv for CSV)")
	attribOn := flag.Bool("attrib", false, "attach cycle-attribution counters and print a bottleneck report to stderr")
	attribInterval := flag.Int64("attrib-interval", 0, "with -attrib, sample windowed per-reason deltas every N cycles (exported as attrib.series.* and as trace counter tracks)")
	flag.Parse()
	experiments.SetWorkers(*jobs)
	if *traceLast > 0 && *tracePath == "" {
		fatalf("-trace-last requires -trace")
	}
	if *tracePath != "" {
		experiments.EnableTracing(*traceLast)
	}
	if *metricsPath != "" {
		experiments.EnableMetrics()
	}
	if *attribInterval != 0 && !*attribOn {
		fatalf("-attrib-interval requires -attrib")
	}
	if *attribOn {
		experiments.EnableAttribution(*attribInterval)
	}
	stopProf, err := experiments.StartProfiling(experiments.ProfileSpec{
		CPU: *cpuprofile, Mem: *memprofile, Block: *blockprofile, Mutex: *mutexprofile,
	})
	if err != nil {
		fatalf("%v", err)
	}
	defer stopProf()

	w, h := parseMesh(*mesh)
	switch {
	case *synthetic != "":
		loadLatency(*synthetic, *nocName, w, h)
	case *bench != "" && *kernel != "":
		corun(*bench, *kernel, w, h, *priority, *scale)
	case *bench != "":
		benchmark(*bench, *nocName, w, h, *scale)
	case *kernel != "":
		runKernel(*kernel, w, h, *priority)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if *tracePath != "" {
		if err := experiments.WriteTrace(*tracePath); err != nil {
			fatalf("%v", err)
		}
	}
	if *metricsPath != "" {
		if err := experiments.WriteMetrics(*metricsPath); err != nil {
			fatalf("%v", err)
		}
	}
	if *attribOn {
		for _, s := range experiments.AttribSummaries() {
			s.Summary.Render(os.Stderr, s.Label)
			fmt.Fprintln(os.Stderr)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "snacksim: "+format+"\n", args...)
	os.Exit(1)
}

func parseMesh(s string) (int, int) {
	var w, h int
	if _, err := fmt.Sscanf(strings.ToLower(s), "%dx%d", &w, &h); err != nil || w < 2 || h < 2 {
		fatalf("bad mesh %q (want e.g. 4x4)", s)
	}
	return w, h
}

func nocConfig(name string, w, h int) *noc.Config {
	switch strings.ToLower(name) {
	case "dapper":
		return noc.DAPPER(w, h)
	case "axnoc":
		return noc.AxNoC(w, h)
	case "binochs":
		return noc.BiNoCHS(w, h)
	}
	fatalf("unknown NoC %q", name)
	return nil
}

func benchmark(name, nocName string, w, h int, scale float64) {
	prof := traffic.ByName(name)
	if prof == nil {
		fatalf("unknown benchmark %q; available: %v", name, benchNames())
	}
	cfg := nocConfig(nocName, w, h)
	fmt.Printf("running %s on %s (%dx%d mesh, scale %.2f)...\n", name, cfg.Name, w, h, scale)
	run, err := experiments.RunBenchmark(cfg, prof, experiments.Scale(scale))
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("runtime:                 %d cycles\n", run.Runtime)
	fmt.Printf("crossbar median / peak:  %5.2f%% / %5.2f%%\n", run.XbarMedianPct, run.XbarMaxPct)
	fmt.Printf("link median / peak:      %5.2f%% / %5.2f%%\n", run.LinkMedianPct, run.LinkMaxPct)
	fmt.Printf("L1 hit rate:             %5.3f\n", run.L1HitRate)
	fmt.Printf("L2 hit rate:             %5.3f\n", run.L2HitRate)
	zero, p99 := 0.0, 0.0
	if len(run.BufferCDF) > 0 {
		zero = run.BufferCDF[0].Prob * 100
		for _, pt := range run.BufferCDF {
			if pt.Prob >= 0.99 {
				p99 = pt.Value * 100
				break
			}
		}
	}
	fmt.Printf("buffers empty:           %5.2f%% of cycles (p99 occupancy %.1f%%)\n", zero, p99)
}

func runKernel(name string, w, h int, priority bool) {
	k := cpu.KernelName(name)
	prog, err := experiments.CompileKernel(k, experiments.DefaultKernelDims(), w*h, experiments.Seed)
	if err != nil {
		fatalf("compile: %v", err)
	}
	eng := sim.NewEngine()
	plat, err := core.NewStandalone(eng, w, h, priority, core.DefaultPlatformConfig())
	if err != nil {
		fatalf("%v", err)
	}
	label := fmt.Sprintf("kernel/%s@%dx%d", name, w, h)
	tr := experiments.ObserveTracer(label)
	plat.SetTracer(tr)
	rec := experiments.ObserveRecorder()
	plat.SetAttrib(rec)
	experiments.ObserveSampling(rec, eng, tr)
	fmt.Printf("running %s on a zero-load %dx%d SnackNoC (%d entries)...\n",
		name, w, h, len(prog.Entries))
	res, err := plat.Run(prog, 1_000_000_000)
	if err != nil {
		fatalf("%v", err)
	}
	if experiments.MetricsEnabled() || rec != nil {
		reg := stats.NewRegistry()
		plat.RegisterMetrics(reg)
		experiments.RegisterRunMetrics(reg, rec, tr)
		experiments.RecordSnapshot(reg.Snapshot(label))
	}
	fmt.Printf("kernel latency:      %d cycles (%.2f cycles/entry)\n",
		res.Cycles(), float64(res.Cycles())/float64(len(prog.Entries)))
	fmt.Printf("instructions issued: %d\n", plat.CPM.Issued())
	fmt.Printf("results:             %d values\n", len(res.Values))
	var captured int64
	maxBuf := 0
	for _, r := range plat.RCUs {
		captured += r.Captured()
		if r.MaxBuffered() > maxBuf {
			maxBuf = r.MaxBuffered()
		}
	}
	fmt.Printf("token captures:      %d\n", captured)
	fmt.Printf("max RCU buffering:   %d instructions\n", maxBuf)
	fmt.Printf("tokens offloaded:    %d\n", plat.CPM.Offloaded())
}

func corun(benchName, kernelName string, w, h int, priority bool, scale float64) {
	prof := traffic.ByName(benchName)
	if prof == nil {
		fatalf("unknown benchmark %q; available: %v", benchName, benchNames())
	}
	fmt.Printf("co-running %s with %s on a %dx%d mesh (priority=%v, scale %.2f)...\n",
		benchName, kernelName, w, h, priority, scale)
	r, err := experiments.RunCoRun(experiments.CoRunSpec{
		Bench: prof, Kernel: cpu.KernelName(kernelName),
		Dims: experiments.DefaultKernelDims(), Width: w, Height: h,
		Priority: priority, Scale: experiments.Scale(scale),
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("benchmark impact:    %+.3f%%\n", r.ImpactPct())
	fmt.Printf("kernel runs:         %d (avg %.0f cycles)\n", r.KernelRuns, r.KernelCyclesAvg)
	fmt.Printf("kernel slowdown:     %+.2f%% over zero load (%d cycles)\n",
		r.KernelSlowdownPct(), r.ZeroLoadCycles)
	fmt.Printf("co-run xbar median:  %.2f%%\n", r.XbarMedianPct)
	fmt.Printf("tokens offloaded:    %d\n", r.Offloaded)
}

// loadLatency sweeps injection rates for a synthetic pattern and prints
// the classic NoC load-latency characterization curve.
func loadLatency(patName, nocName string, w, h int) {
	var pat noc.Pattern
	switch strings.ToLower(patName) {
	case "uniform":
		pat = noc.UniformRandom()
	case "transpose":
		pat = noc.Transpose()
	case "bitcomp":
		pat = noc.BitComplement()
	case "hotspot":
		pat = noc.Hotspot(0, 30)
	default:
		fatalf("unknown pattern %q", patName)
	}
	cfg := nocConfig(nocName, w, h)
	rates := []float64{0.01, 0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.45, 0.60}
	fmt.Printf("load-latency curve: %s traffic on %s (%dx%d), %d-byte packets\n",
		pat.Name, cfg.Name, w, h, noc.DataBytes)
	pts, err := noc.LoadLatencyCurve(cfg, pat, rates, noc.DataBytes, 30000, 3)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%8s %12s %14s %10s\n", "rate", "avg-lat(cy)", "thruput(pkt/n/cy)", "saturated")
	for _, p := range pts {
		fmt.Printf("%8.2f %12.1f %14.3f %10v\n", p.Rate, p.AvgLatency, p.Throughput, p.Saturated)
	}
}

func benchNames() []string {
	var names []string
	for _, p := range traffic.All() {
		names = append(names, p.Name)
	}
	return names
}
