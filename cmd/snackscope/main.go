// Command snackscope renders cycle-attribution bottleneck reports
// (DESIGN.md §13). It has two modes sharing one fold path
// (attrib.Summarize):
//
//	snackscope -metrics run-metrics.json      # fold a dump written with -attrib -metrics
//	snackscope -kernel SGEMM -mesh 4x4        # run a kernel live and report it
//
// The report is a pure function of the counters, so for a fixed kernel,
// mesh, and dims the output is byte-identical across runs and
// machines — scripts/ci.sh pins a golden copy.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"snacknoc/internal/attrib"
	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/experiments"
	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
)

func main() {
	metricsPath := flag.String("metrics", "", "fold attribution counters out of this metrics JSON (written with -attrib -metrics)")
	kernel := flag.String("kernel", "", "run this SnackNoC kernel live: SGEMM, Reduction, MAC, SPMV")
	mesh := flag.String("mesh", "4x4", "mesh dimensions WxH for -kernel")
	dims := flag.String("dims", "default", "kernel input sizes for -kernel: default, paper, or smoke")
	priority := flag.Bool("priority", true, "priority arbitration for -kernel")
	flag.Parse()
	switch {
	case *metricsPath != "" && *kernel != "":
		fatalf("-metrics and -kernel are mutually exclusive")
	case *metricsPath != "":
		fromJSON(*metricsPath)
	case *kernel != "":
		fromKernel(*kernel, *mesh, *dims, *priority)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "snackscope: "+format+"\n", args...)
	os.Exit(1)
}

// fromJSON folds every snapshot in a metrics dump that carries
// attribution counters.
func fromJSON(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	snaps, err := stats.ReadSnapshots(data)
	if err != nil {
		fatalf("%s: %v", path, err)
	}
	reported := 0
	for _, s := range snaps {
		sum := attrib.Summarize(s.Values)
		if len(sum.Layers) == 0 {
			continue
		}
		if reported > 0 {
			fmt.Println()
		}
		sum.Render(os.Stdout, s.Label)
		reported++
	}
	if reported == 0 {
		fatalf("%s: no attribution counters in any snapshot (was the run made with -attrib?)", path)
	}
}

// fromKernel compiles and runs one kernel on a zero-load standalone
// platform with attribution attached, checks the per-cycle sum
// invariant, and reports.
func fromKernel(name, meshSpec, dimsName string, priority bool) {
	var w, h int
	if _, err := fmt.Sscanf(strings.ToLower(meshSpec), "%dx%d", &w, &h); err != nil || w < 2 || h < 2 {
		fatalf("bad mesh %q (want e.g. 4x4)", meshSpec)
	}
	var kd experiments.KernelDims
	switch dimsName {
	case "default":
		kd = experiments.DefaultKernelDims()
	case "paper":
		kd = experiments.PaperKernelDims()
	case "smoke":
		kd = experiments.DSESmokeDims()
	default:
		fatalf("unknown -dims %q (want default, paper, or smoke)", dimsName)
	}
	k := cpu.KernelName(name)
	prog, err := experiments.CompileKernel(k, kd, w*h, experiments.Seed)
	if err != nil {
		fatalf("compile: %v", err)
	}
	eng := sim.NewEngine()
	plat, err := core.NewStandalone(eng, w, h, priority, core.DefaultPlatformConfig())
	if err != nil {
		fatalf("%v", err)
	}
	rec := attrib.NewRecorder()
	plat.SetAttrib(rec)
	if _, err := plat.Run(prog, 1_000_000_000); err != nil {
		fatalf("%v", err)
	}
	values := rec.Fold()
	if err := attrib.CheckTotals(values, eng.Cycle()); err != nil {
		fatalf("%v", err)
	}
	label := fmt.Sprintf("kernel/%s@%dx%d dims=%s", string(k), w, h, dimsName)
	attrib.Summarize(values).Render(os.Stdout, label)
}
