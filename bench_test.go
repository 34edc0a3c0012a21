// Benchmarks regenerating the paper's tables and figures, one per
// artifact (see DESIGN.md's experiment index). Each benchmark runs a
// reduced-scale instance of the corresponding experiment and reports the
// headline statistics as custom metrics, so
//
//	go test -bench=. -benchmem
//
// produces the reproduction numbers recorded in EXPERIMENTS.md. Full-
// scale runs are available through cmd/snackbench.
package snacknoc_test

import (
	"testing"

	"snacknoc/internal/cache"
	"snacknoc/internal/checkpoint"
	"snacknoc/internal/compiler"
	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/experiments"
	"snacknoc/internal/noc"
	"snacknoc/internal/power"
	"snacknoc/internal/sim"
	"snacknoc/internal/traffic"
)

// benchScale keeps the per-iteration cost of the heavy NoC benchmarks
// reasonable under `go test -bench`.
const benchScale = experiments.Scale(0.25)

// BenchmarkFig1ResourceSelection runs the Fig 1 sensitivity study on a
// representative benchmark pair (full 16-benchmark sweep: snackbench
// -exp fig1).
func BenchmarkFig1ResourceSelection(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig1(
			[]*traffic.Profile{traffic.FMM(), traffic.Radix()}, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MaxSlowdown("AxNoC Channel Width / 4"), "max-width/4-slowdown-%")
		b.ReportMetric(res.MaxSlowdown("AxNoC Buffer / 4"), "max-buf/4-slowdown-%")
	}
}

// BenchmarkFig2RouterUsage measures the quartile benchmarks' crossbar
// medians on DAPPER (Fig 2a).
func BenchmarkFig2RouterUsage(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig2(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, run := range res.Runs {
			b.ReportMetric(run.XbarMedianPct, run.Benchmark+"-xbar-median-%")
		}
	}
}

// BenchmarkFig3BufferCDF measures Raytrace's buffer-occupancy CDF.
func BenchmarkFig3BufferCDF(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ZeroOccupancyPct, "zero-occupancy-%")
		b.ReportMetric(res.P99OccupancyPct, "p99-occupancy-%")
	}
}

// BenchmarkTableIIAreaPower evaluates the platform cost model.
func BenchmarkTableIIAreaPower(b *testing.B) {
	b.ReportAllocs()
	var total power.Cost
	for i := 0; i < b.N; i++ {
		total = power.SnackNoCTotal(147)
	}
	b.ReportMetric(total.PowerW, "147-RCU-power-W")
	b.ReportMetric(total.AreaMM, "147-RCU-area-mm2")
}

// BenchmarkFig9KernelSpeedups runs the full kernel study (Fig 9).
func BenchmarkFig9KernelSpeedups(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig9(experiments.DefaultKernelDims(), cpu.DefaultCPUConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.SnackSpeedup, string(row.Kernel)+"-snack-x")
		}
	}
}

// BenchmarkFig10Uncore evaluates the uncore breakdown.
func BenchmarkFig10Uncore(b *testing.B) {
	b.ReportAllocs()
	var bd power.Breakdown
	for i := 0; i < b.N; i++ {
		bd = power.Uncore(power.DefaultUncore())
	}
	b.ReportMetric(bd.PowerPct()[1], "snack-power-share-%")
	b.ReportMetric(bd.AreaPct()[1], "snack-area-share-%")
}

// BenchmarkFig11LuleshSpmvCoRun runs the Fig 11 co-run pair.
func BenchmarkFig11LuleshSpmvCoRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunCoRun(experiments.CoRunSpec{
			Bench: traffic.LULESH(), Kernel: cpu.KernelSPMV,
			Dims: experiments.DefaultKernelDims(), Width: 4, Height: 4,
			Priority: true, Scale: benchScale,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.XbarMedianPct, "corun-xbar-median-%")
		b.ReportMetric(r.ImpactPct(), "lulesh-impact-%")
	}
}

// BenchmarkFig12Interference runs a representative slice of the Fig 12
// matrix (full matrix: snackbench -exp fig12).
func BenchmarkFig12Interference(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig12(
			[]*traffic.Profile{traffic.CoMD(), traffic.Radix()},
			[]cpu.KernelName{cpu.KernelSGEMM, cpu.KernelSPMV},
			experiments.DefaultKernelDims(), benchScale, []bool{true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MaxImpact(true), "max-impact-%")
		b.ReportMetric(res.MaxKernelSlowdown(), "max-kernel-slowdown-%")
	}
}

// BenchmarkFig13Scaling runs the platform-scaling study on one benchmark
// (full sweep: snackbench -exp fig13).
func BenchmarkFig13Scaling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig13(
			[]*traffic.Profile{traffic.LULESH()},
			experiments.DefaultKernelDims(), benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MaxImpact(128), "max-impact-128-nodes-%")
	}
}

// BenchmarkAblationPriorityArbitration quantifies the §III-D3 design
// choice: kernel latency and benchmark impact with and without priority.
func BenchmarkAblationPriorityArbitration(b *testing.B) {
	b.ReportAllocs()
	for _, pri := range []bool{true, false} {
		name := "off"
		if pri {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := experiments.RunCoRun(experiments.CoRunSpec{
					Bench: traffic.Radix(), Kernel: cpu.KernelSGEMM,
					Dims: experiments.DefaultKernelDims(), Width: 4, Height: 4,
					Priority: pri, Scale: benchScale,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.ImpactPct(), "radix-impact-%")
				b.ReportMetric(r.KernelSlowdownPct(), "kernel-slowdown-%")
			}
		})
	}
}

// BenchmarkAblationChainChunking quantifies the §IV-B1 mapping choice
// for reductions: accumulate on one RCU (the paper's "MAC on one RCU"
// option) versus chunking across all RCUs with a final combine.
func BenchmarkAblationChainChunking(b *testing.B) {
	b.ReportAllocs()
	dims := experiments.KernelDims{ReduceLen: 20000, MACLen: 20000, SGEMMDim: 8, SPMVDim: 8, SPMVDensity: 0.3}
	for _, tc := range []struct {
		name     string
		minChunk int
	}{{"chunked", 8}, {"single-rcu", 1 << 30}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			g, err := experiments.BuildKernelGraph(cpu.KernelMAC, dims, experiments.Seed)
			if err != nil {
				b.Fatal(err)
			}
			cfg := compiler.DefaultConfig(16)
			cfg.MinChunk = tc.minChunk
			prog, err := compiler.Compile(g, cfg)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				plat, err := core.NewStandalone(eng, 4, 4, true, core.DefaultPlatformConfig())
				if err != nil {
					b.Fatal(err)
				}
				res, err := plat.Run(prog, 1_000_000_000)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles()), "mac-cycles")
			}
		})
	}
}

// BenchmarkAblationFetchWindow sweeps the CPM's command-stream fetch
// depth, the §III-C1 instruction-buffer sizing argument.
func BenchmarkAblationFetchWindow(b *testing.B) {
	b.ReportAllocs()
	for _, fetch := range []int{4, 16, 48} {
		b.Run(map[int]string{4: "fetch4", 16: "fetch16", 48: "fetch48"}[fetch], func(b *testing.B) {
			b.ReportAllocs()
			prog, err := experiments.CompileKernel(cpu.KernelSGEMM,
				experiments.KernelDims{SGEMMDim: 32, ReduceLen: 8, MACLen: 8, SPMVDim: 8, SPMVDensity: 0.3},
				16, experiments.Seed)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				pc := core.DefaultPlatformConfig()
				pc.CPM.FetchAhead = fetch
				plat, err := core.NewStandalone(eng, 4, 4, true, pc)
				if err != nil {
					b.Fatal(err)
				}
				res, err := plat.Run(prog, 1_000_000_000)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles())/float64(len(prog.Entries)), "cycles-per-instr")
			}
		})
	}
}

// BenchmarkAblationSharedMemChannel quantifies the §IV-C1 design choice
// of pinning SnackNoC memory on a dedicated controller: sharing the
// corner channel with cache traffic inflates both interference
// directions.
func BenchmarkAblationSharedMemChannel(b *testing.B) {
	b.ReportAllocs()
	for _, shared := range []bool{false, true} {
		name := "dedicated"
		if shared {
			name = "shared"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				net, err := noc.New(eng, noc.SnackPlatform(4, 4, true))
				if err != nil {
					b.Fatal(err)
				}
				sys, err := cache.NewSystem(eng, net, cache.DefaultSystemConfig())
				if err != nil {
					b.Fatal(err)
				}
				w, err := cpu.NewWorkload(eng, sys, traffic.Scale(traffic.CoMD(), 0.25), experiments.Seed)
				if err != nil {
					b.Fatal(err)
				}
				pc := core.DefaultPlatformConfig()
				pc.ShareMemChannel = shared
				plat, err := core.AttachToSystem(eng, sys, pc)
				if err != nil {
					b.Fatal(err)
				}
				prog, err := experiments.CompileKernel(cpu.KernelReduction, experiments.DefaultKernelDims(), 16, experiments.Seed)
				if err != nil {
					b.Fatal(err)
				}
				runs := 0
				var kernelCycles int64
				var resubmit func(r *core.Result)
				resubmit = func(r *core.Result) {
					if r != nil {
						runs++
						kernelCycles += r.Cycles()
					}
					if w.Done() {
						return
					}
					eng.ScheduleAfter(1, func() {
						plat.CPM.Submit(prog, eng.Cycle(), resubmit)
					})
				}
				resubmit(nil)
				if _, ok := cpu.Run(eng, w, 500_000_000); !ok {
					b.Fatal("co-run did not finish")
				}
				if runs > 0 {
					b.ReportMetric(float64(kernelCycles)/float64(runs), "kernel-cycles-avg")
				}
				b.ReportMetric(w.MeanFinish(), "bench-mean-finish-cy")
			}
		})
	}
}

// checkpointCycles is how far buildCheckpointSim runs the platform
// before the checkpoint benchmarks snapshot it. BenchmarkCheckpointSave,
// Restore and Fork all measure the platform at this cycle, and the
// scripts/ci.sh BenchmarkCheckpointFork guard compares against figures
// recorded at it.
const checkpointCycles = 8192

// buildCheckpointSim constructs the full co-run platform the checkpoint
// benchmarks operate on — mesh, caches, cores, and RCU/CPM with a
// kernel mid-flight — run to checkpointCycles.
func buildCheckpointSim(b *testing.B) checkpoint.Target {
	b.Helper()
	eng := sim.NewEngine()
	net, err := noc.New(eng, noc.SnackPlatform(4, 4, true))
	if err != nil {
		b.Fatal(err)
	}
	net.EnableSampling(2000)
	sys, err := cache.NewSystem(eng, net, cache.DefaultSystemConfig())
	if err != nil {
		b.Fatal(err)
	}
	w, err := cpu.NewWorkload(eng, sys, traffic.Scale(traffic.LULESH(), 0.25), experiments.Seed)
	if err != nil {
		b.Fatal(err)
	}
	plat, err := core.AttachToSystem(eng, sys, core.DefaultPlatformConfig())
	if err != nil {
		b.Fatal(err)
	}
	prog, err := experiments.CompileKernel(cpu.KernelReduction, experiments.DefaultKernelDims(), 16, experiments.Seed)
	if err != nil {
		b.Fatal(err)
	}
	eng.ScheduleAfter(1, func() {
		plat.CPM.Submit(prog, eng.Cycle(), func(*core.Result) {})
	})
	eng.Run(checkpointCycles)
	return checkpoint.Target{Eng: eng, Net: net, Sys: sys, Work: w, Plat: plat}
}

// BenchmarkCheckpointSave measures one deep snapshot of a running
// platform (every layer: engine, NoC, caches, cores, RCUs/CPM).
func BenchmarkCheckpointSave(b *testing.B) {
	tgt := buildCheckpointSim(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checkpoint.Take(tgt)
	}
}

// BenchmarkCheckpointRestore measures one fork: writing a saved
// snapshot back onto the live platform.
func BenchmarkCheckpointRestore(b *testing.B) {
	tgt := buildCheckpointSim(b)
	st := checkpoint.Take(tgt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Restore()
	}
}

// BenchmarkPlatformBuild measures constructing the baseline platform
// from scratch — the work a pooled fork skips.
func BenchmarkPlatformBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		net, err := noc.New(eng, noc.SnackPlatform(4, 4, true))
		if err != nil {
			b.Fatal(err)
		}
		net.EnableSampling(2000)
		sys, err := cache.NewSystem(eng, net, cache.DefaultSystemConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cpu.NewWorkload(eng, sys, traffic.Scale(traffic.LULESH(), 0.25), experiments.Seed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointFork measures the pooled steady-state cell path on
// the running co-run platform: Get + Fork (one arena-backed Restore
// walk) + Release. The BENCH_8-era per-cell cost this replaces is
// PlatformBuild + CheckpointSave + CheckpointRestore — build plus the
// double-clone rule's two deep copies.
func BenchmarkCheckpointFork(b *testing.B) {
	tgt := buildCheckpointSim(b)
	pool := checkpoint.NewPool(1)
	pool.Seal("bench/4x4", tgt, nil).Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := pool.Get("bench/4x4")
		if e == nil {
			b.Fatal("pool miss")
		}
		e.Fork()
		e.Release()
	}
}

// BenchmarkDSECell measures one steady-state DSE kernel leg: rewind a
// pooled zero-load platform with one fork and run the MAC kernel at the
// DSE smoke size (the scripts/bench.sh cells/second column measures the
// full driver through cmd/snackdse instead).
func BenchmarkDSECell(b *testing.B) {
	eng := sim.NewEngine()
	plat, err := core.NewStandalone(eng, 4, 4, true, core.DefaultPlatformConfig())
	if err != nil {
		b.Fatal(err)
	}
	pool := checkpoint.NewPool(1)
	pool.Seal("dse/4x4", checkpoint.Target{Eng: eng, Net: plat.Net, Plat: plat}, plat).Release()
	prog, err := experiments.CompileKernel(cpu.KernelMAC, experiments.DSESmokeDims(), 16, experiments.Seed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := pool.Get("dse/4x4")
		if e == nil {
			b.Fatal("pool miss")
		}
		e.Fork()
		if _, err := plat.Run(prog, 2_000_000_000); err != nil {
			b.Fatal(err)
		}
		e.Release()
	}
}

// BenchmarkFig12Slice runs a reduced Fig 12 sweep end to end on one
// worker, so ns/op counts every simulated leg: each distinct baseline
// and zero-load leg once (the sweep's leg memo) plus one co-run leg per
// cell. Compile caches are reset per iteration.
func BenchmarkFig12Slice(b *testing.B) {
	experiments.SetWorkers(1)
	defer experiments.SetWorkers(0)
	benches := []*traffic.Profile{traffic.CoMD(), traffic.Radix()}
	kernels := []cpu.KernelName{cpu.KernelSGEMM, cpu.KernelSPMV}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.ResetCompileCache()
		res, err := experiments.RunFig12(benches, kernels,
			experiments.DefaultKernelDims(), benchScale, []bool{true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MaxImpact(true), "max-impact-%")
	}
}

// BenchmarkNoCSaturation measures raw simulator throughput on a loaded
// mesh (engineering metric, not a paper artifact).
func BenchmarkNoCSaturation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run, err := experiments.RunBenchmark(noc.DAPPER(4, 4), traffic.Radix(), 0.1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(run.Runtime), "sim-cycles")
	}
}
