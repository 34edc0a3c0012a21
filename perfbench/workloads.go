package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"snacknoc/internal/attrib"
	"snacknoc/internal/cache"
	"snacknoc/internal/compiler"
	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/experiments"
	"snacknoc/internal/fixed"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
	"snacknoc/internal/traffic"
)

// shippedSeed is the seed whose digests are stored in refs.go. It is
// the repository's experiment seed.
const shippedSeed = experiments.Seed

// Seed streams: timed ops and warm-up ops draw disjoint inputs.
const (
	timedStream  = 0
	warmupStream = 1
)

// opSeed derives the input seed of one op (a splitmix64 step over the
// run seed, the stream and the op index).
func opSeed(seed uint64, stream, index int) uint64 {
	z := seed + 0x9e3779b97f4a7c15*uint64(1+2*index+stream)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

var workloads = []*workload{kernelsWorkload(), cmpWorkload(), corunWorkload(), dseWorkload()}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func f64(x float64) uint64 { return math.Float64bits(x) }

// ---- kernels: zero-load SnackNoC kernels (the Fig 9 shape) ----

// kernelBudget is about nine times the longest kernel (SGEMM, ~113K
// cycles): a kernel that deadlocks fails within seconds of host time.
const (
	kernelMesh   = 4
	kernelBudget = 1_000_000
)

func kernelsWorkload() *workload {
	dims := experiments.DefaultKernelDims()
	return &workload{
		name:   "kernels",
		seeded: true,
		params: func() map[string]string {
			return map[string]string{
				"kernels":  joinKernels(cpu.Kernels()),
				"dims":     fmt.Sprintf("%+v", dims),
				"mesh":     fmt.Sprintf("%dx%d", kernelMesh, kernelMesh),
				"priority": "true",
				"order":    "serial; op i compiles inputs drawn from (seed, i)",
			}
		},
		warmup: func(b *bench) error {
			for i, k := range cpu.Kernels() {
				if o := kernelOp(b, k, dims, opSeed(b.seed, warmupStream, i)); o.err != nil {
					return o.err
				}
			}
			return nil
		},
		round: func(b *bench, n int) []op {
			ks := cpu.Kernels()
			ops := make([]op, len(ks))
			for i, k := range ks {
				ops[i] = kernelOp(b, k, dims, opSeed(b.seed, timedStream, n*len(ks)+i))
			}
			return ops
		},
	}
}

func joinKernels(ks []cpu.KernelName) string {
	s := make([]string, len(ks))
	for i, k := range ks {
		s[i] = string(k)
	}
	return strings.Join(s, ",")
}

// kernelOp builds one kernel's dataflow graph from seed, compiles it,
// builds a fresh zero-load platform and runs it; the result must match
// the dataflow reference evaluator bit for bit.
func kernelOp(b *bench, k cpu.KernelName, dims experiments.KernelDims, seed uint64) op {
	return runOp(string(k), func(o *op) error {
		b.tr.beginOp(string(k))
		defer b.tr.endOp()
		start := time.Now()
		sp := b.tr.begin("graph")
		g, err := experiments.BuildKernelGraph(k, dims, seed)
		b.tr.end(sp)
		if err != nil {
			return err
		}
		sp = b.tr.begin("compile")
		prog, err := compiler.CompileCached(g, compiler.DefaultConfig(kernelMesh*kernelMesh))
		b.tr.end(sp)
		if err != nil {
			return err
		}
		sp = b.tr.begin("build.platform")
		eng := sim.NewEngine()
		plat, err := core.NewStandalone(eng, kernelMesh, kernelMesh, true, core.DefaultPlatformConfig())
		b.tr.end(sp)
		if err != nil {
			return err
		}
		var rec *attrib.Recorder
		if b.layers != nil {
			rec = attrib.NewRecorder()
			plat.SetAttrib(rec)
		}
		sp = b.tr.begin("run")
		res, err := plat.Run(prog, kernelBudget)
		b.tr.end(sp)
		o.ms = ms(time.Since(start))
		o.cycles = eng.Cycle()
		if err != nil {
			return err
		}

		sp = b.tr.begin("check")
		got := res.Values
		if b.corrupt && len(got) > 0 {
			got = append([]fixed.Q(nil), got...)
			got[0] ^= 1
		}
		err = sameValues(got, g.Eval())
		o.digest = hashf("%s|%d|%s", k, res.Cycles(), valuesHash(got))
		b.tr.end(sp)

		if b.layers != nil {
			sp = b.tr.begin("count")
			reg := stats.NewRegistry()
			plat.RegisterMetrics(reg)
			rec.RegisterMetrics(reg)
			b.layers.addSnapshot(reg.Snapshot(string(k)).Values)
			b.layers.addMem(plat.Mem.Accesses(), plat.Mem.RowHitRate())
			b.tr.end(sp)
		}
		return err
	})
}

func sameValues(got, want []fixed.Q) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, reference has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("result %d is %v, reference %v", i, got[i].Float(), want[i].Float())
		}
	}
	return nil
}

func valuesHash(vs []fixed.Q) string {
	h := sha256.New()
	var buf [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// ---- cmp: CMP applications alone (the Fig 2/3 shape) ----

// cmpApp is one application run on a DAPPER mesh.
type cmpApp struct {
	prof  *traffic.Profile
	w, h  int
	scale float64
}

// Fig 2 samples utilization in 2K-cycle windows at reproduction scale.
// The apps finish in about 100K cycles; the budgets fail a stuck run
// within seconds of host time.
const (
	sampleInterval = 2000
	cmpBudget      = 5_000_000
	drainBudget    = 1_000_000
)

// cmpApps are the four Fig 2 applications on 4×4, low to high load,
// plus one on 8×8. The 8×8 run is scaled so its host time is near the
// 4×4 runs', which keeps the op latency distribution free of a gap the
// tail percentile could fall into.
func cmpApps() []cmpApp {
	return []cmpApp{
		{traffic.FMM(), 4, 4, 0.1},
		{traffic.Cholesky(), 4, 4, 0.1},
		{traffic.LULESH(), 4, 4, 0.1},
		{traffic.Graph500(), 4, 4, 0.1},
		{traffic.LULESH(), 8, 8, 0.0025},
	}
}

func (a cmpApp) name() string { return fmt.Sprintf("%s@%dx%d", a.prof.Name, a.w, a.h) }

func cmpWorkload() *workload {
	return &workload{
		name:    "cmp",
		seeded:  true,
		repeats: true,
		params: func() map[string]string {
			var apps []string
			for _, a := range cmpApps() {
				apps = append(apps, fmt.Sprintf("%s scale %g", a.name(), a.scale))
			}
			return map[string]string{
				"apps":  strings.Join(apps, "; "),
				"noc":   "DAPPER",
				"order": "serial; every round runs the same apps with the run seed",
			}
		},
		warmup: func(b *bench) error {
			return cmpOp(b, cmpApp{traffic.FMM(), 4, 4, 0.02}, opSeed(b.seed, warmupStream, 0)).err
		},
		round: func(b *bench, n int) []op {
			apps := cmpApps()
			ops := make([]op, len(apps))
			for i, a := range apps {
				ops[i] = cmpOp(b, a, b.seed)
			}
			return ops
		},
	}
}

// cmpOp runs one application to completion and collects the Fig 2
// statistics. Once drained, the network must have ejected every packet
// it injected.
func cmpOp(b *bench, a cmpApp, seed uint64) op {
	return runOp(a.name(), func(o *op) error {
		b.tr.beginOp(a.name())
		defer b.tr.endOp()
		start := time.Now()
		sp := b.tr.begin("build.network")
		eng := sim.NewEngine()
		net, err := noc.New(eng, noc.DAPPER(a.w, a.h))
		if err == nil {
			net.EnableSampling(sampleInterval)
		}
		b.tr.end(sp)
		if err != nil {
			return err
		}
		sp = b.tr.begin("build.cache")
		sys, err := cache.NewSystem(eng, net, cache.DefaultSystemConfig())
		b.tr.end(sp)
		if err != nil {
			return err
		}
		var rec *attrib.Recorder
		if b.layers != nil {
			rec = attrib.NewRecorder()
			net.SetAttrib(rec)
			sys.SetAttrib(rec)
			eng.SetAttrib(rec)
		}
		sp = b.tr.begin("build.workload")
		wl, err := cpu.NewWorkload(eng, sys, traffic.Scale(a.prof, a.scale), seed)
		b.tr.end(sp)
		if err != nil {
			return err
		}
		sp = b.tr.begin("run")
		rt, ok := cpu.Run(eng, wl, cmpBudget)
		b.tr.end(sp)
		o.cycles = rt
		if !ok {
			o.ms = ms(time.Since(start))
			return fmt.Errorf("did not finish within %d cycles", cmpBudget)
		}
		sp = b.tr.begin("stats")
		xbar := xbarMedian(net)
		l1, l2 := sys.L1HitRate(), sys.L2HitRate()
		mean := wl.MeanFinish()
		b.tr.end(sp)
		o.ms = ms(time.Since(start))

		// Packets still in flight when the last core retires (writebacks,
		// acknowledgements) must all arrive once the network drains.
		sp = b.tr.begin("check")
		inj := net.TotalInjected()
		o.digest = hashf("%s|%d|%x|%d|%x|%x|%x", a.name(), rt, f64(mean), inj, f64(l1), f64(l2), f64(xbar))
		drained := func() bool { return net.TotalInjected() == net.TotalEjected() }
		if !drained() {
			eng.RunUntil(drained, drainBudget)
		}
		inj, ej := net.TotalInjected(), net.TotalEjected()
		if b.corrupt {
			ej--
		}
		if inj != ej {
			err = fmt.Errorf("network injected %d packets but ejected %d after draining", inj, ej)
		}
		b.tr.end(sp)

		if b.layers != nil {
			sp = b.tr.begin("count")
			reg := stats.NewRegistry()
			net.RegisterMetrics(reg)
			eng.RegisterMetrics(reg)
			rec.RegisterMetrics(reg)
			b.layers.addSnapshot(reg.Snapshot(a.name()).Values)
			b.layers.addSystem(sys, wl)
			b.tr.end(sp)
		}
		return err
	})
}

// xbarMedian is Fig 2a's headline statistic: the median over routers of
// each router's median crossbar usage.
func xbarMedian(net *noc.Network) float64 {
	meds := make([]float64, 0, len(net.Routers()))
	for _, r := range net.Routers() {
		meds = append(meds, stats.Median(r.XbarSeries().Samples()))
	}
	return stats.Median(meds)
}

// ---- corun: a Fig 12 sweep slice ----

// corunScale keeps one sweep to a few seconds on two workers.
const corunScale = 0.02

func corunApps() []*traffic.Profile { return []*traffic.Profile{traffic.LULESH(), traffic.Graph500()} }

func corunWorkload() *workload {
	return &workload{
		name: "corun",
		// RunFig12 seeds every cell with experiments.Seed.
		seeded:  false,
		repeats: true,
		params: func() map[string]string {
			var apps []string
			for _, p := range corunApps() {
				apps = append(apps, p.Name)
			}
			return map[string]string{
				"apps":     strings.Join(apps, ","),
				"kernels":  joinKernels(cpu.Kernels()),
				"dims":     fmt.Sprintf("%+v", experiments.DefaultKernelDims()),
				"mesh":     "4x4",
				"priority": "off,on",
				"scale":    fmt.Sprint(corunScale),
				"seed":     fmt.Sprintf("RunFig12 hard-wires experiments.Seed (%d); --seed does not reach it", experiments.Seed),
			}
		},
		warmup: func(b *bench) error {
			return runOp("warmup", func(*op) error {
				_, err := experiments.RunCoRun(experiments.CoRunSpec{
					Bench: traffic.FMM(), Kernel: cpu.KernelMAC, Dims: experiments.DSESmokeDims(),
					Width: 4, Height: 4, Priority: true, Scale: 0.01,
				})
				return err
			}).err
		},
		round: func(b *bench, n int) []op {
			return []op{corunOp(b, b.layers != nil)}
		},
		cyclesPerRound: func(b *bench) (int64, []string, error) {
			o := corunOp(b, true)
			return o.cycles, []string{o.digest}, o.err
		},
	}
}

// corunOp runs the sweep slice through the sweep runner at its default
// worker count. With observe set it enables the runner's metrics (and,
// in a traced round, attribution) to count simulated cycles and work.
func corunOp(b *bench, observe bool) op {
	return runOp("fig12-slice", func(o *op) error {
		b.tr.beginOp("fig12-slice")
		defer b.tr.endOp()
		if observe {
			experiments.EnableMetrics()
			if b.layers != nil {
				experiments.EnableAttribution(0)
			}
			defer experiments.DisableObservability()
		}
		start := time.Now()
		sp := b.tr.begin("sweep")
		res, err := experiments.RunFig12(corunApps(), cpu.Kernels(), experiments.DefaultKernelDims(),
			corunScale, []bool{false, true})
		b.tr.end(sp)
		o.ms = ms(time.Since(start))
		if err != nil {
			return err
		}
		sp = b.tr.begin("check")
		o.digest = fig12Digest(res, b.corrupt)
		b.tr.end(sp)
		if observe {
			for _, s := range experiments.MetricsSnapshots() {
				o.cycles += int64(s.Values["engine.cycle"])
				b.layers.addSnapshot(s.Values)
			}
		}
		return nil
	})
}

// fig12Digest hashes every simulated number of the sweep.
func fig12Digest(res *experiments.Fig12Result, corrupt bool) string {
	var sb strings.Builder
	for _, row := range res.Rows {
		for _, c := range row.Cells {
			runs := c.KernelRuns
			if corrupt {
				runs++
			}
			fmt.Fprintf(&sb, "%s|%s|%v|%x|%x|%d|%d\n", row.Benchmark, c.Kernel, c.Priority,
				f64(c.ImpactPct), f64(c.KernelSlowdownPct), runs, c.Offloaded)
		}
	}
	return hashf("%s", sb.String())
}

// ---- dse: a Pareto grid through RunDSE ----

func dseConfig() experiments.DSEConfig {
	cfg := experiments.DefaultDSEConfig()
	cfg.Axes = experiments.DSEAxes{
		BufDepths:  []int{1, 2, 4, 8},
		ChanWidths: []int{8, 16, 32, 64},
		VCCounts:   []int{2, 4},
		RCUCounts:  []int{16, 32},
	}
	cfg.Dims = experiments.DSESmokeDims()
	return cfg
}

func dseWorkload() *workload {
	return &workload{
		name: "dse",
		// RunDSE seeds its probe and kernels with experiments.Seed.
		seeded:  false,
		repeats: true,
		params: func() map[string]string {
			cfg := dseConfig()
			return map[string]string{
				"axes":    fmt.Sprintf("%+v", cfg.Axes),
				"cells":   fmt.Sprint(cfg.Axes.Cells()),
				"kernels": joinKernels(cfg.Kernels),
				"dims":    fmt.Sprintf("%+v", cfg.Dims),
				"seed":    fmt.Sprintf("RunDSE hard-wires experiments.Seed (%d); --seed does not reach it", experiments.Seed),
			}
		},
		warmup: func(b *bench) error {
			return runOp("warmup", func(*op) error {
				cfg := dseConfig()
				cfg.Axes = experiments.DSEAxes{BufDepths: []int{3, 6}, ChanWidths: []int{16}, VCCounts: []int{2, 3}, RCUCounts: []int{16, 32}}
				_, err := experiments.RunDSE(cfg)
				return err
			}).err
		},
		round: func(b *bench, n int) []op { return []op{dseOp(b)} },
	}
}

// dseOp evaluates the grid at the sweep runner's default worker count and
// hashes the rendered Pareto report plus every cell's kernel cycles.
func dseOp(b *bench) op {
	return runOp("pareto-grid", func(o *op) error {
		b.tr.beginOp("pareto-grid")
		defer b.tr.endOp()
		start := time.Now()
		sp := b.tr.begin("sweep")
		res, err := experiments.RunDSE(dseConfig())
		b.tr.end(sp)
		o.ms = ms(time.Since(start))
		if err != nil {
			return err
		}
		sp = b.tr.begin("check")
		var buf bytes.Buffer
		experiments.RenderDSE(&buf, res)
		for i := range res.Cells {
			for _, c := range res.Cells[i].KernelCycles {
				o.cycles += c
				fmt.Fprintf(&buf, "%d ", c)
			}
		}
		if b.corrupt {
			buf.WriteByte('!')
		}
		o.digest = hashf("%s", buf.String())
		b.tr.end(sp)
		b.layers.addPool(res)
		return nil
	})
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
