package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"snacknoc/internal/attrib"
	"snacknoc/internal/checkpoint"
	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/noc"
	"snacknoc/internal/power"
	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
)

// Design-space exploration (ROADMAP item 5, after the Kao & Fink
// multi-objective NoC framework): a grid search over router buffer
// depth × channel width × VC count × RCU count, each cell scored on
// four objectives — measured kernel speedup (maximize) and zero-load
// snack-vnet latency, router+SnackNoC power, and area (minimize) — with
// the non-dominated cells reported as the Pareto frontier.
//
// Throughput comes from the pooled forking path: the work queue is one
// item per (cell, kernel) leg, ordered so legs sharing a platform shape
// are adjacent, and a checkpoint.Pool recycles built platforms between
// legs — a steady-state leg rewinds a pooled platform with one Restore
// walk instead of building a mesh, caches, and compute layer from
// scratch. Outputs are deterministic: a forked platform replays exactly
// like a fresh one (the checkpoint determinism guarantee), results are
// assembled by index, and nothing wall-clock-dependent reaches the
// rendered artifact.

// DSEAxes are the swept router/platform resource values.
type DSEAxes struct {
	BufDepths  []int // flits per VC
	ChanWidths []int // channel width, bytes
	VCCounts   []int // VCs per vnet (all three vnets swept together)
	RCUCounts  []int // platform size; maps to a mesh via dseMesh
}

// Cells returns the grid size.
func (a DSEAxes) Cells() int {
	return len(a.BufDepths) * len(a.ChanWidths) * len(a.VCCounts) * len(a.RCUCounts)
}

// DefaultDSEAxes is the standard 256-cell grid.
func DefaultDSEAxes() DSEAxes {
	return DSEAxes{
		BufDepths:  []int{1, 2, 3, 4, 6, 8, 12, 16},
		ChanWidths: []int{8, 16, 32, 64},
		VCCounts:   []int{2, 4, 8, 16},
		RCUCounts:  []int{16, 32},
	}
}

// DSEConfig configures one exploration run.
type DSEConfig struct {
	Axes    DSEAxes
	Kernels []cpu.KernelName
	Dims    KernelDims
	// Priority selects §III-D3 priority arbitration on every cell.
	Priority bool
	// Topology names the mesh family. Only "mesh" exists today; the knob
	// is part of the cell shape key so the pluggable-topology work
	// (ROADMAP item 1) extends the grid without touching the scheduler.
	Topology string
	// PoolDepth bounds idle pooled platforms per shape: 0 means one per
	// worker (the steady-state need), < 0 disables pooling entirely so
	// every leg builds cold (the A side of the determinism tests).
	PoolDepth int
	// Attrib attaches cycle-attribution counters to every cell's
	// platform (before the pool seals it, so forks rewind them) and
	// stamps each cell with its folded bottleneck verdict. The global
	// -attrib switch (EnableAttribution) implies it.
	Attrib bool
}

// DefaultDSEConfig explores the default grid with every Table III
// kernel at reproduction scale.
func DefaultDSEConfig() DSEConfig {
	return DSEConfig{
		Axes:     DefaultDSEAxes(),
		Kernels:  cpu.Kernels(),
		Dims:     DefaultKernelDims(),
		Priority: true,
		Topology: "mesh",
	}
}

// DSESmokeDims are reduced kernel sizes for CI smokes and golden tests:
// every kernel completes in well under a second of wall clock per leg.
func DSESmokeDims() KernelDims {
	return KernelDims{
		SGEMMDim:    12,
		ReduceLen:   2000,
		MACLen:      2000,
		SPMVDim:     24,
		SPMVDensity: 0.30,
	}
}

// DSECell is one evaluated design point.
type DSECell struct {
	BufDepth  int
	ChanWidth int
	VCs       int
	RCUs      int
	Width     int
	Height    int

	// KernelCycles is the measured zero-load completion latency per
	// kernel, in cfg.Kernels order.
	KernelCycles []int64
	// Speedup is the geometric mean over kernels of modeled 1-core CPU
	// cycles / measured SnackNoC cycles (the Fig 9 methodology).
	Speedup float64
	// LatencyCycles is the measured zero-load NoC latency: mean
	// delivered-packet latency of a near-zero-rate uniform-random
	// synthetic probe (cache-line-sized packets) on this cell's idle
	// mesh. Kernel legs cannot stand in for it — zero-load kernel
	// completion is CPM-issue-bound and almost insensitive to router
	// resources, so the probe is what makes channel width and mesh
	// diameter visible to the frontier.
	LatencyCycles float64
	// PowerW/AreaMM model the full NoC: per-node router cost at this
	// cell's resources plus the SnackNoC additions (RCUs + CPM).
	PowerW float64
	AreaMM float64
	// Frontier marks Pareto-optimal cells.
	Frontier bool
	// Verdict is the cell's dominant-bottleneck classification, folded
	// across its kernel legs ("" unless the run attributed). Zero-load
	// kernel cells classify cpm-issue-bound — see LatencyCycles above.
	Verdict string
}

// DSEResult is a completed exploration.
type DSEResult struct {
	Cfg      DSEConfig
	Cells    []DSECell // grid order: rcu-major, then vc, chan, buf
	Frontier []int     // indices of frontier cells, ascending

	// Scheduler/pool traffic. Wall-clock and scheduling dependent —
	// reported on stderr and as stats gauges, never rendered into the
	// deterministic artifact.
	PoolHits   int64
	PoolMisses int64
	Forks      int64
	AvgForkNs  float64
}

// Zero-load probe: low enough that queueing is negligible (the mean
// converges to hop latency + serialization), long enough that every
// node contributes deliveries.
const (
	dseProbeRate   = 0.002
	dseProbeCycles = 4000
)

// dseMesh maps an RCU count to the paper's mesh shapes (Fig 13 family).
func dseMesh(rcus int) (w, h int, err error) {
	switch rcus {
	case 4:
		return 2, 2, nil
	case 8:
		return 4, 2, nil
	case 16:
		return 4, 4, nil
	case 32:
		return 8, 4, nil
	case 64:
		return 8, 8, nil
	case 128:
		return 16, 8, nil
	case 256:
		return 16, 16, nil
	}
	return 0, 0, fmt.Errorf("experiments: no mesh shape for %d RCUs (want 4/8/16/32/64/128/256)", rcus)
}

// dsePlatform is the payload a pool entry carries.
type dsePlatform struct {
	eng  *sim.Engine
	plat *core.Platform
	// rec owns the platform's attribution slabs (nil when off). The
	// slabs are attached before Seal, so every fork rewinds them to
	// zero and a post-run fold reads exactly one leg's counts.
	rec *attrib.Recorder
}

// cellAt decodes a flat grid index (rcu-major, then vc, chan, buf — so
// consecutive indices share a mesh and mostly a shape prefix).
func (a DSEAxes) cellAt(i int) (buf, ch, vc, rcu int) {
	nb, nc, nv := len(a.BufDepths), len(a.ChanWidths), len(a.VCCounts)
	buf = a.BufDepths[i%nb]
	i /= nb
	ch = a.ChanWidths[i%nc]
	i /= nc
	vc = a.VCCounts[i%nv]
	i /= nv
	rcu = a.RCUCounts[i]
	return
}

// RunDSE evaluates the grid and computes its Pareto frontier. Cells run
// on the sweep worker pool (-j N) at kernel-leg granularity; legs
// sharing a platform shape are adjacent in the queue so the platform
// pool converges to one build per shape per worker.
func RunDSE(cfg DSEConfig) (*DSEResult, error) {
	if cfg.Topology == "" {
		cfg.Topology = "mesh"
	}
	if cfg.Topology != "mesh" {
		return nil, fmt.Errorf("experiments: unknown DSE topology %q (ROADMAP item 1 will add more)", cfg.Topology)
	}
	if len(cfg.Kernels) == 0 || cfg.Axes.Cells() == 0 {
		return nil, fmt.Errorf("experiments: empty DSE grid")
	}
	nCells := cfg.Axes.Cells()
	nK := len(cfg.Kernels)

	poolDepth := cfg.PoolDepth
	usePool := poolDepth >= 0
	if poolDepth == 0 {
		poolDepth = Workers() + 1
	}
	pool := checkpoint.NewPool(poolDepth)

	res := &DSEResult{Cfg: cfg, Cells: make([]DSECell, nCells)}
	for i := range res.Cells {
		buf, ch, vc, rcu := cfg.Axes.cellAt(i)
		w, h, err := dseMesh(rcu)
		if err != nil {
			return nil, err
		}
		res.Cells[i] = DSECell{
			BufDepth: buf, ChanWidth: ch, VCs: vc, RCUs: rcu,
			Width: w, Height: h,
			KernelCycles: make([]int64, nK),
		}
	}

	// Modeled single-core CPU cycles per kernel (NoC-independent).
	cpuCfg := cpu.DefaultCPUConfig()
	cpuOne := make([]int64, nK)
	for ki, k := range cfg.Kernels {
		cpuOne[ki] = cpu.CPUKernelCycles(k, cfg.Dims.cpuDims(k), 1, cpuCfg)
	}

	// Per-cell zero-load probe latency, measured once per cell (on the
	// first kernel leg's work item — the probe is its own tiny bare-NoC
	// simulation, independent of the pooled platform).
	cellLat := make([]float64, nCells)

	// Per-leg attribution folds, indexed like the work queue; merged
	// per cell (in kernel order) after the sweep, so worker scheduling
	// cannot reorder the accumulation.
	attribOn := cfg.Attrib || AttribEnabled()
	var legAttrib []map[string]float64
	if attribOn {
		legAttrib = make([]map[string]float64, nCells*nK)
	}

	err := forEach(nCells*nK, func(item int) error {
		ci, ki := item/nK, item%nK
		cell := &res.Cells[ci]
		k := cfg.Kernels[ki]
		prog, err := CompileKernel(k, cfg.Dims, cell.RCUs, Seed)
		if err != nil {
			return err
		}
		shape := fmt.Sprintf("dse/%s/%dx%d/vc%d/buf%d/ch%d/pri%v",
			cfg.Topology, cell.Width, cell.Height, cell.VCs, cell.BufDepth,
			cell.ChanWidth, cfg.Priority)
		build := func() (*checkpoint.Entry, error) {
			eng := sim.NewEngine()
			nc := noc.SnackPlatformCustom(cell.Width, cell.Height, cfg.Priority,
				cell.VCs, cell.BufDepth, cell.ChanWidth)
			plat, err := core.NewStandaloneOn(eng, nc, core.DefaultPlatformConfig())
			if err != nil {
				return nil, err
			}
			var rec *attrib.Recorder
			if attribOn {
				rec = attrib.NewRecorder()
				plat.SetAttrib(rec)
			}
			return pool.Seal(shape, checkpoint.Target{Eng: eng, Net: plat.Net, Plat: plat},
				&dsePlatform{eng: eng, plat: plat, rec: rec}), nil
		}
		var entry *checkpoint.Entry
		if usePool {
			entry, err = pool.Acquire(shape, build)
		} else {
			entry, err = build()
		}
		if err != nil {
			return err
		}
		dp := entry.Payload().(*dsePlatform)
		r, err := dp.plat.Run(prog, 2_000_000_000)
		if err != nil {
			return fmt.Errorf("dse cell %d (%s): %w", ci, shape, err)
		}
		cell.KernelCycles[ki] = r.Cycles()
		if dp.rec != nil {
			// Fold before Release: once pooled again, another worker may
			// rewind and rerun this platform concurrently.
			m := make(map[string]float64)
			dp.rec.FoldInto(m)
			legAttrib[item] = m
		}
		if usePool {
			entry.Release()
		}
		if ki == 0 {
			nc := noc.SnackPlatformCustom(cell.Width, cell.Height, cfg.Priority,
				cell.VCs, cell.BufDepth, cell.ChanWidth)
			pts, err := noc.LoadLatencyCurve(nc, noc.UniformRandom(),
				[]float64{dseProbeRate}, noc.DataBytes, dseProbeCycles, Seed)
			if err != nil {
				return err
			}
			cellLat[ci] = pts[0].AvgLatency
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pool.Drain()

	// Fold legs into cell scores.
	for ci := range res.Cells {
		cell := &res.Cells[ci]
		logSum := 0.0
		for ki := range cfg.Kernels {
			logSum += math.Log(float64(cpuOne[ki]) / float64(cell.KernelCycles[ki]))
		}
		if attribOn {
			merged := make(map[string]float64)
			for ki := 0; ki < nK; ki++ {
				for key, v := range legAttrib[ci*nK+ki] {
					merged[key] += v
				}
			}
			cell.Verdict = attrib.Summarize(merged).Verdict
		}
		cell.Speedup = math.Exp(logSum / float64(nK))
		cell.LatencyCycles = cellLat[ci]
		rc := power.RouterCost(power.RouterParams{
			Ports: 5, VCs: 3 * cell.VCs, BufDepth: cell.BufDepth,
			ChannelBytes: cell.ChanWidth,
		})
		snack := power.SnackNoCTotal(cell.RCUs)
		nodes := float64(cell.RCUs)
		cell.PowerW = rc.PowerW*nodes + snack.PowerW
		cell.AreaMM = rc.AreaMM*nodes + snack.AreaMM
	}

	res.Frontier = paretoFrontier(res.Cells)
	for _, i := range res.Frontier {
		res.Cells[i].Frontier = true
	}

	res.PoolHits, res.PoolMisses = pool.Hits(), pool.Misses()
	res.Forks, res.AvgForkNs = pool.Forks(), pool.AvgForkNs()
	if obsMetricsOn() {
		reg := stats.NewRegistry()
		pool.RegisterMetrics(reg, "dse")
		obsRecord(reg.Snapshot("dse/pool"))
	}
	return res, nil
}

// dominates reports Pareto dominance: a is at least as good as b on
// every objective and strictly better on at least one.
func dominates(a, b *DSECell) bool {
	if a.Speedup < b.Speedup || a.LatencyCycles > b.LatencyCycles ||
		a.PowerW > b.PowerW || a.AreaMM > b.AreaMM {
		return false
	}
	return a.Speedup > b.Speedup || a.LatencyCycles < b.LatencyCycles ||
		a.PowerW < b.PowerW || a.AreaMM < b.AreaMM
}

// paretoFrontier returns the indices of the non-dominated cells in
// ascending order. Membership is a pure function of the cells' scores —
// evaluation order and worker count cannot change it.
func paretoFrontier(cells []DSECell) []int {
	var out []int
	for i := range cells {
		dominated := false
		for j := range cells {
			if i != j && dominates(&cells[j], &cells[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

// RenderDSE writes the deterministic exploration report: the grid
// summary, the Pareto frontier table (sorted by descending speedup,
// ties broken by ascending area then grid index), and an ASCII
// speedup-vs-power figure with frontier cells marked.
func RenderDSE(w io.Writer, res *DSEResult) {
	a := res.Cfg.Axes
	RenderHeader(w, "DSE: Pareto Frontier over Router/Platform Resources")
	fmt.Fprintf(w, "grid: buf%v x chan%v x vc%v x rcu%v = %d cells, topology %s\n",
		a.BufDepths, a.ChanWidths, a.VCCounts, a.RCUCounts, a.Cells(), res.Cfg.Topology)
	kn := make([]string, len(res.Cfg.Kernels))
	for i, k := range res.Cfg.Kernels {
		kn[i] = string(k)
	}
	fmt.Fprintf(w, "kernels: %s; objectives: max speedup, min latency/power/area\n",
		strings.Join(kn, ","))
	fmt.Fprintf(w, "frontier: %d of %d cells\n\n", len(res.Frontier), len(res.Cells))

	order := append([]int(nil), res.Frontier...)
	sort.SliceStable(order, func(x, y int) bool {
		cx, cy := &res.Cells[order[x]], &res.Cells[order[y]]
		if cx.Speedup != cy.Speedup {
			return cx.Speedup > cy.Speedup
		}
		if cx.AreaMM != cy.AreaMM {
			return cx.AreaMM < cy.AreaMM
		}
		return order[x] < order[y]
	})
	hasVerdict := false
	for _, i := range order {
		if res.Cells[i].Verdict != "" {
			hasVerdict = true
			break
		}
	}
	fmt.Fprintf(w, "%-6s %5s %5s %4s %4s %5s  %8s %8s %8s %8s",
		"cell", "rcu", "mesh", "vc", "buf", "chan", "speedup", "lat(cy)", "power(W)", "area(mm2)")
	if hasVerdict {
		fmt.Fprintf(w, "  %s", "verdict")
	}
	fmt.Fprintln(w)
	for _, i := range order {
		c := &res.Cells[i]
		fmt.Fprintf(w, "%-6d %5d %2dx%-2d %4d %4d %5d  %8.2f %8.2f %8.3f %8.3f",
			i, c.RCUs, c.Width, c.Height, c.VCs, c.BufDepth, c.ChanWidth,
			c.Speedup, c.LatencyCycles, c.PowerW, c.AreaMM)
		if hasVerdict {
			fmt.Fprintf(w, "  %s", c.Verdict)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "\nspeedup vs power (W): * frontier, . dominated\n")
	renderDSEFigure(w, res)
}

// renderDSEFigure plots speedup (y) against power (x) on a fixed
// character grid; frontier cells overdraw dominated ones.
func renderDSEFigure(w io.Writer, res *DSEResult) {
	const cols, rows = 64, 16
	minS, maxS := math.Inf(1), math.Inf(-1)
	minP, maxP := math.Inf(1), math.Inf(-1)
	for i := range res.Cells {
		c := &res.Cells[i]
		minS, maxS = math.Min(minS, c.Speedup), math.Max(maxS, c.Speedup)
		minP, maxP = math.Min(minP, c.PowerW), math.Max(maxP, c.PowerW)
	}
	if maxS == minS {
		maxS = minS + 1
	}
	if maxP == minP {
		maxP = minP + 1
	}
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", cols))
	}
	plot := func(c *DSECell, mark byte) {
		x := int(float64(cols-1) * (c.PowerW - minP) / (maxP - minP))
		y := rows - 1 - int(float64(rows-1)*(c.Speedup-minS)/(maxS-minS))
		grid[y][x] = mark
	}
	for i := range res.Cells {
		if !res.Cells[i].Frontier {
			plot(&res.Cells[i], '.')
		}
	}
	for i := range res.Cells {
		if res.Cells[i].Frontier {
			plot(&res.Cells[i], '*')
		}
	}
	for r, line := range grid {
		label := ""
		switch r {
		case 0:
			label = fmt.Sprintf("%.2fx", maxS)
		case rows - 1:
			label = fmt.Sprintf("%.2fx", minS)
		}
		fmt.Fprintf(w, "%8s |%s|\n", label, string(line))
	}
	fmt.Fprintf(w, "%8s  %-*.3f%*.3f\n", "", cols/2, minP, cols-cols/2, maxP)
}
