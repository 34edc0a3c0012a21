package experiments

import (
	"bytes"
	"math/rand"
	"testing"

	"snacknoc/internal/cpu"
)

// dseTestConfig is the tiny 3×2×2 grid shared by the golden test and
// the scripts/ci.sh DSE smoke (which regenerates results/dse-smoke.txt
// through cmd/snackdse with the equivalent flags).
func dseTestConfig() DSEConfig {
	cfg := DefaultDSEConfig()
	cfg.Axes = DSEAxes{
		BufDepths:  []int{1, 2, 4},
		ChanWidths: []int{16, 32},
		VCCounts:   []int{2, 4},
		RCUCounts:  []int{16},
	}
	cfg.Kernels = []cpu.KernelName{cpu.KernelMAC}
	cfg.Dims = DSESmokeDims()
	return cfg
}

// TestDSEGoldenByteIdentical pins the rendered report for the tiny grid
// against the committed artifact.
func TestDSEGoldenByteIdentical(t *testing.T) {
	res, err := RunDSE(dseTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderDSE(&buf, res)
	compareArtifact(t, "../../results/dse-smoke.txt", buf.Bytes())
}

// TestDSEInvariantToSchedulingAndPooling is the tentpole determinism
// bar: the rendered report must be byte-identical across worker counts
// and with the platform pool disabled (every leg building cold). This is also the race-detector's route through the pooled fork
// path and the DSE work-queue scheduler (-j 4 legs share pool entries
// across goroutines).
func TestDSEInvariantToSchedulingAndPooling(t *testing.T) {
	cfg := dseTestConfig()
	render := func() []byte {
		res, err := RunDSE(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		RenderDSE(&buf, res)
		return buf.Bytes()
	}
	defer SetWorkers(0)
	SetWorkers(1)
	want := render()

	SetWorkers(4)
	if got := render(); !bytes.Equal(got, want) {
		t.Fatal("-j 4 report diverged from -j 1")
	}
	cfg.PoolDepth = -1 // every leg builds cold
	if got := render(); !bytes.Equal(got, want) {
		t.Fatal("pool-disabled report diverged from pooled report")
	}
}

// TestDSEPoolTraffic checks that the leg scheduler actually recycles
// platforms: with K kernels per cell and serial workers, every cell
// after its first leg must hit the pool.
func TestDSEPoolTraffic(t *testing.T) {
	cfg := dseTestConfig()
	cfg.Kernels = []cpu.KernelName{cpu.KernelMAC, cpu.KernelReduction}
	defer SetWorkers(0)
	SetWorkers(1)
	res, err := RunDSE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cells := int64(cfg.Axes.Cells())
	if res.PoolMisses != cells {
		t.Fatalf("misses = %d, want one build per cell (%d)", res.PoolMisses, cells)
	}
	if res.PoolHits != cells || res.Forks != cells {
		t.Fatalf("hits = %d forks = %d, want one recycled leg per cell (%d)", res.PoolHits, res.Forks, cells)
	}
}

// synthCells builds deterministic pseudo-random score vectors for the
// pure frontier property tests.
func synthCells(n int, seed int64) []DSECell {
	rng := rand.New(rand.NewSource(seed))
	cells := make([]DSECell, n)
	for i := range cells {
		cells[i] = DSECell{
			Speedup:       1 + rng.Float64()*9,
			LatencyCycles: 5 + rng.Float64()*30,
			PowerW:        0.1 + rng.Float64()*2,
			AreaMM:        1 + rng.Float64()*10,
		}
	}
	// Inject exact duplicates and strictly-dominated points.
	for i := 0; i+7 < n; i += 7 {
		cells[i+1] = cells[i]
		d := cells[i]
		d.Speedup *= 0.5
		d.PowerW *= 2
		cells[i+2] = d
	}
	return cells
}

// TestParetoFrontierProperties: the frontier is an antichain, every
// excluded cell is dominated by a frontier member, and membership is
// insensitive to cell evaluation order.
func TestParetoFrontierProperties(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cells := synthCells(100, seed)
		frontier := paretoFrontier(cells)
		if len(frontier) == 0 {
			t.Fatal("empty frontier")
		}
		on := make(map[int]bool, len(frontier))
		for _, i := range frontier {
			on[i] = true
		}
		for _, i := range frontier {
			for _, j := range frontier {
				if i != j && dominates(&cells[j], &cells[i]) {
					t.Fatalf("seed %d: frontier not an antichain (%d dominates %d)", seed, j, i)
				}
			}
		}
		for i := range cells {
			if on[i] {
				continue
			}
			covered := false
			for _, j := range frontier {
				if dominates(&cells[j], &cells[i]) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("seed %d: excluded cell %d not dominated by any frontier member", seed, i)
			}
		}

		// Permute, recompute, map back: same membership set.
		perm := rand.New(rand.NewSource(seed + 100)).Perm(len(cells))
		shuffled := make([]DSECell, len(cells))
		for to, from := range perm {
			shuffled[to] = cells[from]
		}
		got := make(map[int]bool, len(cells))
		for _, i := range paretoFrontier(shuffled) {
			got[perm[i]] = true
		}
		for i := range cells {
			if on[i] != got[i] {
				t.Fatalf("seed %d: frontier membership of cell %d changed under permutation", seed, i)
			}
		}
	}
}
