package experiments

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"snacknoc/internal/cpu"
	"snacknoc/internal/traffic"
)

// These tests pin the simulator's end-to-end determinism: regenerating a
// figure must reproduce the committed results/ artifact byte for byte.
// Any scheduler, allocator, or statistics change that alters arbitration
// order or observation counts — however slightly — fails here before it
// can silently shift the paper's numbers.

func compareArtifact(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if !bytes.Equal(got, want) {
		line := 1
		n := len(got)
		if len(want) < n {
			n = len(want)
		}
		i := 0
		for ; i < n && got[i] == want[i]; i++ {
			if got[i] == '\n' {
				line++
			}
		}
		t.Fatalf("%s: regenerated output diverges at byte %d (line %d); lengths %d vs %d",
			path, i, line, len(got), len(want))
	}
}

func TestFig2RegenerationByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale fig2 regeneration takes tens of seconds")
	}
	res, err := RunFig2(Scale(1.0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderFig2(&buf, res)
	compareArtifact(t, "../../results/fig2.txt", buf.Bytes())
}

func TestFig9RegenerationByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fig9 regeneration runs every kernel on four core counts")
	}
	res, err := RunFig9(DefaultKernelDims(), cpu.DefaultCPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderFig9(&buf, res)
	compareArtifact(t, "../../results/fig9.txt", buf.Bytes())
}

func TestTablesRegenerationByteIdentical(t *testing.T) {
	var buf bytes.Buffer
	RenderTableI(&buf, TableI())
	compareArtifact(t, "../../results/tableI.txt", buf.Bytes())
	buf.Reset()
	RenderTableII(&buf, TableII())
	compareArtifact(t, "../../results/tableII.txt", buf.Bytes())
	buf.Reset()
	RenderTableV(&buf, TableV())
	compareArtifact(t, "../../results/tableV.txt", buf.Bytes())
}

func TestFig10RegenerationByteIdentical(t *testing.T) {
	var buf bytes.Buffer
	RenderFig10(&buf, Fig10())
	compareArtifact(t, "../../results/fig10.txt", buf.Bytes())
}

func TestFig3RegenerationByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale fig3 regeneration simulates Raytrace end to end")
	}
	res, err := RunFig3(Scale(1.0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderFig3(&buf, res)
	compareArtifact(t, "../../results/fig3.txt", buf.Bytes())
}

func TestFig1RegenerationByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale fig1 regeneration sweeps 16 benchmarks x 8 NoC variants")
	}
	res, err := RunFig1(traffic.All(), Scale(1.0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderFig1(&buf, res)
	compareArtifact(t, "../../results/fig1.txt", buf.Bytes())
}

func TestFig11RegenerationByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fig11 regeneration runs the three-leg co-run experiment")
	}
	res, err := RunCoRun(CoRunSpec{
		Bench: traffic.LULESH(), Kernel: cpu.KernelSPMV,
		Dims: DefaultKernelDims(), Width: 4, Height: 4,
		Priority: true, Scale: Scale(1.0),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderFig11(&buf, res)
	compareArtifact(t, "../../results/fig11.txt", buf.Bytes())
}

// The fig12/fig13 regenerations sweep every benchmark against every
// kernel (or mesh size) and take minutes each; they only run when
// SNACKNOC_EQUIV_HEAVY=1 so the tier-1 `go test ./...` pass stays well
// under its timeout. EXPERIMENTS.md lists the full-equivalence command.

func TestFig12RegenerationByteIdentical(t *testing.T) {
	if os.Getenv("SNACKNOC_EQUIV_HEAVY") != "1" {
		t.Skip("set SNACKNOC_EQUIV_HEAVY=1 to run the fig12 full regeneration")
	}
	kernels := cpu.Kernels()
	res, err := RunFig12(traffic.All(), kernels, DefaultKernelDims(), Scale(1.0), []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderFig12(&buf, res, kernels)
	compareArtifact(t, "../../results/fig12.txt", buf.Bytes())
}

// legMemoSlice is the reduced Fig 12 sweep the leg-memo tests run: 2
// apps × 2 kernels × priority off/on, so every baseline leg is shared by
// two kernels and every zero-load leg by two apps.
func legMemoSlice() ([]*traffic.Profile, []cpu.KernelName, []bool) {
	return []*traffic.Profile{traffic.LULESH(), traffic.FMM()},
		[]cpu.KernelName{cpu.KernelMAC, cpu.KernelReduction},
		[]bool{false, true}
}

const legMemoScale = Scale(0.02)

// TestWarmSweepByteIdentical pins the leg memo's guarantee: a sweep
// whose cells share baseline and zero-load legs renders byte-identically
// to the same cells assembled from independent RunCoRun calls, which
// share nothing. It runs under -short at two workers, so the ci.sh race
// pass covers the memo's sharing between concurrent cells. The test and
// its subtest keep their historical names from when the shared-leg
// sweep was the opt-in warm sweep on one engine (one shard).
func TestWarmSweepByteIdentical(t *testing.T) {
	t.Run("shards=0", func(t *testing.T) {
		benches, kernels, modes := legMemoSlice()
		defer SetWorkers(0)
		SetWorkers(2)
		swept, err := RunFig12(benches, kernels, DefaultKernelDims(), legMemoScale, modes)
		if err != nil {
			t.Fatal(err)
		}
		// The same cells, each an independent RunCoRun (no shared memo).
		nk := len(kernels) * len(modes)
		cells := make([]Fig12Cell, len(benches)*nk)
		if err := forEach(len(cells), func(i int) error {
			k, pri := kernels[i%nk/len(modes)], modes[i%len(modes)]
			r, err := RunCoRun(CoRunSpec{
				Bench: benches[i/nk], Kernel: k, Dims: DefaultKernelDims(),
				Width: 4, Height: 4, Priority: pri, Scale: legMemoScale,
			})
			if err != nil {
				return err
			}
			cells[i] = Fig12Cell{
				Kernel: k, Priority: pri, ImpactPct: r.ImpactPct(),
				KernelSlowdownPct: r.KernelSlowdownPct(),
				KernelRuns:        r.KernelRuns, Offloaded: r.Offloaded,
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		alone := &Fig12Result{}
		for bi, b := range benches {
			alone.Rows = append(alone.Rows, Fig12Row{Benchmark: b.Name, Cells: cells[bi*nk : (bi+1)*nk]})
		}
		var want, got bytes.Buffer
		RenderFig12(&want, alone, kernels)
		RenderFig12(&got, swept, kernels)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("memoized sweep diverged from independent co-runs:\nindependent:\n%s\nsweep:\n%s", want.Bytes(), got.Bytes())
		}
		if !reflect.DeepEqual(swept.Rows, alone.Rows) {
			t.Fatal("memoized sweep cells differ from independent co-runs beyond the rendered columns")
		}
	})
}

// TestFig12LegMemoCounts pins how many legs the slice actually
// simulates. A broken memo key would stay byte-identical and silently
// slow; this catches it. A plain sweep runs each distinct baseline
// (app, priority) and zero-load (kernel, priority) leg once; a
// metrics-on sweep runs all three legs in every cell.
func TestFig12LegMemoCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the leg-memo slice twice")
	}
	benches, kernels, modes := legMemoSlice()
	sweep := func(t *testing.T) [3]int64 {
		t.Helper()
		var legs legCounts
		if _, err := runFig12(benches, kernels, DefaultKernelDims(), legMemoScale, modes, &legs); err != nil {
			t.Fatal(err)
		}
		return [3]int64{legs[legBase].Load(), legs[legZero].Load(), legs[legCoRun].Load()}
	}
	if got, want := sweep(t), [3]int64{4, 4, 8}; got != want {
		t.Errorf("plain sweep ran %v base/zero/co-run legs, want %v", got, want)
	}
	defer DisableObservability()
	EnableMetrics()
	if got, want := sweep(t), [3]int64{8, 8, 8}; got != want {
		t.Errorf("metrics-on sweep ran %v base/zero/co-run legs, want %v", got, want)
	}
}

func TestFig13RegenerationByteIdentical(t *testing.T) {
	if os.Getenv("SNACKNOC_EQUIV_HEAVY") != "1" {
		t.Skip("set SNACKNOC_EQUIV_HEAVY=1 to run the fig13 full regeneration")
	}
	res, err := RunFig13(traffic.All(), DefaultKernelDims(), Scale(1.0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderFig13(&buf, res, traffic.All())
	compareArtifact(t, "../../results/fig13.txt", buf.Bytes())
}
