package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"snacknoc/internal/cpu"
	"snacknoc/internal/traffic"
)

// TestForEachCoversAllIndices: every index runs exactly once at any
// worker count.
func TestForEachCoversAllIndices(t *testing.T) {
	defer SetWorkers(0)
	for _, j := range []int{1, 2, 7} {
		SetWorkers(j)
		var hits [100]int32
		if err := forEach(len(hits), func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		for i, n := range hits {
			if n != 1 {
				t.Fatalf("j=%d: index %d ran %d times", j, i, n)
			}
		}
	}
}

// TestForEachReturnsLowestIndexedError: the reported failure must not
// depend on goroutine scheduling.
func TestForEachReturnsLowestIndexedError(t *testing.T) {
	defer SetWorkers(0)
	for _, j := range []int{1, 4} {
		SetWorkers(j)
		err := forEach(20, func(i int) error {
			if i == 7 || i == 13 {
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 7 failed" {
			t.Fatalf("j=%d: err = %v, want cell 7's error", j, err)
		}
	}
	SetWorkers(1)
	ran := 0
	boom := errors.New("boom")
	err := forEach(10, func(i int) error {
		ran++
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || ran != 4 {
		t.Fatalf("serial error short-circuit: err=%v ran=%d, want boom after 4 cells", err, ran)
	}
}

// TestParallelSweepDeterminism: a sweep's assembled result must be
// deep-equal regardless of worker count. Every cell self-seeds from the
// package Seed constant and owns its whole simulation stack, so the only
// way parallelism could leak into results is through shared state — this
// test is the tripwire for any such leak.
func TestParallelSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two reduced Fig 2 sweeps")
	}
	defer SetWorkers(0)
	SetWorkers(1)
	serial, err := RunFig2(0.05)
	if err != nil {
		t.Fatal(err)
	}
	SetWorkers(4)
	parallel, err := RunFig2(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		for i := range serial.Runs {
			if !reflect.DeepEqual(serial.Runs[i], parallel.Runs[i]) {
				t.Errorf("%s: serial and parallel runs differ", serial.Runs[i].Benchmark)
			}
		}
		t.Fatal("RunFig2 at -j 1 and -j 4 produced different results")
	}
}

// TestParallelCoRunSliceByteIdentical renders a small Fig 12 slice (CMP
// cores, cache hierarchy, DRAM and CPM/RCU kernels on one mesh, priority
// off and on) at one and two workers and requires byte-equal output.
// Two kernels share each baseline leg, so at two workers the cells also
// hand memoized legs between goroutines. It stays enabled under -short,
// so the ci.sh race pass drives two concurrent co-run simulations
// through the full platform stack: any state shared between simulations
// (a pool, the leg memo, a package global) shows up there as a race or
// here as a diff.
func TestParallelCoRunSliceByteIdentical(t *testing.T) {
	benches := []*traffic.Profile{traffic.FMM()}
	kernels := []cpu.KernelName{cpu.KernelReduction, cpu.KernelMAC}
	render := func(workers int) []byte {
		SetWorkers(workers)
		res, err := RunFig12(benches, kernels, DefaultKernelDims(), Scale(0.02), []bool{false, true})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		RenderFig12(&buf, res, kernels)
		return buf.Bytes()
	}
	defer SetWorkers(0)
	serial := render(1)
	if parallel := render(2); !bytes.Equal(parallel, serial) {
		t.Fatalf("-j 2 co-run slice diverged from -j 1:\n-j 1:\n%s\n-j 2:\n%s", serial, parallel)
	}
}
