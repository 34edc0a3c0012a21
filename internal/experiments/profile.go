package experiments

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// ProfileSpec names the output paths of the pprof family the binaries
// expose: -cpuprofile, -memprofile, -blockprofile, -mutexprofile. Empty
// paths leave the corresponding profiler off.
type ProfileSpec struct {
	CPU   string
	Mem   string
	Block string // goroutine blocking (sweep-worker and pool waits, channel ops)
	Mutex string // contended mutex holders
}

// StartProfiling turns on the requested profilers. A non-empty CPU path
// starts CPU profiling immediately; block/mutex paths enable the
// runtime's event sampling immediately (rate 1 — exact, the cost only
// matters when the flag is set); mem/block/mutex profiles are written
// when the returned stop function runs. stop must be called (normally
// via defer) before the process exits or the profiles are lost; it is
// safe to call when every path is empty.
func StartProfiling(spec ProfileSpec) (stop func(), err error) {
	var cpuFile *os.File
	if spec.CPU != "" {
		cpuFile, err = os.Create(spec.CPU)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if spec.Block != "" {
		runtime.SetBlockProfileRate(1)
	}
	if spec.Mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	writeLookup := func(name, path string) {
		p := pprof.Lookup(name)
		if p == nil {
			fmt.Fprintf(os.Stderr, "%s profile: unknown profile\n", name)
			return
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s profile: %v\n", name, err)
			return
		}
		defer f.Close()
		if err := p.WriteTo(f, 0); err != nil {
			fmt.Fprintf(os.Stderr, "%s profile: %v\n", name, err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if spec.Mem != "" {
			f, err := os.Create(spec.Mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			} else {
				runtime.GC() // report live heap, not transient garbage
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				}
				f.Close()
			}
		}
		if spec.Block != "" {
			writeLookup("block", spec.Block)
			runtime.SetBlockProfileRate(0)
		}
		if spec.Mutex != "" {
			writeLookup("mutex", spec.Mutex)
			runtime.SetMutexProfileFraction(0)
		}
	}, nil
}
