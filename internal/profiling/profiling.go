// Package profiling wires the standard pprof profiles into the CLIs,
// so perf investigations start from a profile instead of a guess:
//
//	lfoc-sim -workload S1 -arrivals poisson:4 -cpuprofile cpu.pb.gz
//	lfoc-bench -table 2 -memprofile mem.pb.gz
//	go tool pprof cpu.pb.gz
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// Start begins CPU profiling (when cpuPath is non-empty) and returns a
// stop function that finishes the CPU profile and writes the heap
// profile (when memPath is non-empty). The stop function is idempotent
// and safe on error paths, so commands can both defer it and call it
// before os.Exit.
func Start(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
		cpuFile = f
	}
	var once sync.Once
	stop := func() {
		once.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			if memPath != "" {
				f, err := os.Create(memPath)
				if err != nil {
					fmt.Fprintln(os.Stderr, "profiling:", err)
					return
				}
				defer f.Close()
				runtime.GC() // materialize the live heap before the snapshot
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, "profiling:", err)
				}
			}
		})
	}
	return stop, nil
}
