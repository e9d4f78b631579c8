// Package prof gives the repository's CLIs -cpuprofile and -memprofile
// flags backed by runtime/pprof. Profiles describe host time and memory
// only; nothing here is visible to the simulation.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profile paths named on the command line.
type Flags struct {
	cpu, mem *string
}

// Register defines -cpuprofile and -memprofile on the default flag set.
// Call it before flag.Parse.
func Register() *Flags {
	return &Flags{
		cpu: flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this file"),
		mem: flag.String("memprofile", "", "write a heap profile (runtime/pprof) to this file on exit"),
	}
}

// Start begins CPU profiling when -cpuprofile was given. The returned
// stop ends it and writes the heap profile when -memprofile was given;
// call it before the process exits, since os.Exit skips deferred calls.
// stop reports write failures on stderr.
func (f *Flags) Start() (stop func(), err error) {
	var cpuFile *os.File
	if *f.cpu != "" {
		if cpuFile, err = os.Create(*f.cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			}
		}
		if *f.mem != "" {
			if err := writeHeap(*f.mem); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}
	}, nil
}

// writeHeap writes the heap profile as of the last completed GC cycle,
// after forcing one so the profile is current.
func writeHeap(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
