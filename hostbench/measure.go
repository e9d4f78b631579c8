package main

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// This file holds the host-side measurements: process CPU and memory, and
// the host's steal time and load, read from /proc.

// cpuSeconds is the user+system CPU time the process has used so far.
func cpuSeconds() float64 {
	user, sys := cpuSplit()
	return user + sys
}

// cpuSplit is the process's user and system CPU time so far, in seconds.
func cpuSplit() (user, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime)
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// hostTicks reads the aggregate CPU line of /proc/stat: total and steal
// ticks.
func hostTicks() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// loadAvg is the first three fields of /proc/loadavg.
func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return ""
	}
	return strings.Join(f[:3], " ")
}

// phase brackets a timed phase of a child process: the memory it
// allocates, the system CPU time it spends and the collections it runs.
type phase struct {
	mem      runtime.MemStats
	sys      float64
	sysS     float64
	allocMiB float64
	gcCycles uint32
	gcPause  time.Duration
}

func startPhase() *phase {
	p := &phase{}
	runtime.ReadMemStats(&p.mem)
	_, p.sys = cpuSplit()
	return p
}

func (p *phase) stop() {
	_, sys := cpuSplit()
	p.sysS = sys - p.sys
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.allocMiB = float64(m.TotalAlloc-p.mem.TotalAlloc) / (1 << 20)
	p.gcCycles = m.NumGC - p.mem.NumGC
	p.gcPause = time.Duration(m.PauseTotalNs - p.mem.PauseTotalNs)
}

// retainedMiB forces a collection and returns the live heap.
func retainedMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(idx, 0), len(s)-1)]
}

// median is the midpoint median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// dirUsage counts regular files and their bytes under dir.
func dirUsage(dir string) (files int, bytes int64) {
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files++
		bytes += info.Size()
		return nil
	}) // a partial count is still a usable diagnostic
	return files, bytes
}
