package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of sorted xs (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	return sorted[min(i, len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n == 0 {
		return 0
	} else if n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencySummary is the timing of one window.
type latencySummary struct {
	N         int     // samples that completed inside the window
	Slices    int     // slices the medians below are taken over
	ReqPerS   float64 // median over slices of completions per second
	P50Ms     float64 // median over slices of the slice's p50
	P99Ms     float64 // median over slices of the slice's p99
	P999Ms    float64 // whole window; a diagnostic, not a gated metric
	LateShare float64
}

// minSliceSamples is the fewest samples a slice should hold for its p99
// to have ten samples beyond it.
const minSliceSamples = 1000

// summarize reduces a window's samples to its end-to-end numbers. The
// window is cut into equal slices of at least a second, each with at
// least minSliceSamples samples where the rate allows; throughput, p50
// and p99 are computed per slice and the median slice is reported. One
// stalled second (a noisy neighbour, a long GC) then moves one slice,
// not the run's number — which is what makes two runs of one commit
// agree within the bounds on a shared two-core box.
func summarize(samples []sample, window time.Duration) latencySummary {
	var in []sample
	for _, s := range samples {
		if s.End <= window {
			in = append(in, s)
		}
	}
	sum := latencySummary{N: len(in)}
	if len(in) == 0 {
		return sum
	}
	slices := max(1, min(int(window/time.Second), len(in)/minSliceSamples))
	sliceLen := window / time.Duration(slices)
	bySlice := make([][]float64, slices)
	all := make([]float64, 0, len(in))
	late := 0
	for _, s := range in {
		k := min(int(s.End/sliceLen), slices-1)
		bySlice[k] = append(bySlice[k], ms(s.Lat))
		all = append(all, ms(s.Lat))
		if s.Late {
			late++
		}
	}
	var rate, p50, p99 []float64
	for _, lat := range bySlice {
		if len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		rate = append(rate, float64(len(lat))/sliceLen.Seconds())
		p50 = append(p50, quantile(lat, 0.50))
		p99 = append(p99, quantile(lat, 0.99))
	}
	sort.Float64s(all)
	sum.Slices = len(rate)
	sum.ReqPerS, sum.P50Ms, sum.P99Ms = median(rate), median(p50), median(p99)
	sum.P999Ms = quantile(all, 0.999)
	sum.LateShare = float64(late) / float64(len(in))
	return sum
}

// classLatencies returns each class's whole-window p50 and p99 in ms.
func classLatencies(samples []sample) (p50, p99 [numClasses]float64) {
	var by [numClasses][]float64
	for _, s := range samples {
		by[s.Class] = append(by[s.Class], ms(s.Lat))
	}
	for c := range by {
		sort.Float64s(by[c])
		p50[c], p99[c] = quantile(by[c], 0.50), quantile(by[c], 0.99)
	}
	return p50, p99
}

// usage is a snapshot of what the process has consumed.
type usage struct {
	CPU       time.Duration // user + system
	Alloc     uint64
	Mallocs   uint64
	GCs       uint32
	GCPauseNs uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		CPU:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		Alloc:     m.TotalAlloc,
		Mallocs:   m.Mallocs,
		GCs:       m.NumGC,
		GCPauseNs: m.PauseTotalNs,
	}
}

// put stores the runtime.* metrics of a window of `ops` operations.
func (u usage) put(m map[string]float64, ops float64) {
	m["runtime.cpu_ms_per_op"] = ms(u.CPU) / ops
	m["runtime.alloc_bytes_per_op"] = float64(u.Alloc) / ops
	m["runtime.mallocs_per_op"] = float64(u.Mallocs) / ops
	m["runtime.gc_cycles"] = float64(u.GCs)
	m["runtime.gc_pause_total_ms"] = float64(u.GCPauseNs) / 1e6
}

func (u usage) sub(o usage) usage {
	return usage{u.CPU - o.CPU, u.Alloc - o.Alloc, u.Mallocs - o.Mallocs, u.GCs - o.GCs, u.GCPauseNs - o.GCPauseNs}
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// medianCall times n calls of fn one by one and returns the median, in
// microseconds.
func medianCall(n int, fn func(i int)) float64 {
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		fn(i)
		us[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	return median(us)
}
