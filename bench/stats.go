package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// sorted and how many samples lie strictly beyond it. A tail percentile
// is only trustworthy when at least ten samples lie beyond it.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// tailLadder is the set of percentiles highestTail picks from.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// highestTail returns the highest percentile of tailLadder that has at
// least minBeyond samples beyond it, its value and that count. ok is false
// when even the median lacks the samples.
func highestTail(sorted []float64, minBeyond int) (p, value float64, beyond int, ok bool) {
	for _, p := range tailLadder {
		v, b := percentile(sorted, p)
		if b >= minBeyond {
			return p, v, b, true
		}
	}
	return 0, math.NaN(), 0, false
}

// median returns the median of xs (mean of the middle pair for even
// lengths) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssBytes reads the process's resident set size from /proc/self/statm.
func rssBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// rssEvery is how often a pass samples its resident set.
const rssEvery = 5 * time.Millisecond

// samplePeakRSS samples the resident set every rssEvery until stop is
// closed, then sends the largest sample on the returned channel.
func samplePeakRSS(stop <-chan struct{}) <-chan int64 {
	out := make(chan int64, 1)
	go func() {
		peak := rssBytes()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				out <- max(peak, rssBytes())
				return
			case <-t.C:
				peak = max(peak, rssBytes())
			}
		}
	}()
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
