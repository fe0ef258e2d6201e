package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host time on a shared machine moves with the load other tenants put on
// it. On the 2-vCPU machine the benchmark was written on, the throughput of
// ten back-to-back runs of one compute-bound workload spread by 12–28%
// (quartile distance over median), and one pass can run 30% slower than
// the pass before it. Longer runs do not average that out: the machine
// stays slow or fast for minutes.
//
// So every run times a yardstick while its passes run: a fixed kernel
// compiled into the benchmark. It shares no code with the repository, so
// no change to the repository makes it faster or slower. A pass's
// slowdown is the yardstick's time over the pass against yardstickRef,
// and the pass's compute-bound host times are divided by it. On the same
// machine this cut the spread of throughput, latency and CPU time to 2–9%
// in most sets of ten runs, and to at most 15% in the noisiest set seen
// (bench/README.md has the readings). The yardstick runs on its own
// locked thread and is timed in that thread's CPU time, so waiting for a
// processor does not count as slowness.
//
// The latency of a call through the in-process grid is set by the grid's
// lease polling, not by how fast the machine computes: grid-mixed's
// throughput and latencies spread by 1–4% unscaled while the local
// workloads' spread by 12–28%. Scaling them would add the machine's
// swings instead of removing them, so they are kept as measured.

// yardstickEvery is how often the yardstick runs. One run takes about
// half a millisecond of one CPU, 1% of the machine.
const yardstickEvery = 50 * time.Millisecond

// yardstickRef is the CPU time of one yardstick run at the reference
// speed: about its median on the machine the benchmark was written on, an
// Intel Xeon (Sapphire Rapids) KVM guest with 2 vCPUs.
const yardstickRef = 500 * time.Microsecond

// yardstickKernel is the yardstick: a xorshift generator driving
// unpredictable branches and stores into two small tables, so it runs
// from the L1 cache and its own working set is not evicted by the passes
// it shares the processors with. Of the kernels tried (integer
// arithmetic, random walks over 1 MB and 32 MB tables, Go maps and
// sorting), it tracked the simulator's slowdowns best.
func yardstickKernel() uint64 {
	var a, b [256]uint64
	x := uint64(4242)
	for i := 0; i < 40_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&1 != 0 {
			a[x>>56]++
		} else {
			b[x>>56]--
		}
		if x&6 == 2 {
			a[(x>>40)&255] += b[(x>>48)&255]
		}
	}
	return a[3] + b[5]
}

// yardstickSink keeps the kernel's result alive.
var yardstickSink uint64

// yardstick runs the kernel every yardstickEvery until closed and keeps
// each run's start and CPU time.
type yardstick struct {
	mu   sync.Mutex
	at   []time.Time
	took []time.Duration
	stop chan struct{}
	done chan struct{}
}

func startYardstick() *yardstick {
	y := &yardstick{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(y.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t := time.NewTicker(yardstickEvery)
		defer t.Stop()
		for {
			select {
			case <-y.stop:
				return
			case <-t.C:
			}
			at, c0 := time.Now(), threadCPU()
			yardstickSink += yardstickKernel()
			took := threadCPU() - c0
			y.mu.Lock()
			y.at, y.took = append(y.at, at), append(y.took, took)
			y.mu.Unlock()
		}
	}()
	return y
}

// close stops the yardstick and waits for it.
func (y *yardstick) close() {
	close(y.stop)
	<-y.done
}

// slowdown returns the median CPU time of the runs that started between
// from and to, over yardstickRef: 1.25 means the machine ran 25% slower
// than its reference speed. When fewer than three runs started in the
// window, it takes the three nearest. With no runs at all it returns 1.
func (y *yardstick) slowdown(from, to time.Time) float64 {
	y.mu.Lock()
	defer y.mu.Unlock()
	i := sort.Search(len(y.at), func(k int) bool { return !y.at[k].Before(from) })
	j := sort.Search(len(y.at), func(k int) bool { return y.at[k].After(to) })
	for j-i < 3 && (i > 0 || j < len(y.at)) {
		switch {
		case i == 0:
			j++
		case j == len(y.at):
			i--
		case from.Sub(y.at[i-1]) < y.at[j].Sub(to):
			i--
		default:
			j++
		}
	}
	if i == j {
		return 1
	}
	took := make([]float64, 0, j-i)
	for _, d := range y.took[i:j] {
		took = append(took, float64(d))
	}
	return median(took) / float64(yardstickRef)
}

// threadCPU returns the CPU time the calling thread has used. It reads
// the clock directly because getrusage's per-thread times did not advance
// over a half-millisecond yardstick run.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3
