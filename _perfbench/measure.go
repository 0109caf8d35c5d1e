package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Linux CPU clocks. CLOCK_PROCESS_CPUTIME_ID is user + system time of
// every thread of the process, so garbage-collector workers count;
// CLOCK_THREAD_CPUTIME_ID is the calling thread's alone. Neither counts
// time the host steals from the VM.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// cpuNow returns the process CPU clock.
func cpuNow() time.Duration { return cpuClock(clockProcessCPUTime) }

// threadCPUNow returns the calling thread's CPU clock; the caller must
// hold its goroutine on the thread (runtime.LockOSThread) between reads.
func threadCPUNow() time.Duration { return cpuClock(clockThreadCPUTime) }

// peakRSSMiB returns the process's maximum resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// totalAllocMiB returns the bytes allocated on the heap since start.
func totalAllocMiB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// gcClock samples the runtime's estimate of CPU spent in the garbage
// collector and in user Go code.
type gcClock struct{ gc, user float64 }

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/user:cpu-seconds"},
}

func readGCClock() gcClock {
	metrics.Read(gcSamples)
	var c gcClock
	if gcSamples[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = gcSamples[0].Value.Float64()
	}
	if gcSamples[1].Value.Kind() == metrics.KindFloat64 {
		c.user = gcSamples[1].Value.Float64()
	}
	return c
}

// gcFrac is the collector's share of GC + user CPU between two samples.
func gcFrac(a, b gcClock) float64 {
	gc, user := b.gc-a.gc, b.user-a.user
	if gc+user <= 0 {
		return 0
	}
	return gc / (gc + user)
}

// hostTicks holds the aggregate CPU line of /proc/stat.
type hostTicks struct{ steal, total uint64 }

// readHostTicks reads the aggregate CPU counters; ok is false where
// /proc/stat is unavailable.
func readHostTicks() (hostTicks, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostTicks{}, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return hostTicks{}, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostTicks{}, false
	}
	var h hostTicks
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return hostTicks{}, false
		}
		if i >= 8 { // guest time is already counted in user time
			break
		}
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h, true
}

// stealFrac is the share of host CPU time stolen between two samples.
func stealFrac(a, b hostTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first, second and third quartiles of xs by the
// exclusive method, as Python's statistics.quantiles(xs, n=4) computes
// them. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
