package main

import (
	"bufio"
	"bytes"
	"math/bits"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"openmeta/internal/eventbus"
)

// snapshot holds the process and runtime counters read at a window
// boundary; the difference of two snapshots gives the window's counts.
type snapshot struct {
	wall     time.Time
	cpu      time.Duration // user+sys, all threads
	ctxsw    int64         // voluntary + involuntary context switches
	syscalls int64         // read+write syscalls (/proc/self/io syscr+syscw)
	allocs   uint64        // heap objects allocated
	allocB   uint64        // heap bytes allocated
	gcCPU    float64       // runtime estimate of GC CPU seconds
	usedCPU  float64       // runtime estimate of non-idle CPU seconds
	steal    uint64        // host steal ticks (/proc/stat)
	ticks    uint64        // host total ticks (/proc/stat)
	broker   eventbus.BrokerStats
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func takeSnapshot(b *eventbus.Broker) snapshot {
	s := snapshot{wall: time.Now(), broker: b.Stats()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.ctxsw = ru.Nvcsw + ru.Nivcsw
	}
	s.syscalls = procIOSyscalls()
	s.steal, s.ticks = hostTicks()
	metrics.Read(runtimeSamples)
	s.allocs = runtimeSamples[0].Value.Uint64()
	s.allocB = runtimeSamples[1].Value.Uint64()
	s.gcCPU = runtimeSamples[2].Value.Float64()
	s.usedCPU = runtimeSamples[3].Value.Float64() - runtimeSamples[4].Value.Float64()
	return s
}

// procIOSyscalls returns syscr+syscw from /proc/self/io, or 0 where the
// file is unreadable.
func procIOSyscalls() int64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	var n int64
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ": ")
		if ok && (k == "syscr" || k == "syscw") {
			x, _ := strconv.ParseInt(v, 10, 64)
			n += x
		}
	}
	return n
}

// hostTicks returns the steal and total ticks of the aggregate cpu line of
// /proc/stat.
func hostTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // ru_maxrss is in KiB on Linux
}

// cpuModel names the host CPU from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// subBits sets the histogram's resolution: 2^subBits buckets per power
// of two, so a bucket is at most 1/128 of its lower bound wide.
const subBits = 7

// latencyHist counts op latencies in log-linear buckets. It has a fixed
// size, so recording costs the benchmark no memory growth.
type latencyHist struct {
	counts [64 << subBits]uint64
	n      int64
	sum    float64 // ns
}

func (h *latencyHist) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
	h.sum += float64(ns)
}

func (h *latencyHist) merge(o *latencyHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *latencyHist) mean() float64 { return h.sum / float64(h.n) }

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	return (shift+1)<<subBits + int(v>>shift) - 1<<subBits
}

// bucketRange returns the lowest value of bucket b and its width.
func bucketRange(b int) (lo, width float64) {
	if b < 1<<subBits {
		return float64(b), 1
	}
	shift := b>>subBits - 1
	mant := uint64(b&(1<<subBits-1)) + 1<<subBits
	return float64(mant << shift), float64(uint64(1) << shift)
}

// quantile returns the q-quantile in ns, interpolated linearly within the
// bucket that holds it.
func (h *latencyHist) quantile(q float64) float64 {
	rank := q * float64(h.n)
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, width := bucketRange(b)
			return lo + width*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return 0
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
