package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// percentile returns the nearest-rank q-quantile of xs (0 for none).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// goStats snapshots the Go runtime counters the go.* layer metrics use.
type goStats struct {
	allocBytes uint64
	gcCycles   uint32
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goStats{allocBytes: m.TotalAlloc, gcCycles: m.NumGC}
}

// addSince adds the runtime's activity since g0 to g.
func (g *goStats) addSince(g0 goStats) {
	g1 := readGoStats()
	g.allocBytes += g1.allocBytes - g0.allocBytes
	g.gcCycles += g1.gcCycles - g0.gcCycles
}

// opLog records the timed operations of a run: per-operation latency and
// CPU time, and the timed-phase totals end-to-end metrics derive from.
type opLog struct {
	latMS    []float64
	busy     time.Duration // summed operation time
	cpu      time.Duration
	attempts int
}

// timeOp runs op, recording its latency and CPU time.
func (l *opLog) timeOp(op func() error) error {
	c0, t0 := cpuTime(), time.Now()
	err := op()
	d := time.Since(t0)
	l.cpu += cpuTime() - c0
	l.busy += d
	l.latMS = append(l.latMS, ms(d))
	l.attempts++
	return err
}
