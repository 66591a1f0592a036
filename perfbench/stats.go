package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it. It returns NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	return sorted[rank(n, p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples. The
// epsilon keeps float error (99.9/100*10000 = 9990.000000000002) from
// pushing an exact rank up by one.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// beyond reports how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// reportPercentiles are the candidates for "the highest percentile with at
// least ten samples beyond it".
var reportPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten samples beyond it (0 when even p50 does not).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range reportPercentiles {
		if beyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// median returns the median of xs (mean of the middle pair for even
// lengths); NaN when empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latencies collects per-request latencies in milliseconds. A failed or
// refused request is recorded as +Inf: it misses any latency limit.
type latencies struct {
	ms []float64
}

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d)/1e6) }
func (l *latencies) addFailed()          { l.ms = append(l.ms, math.Inf(1)) }

// summary sorts the samples and describes them: p50, p99, the highest
// percentile with ten samples beyond it, and the sample count.
type summary struct {
	n                  int
	failed             int
	p50, p99, tail     float64
	tailP              float64
	tailBeyond, beyond int
}

func (l *latencies) summarize() summary {
	sort.Float64s(l.ms)
	s := summary{n: len(l.ms)}
	for i := len(l.ms) - 1; i >= 0 && math.IsInf(l.ms[i], 1); i-- {
		s.failed++
	}
	if s.n == 0 {
		return s
	}
	s.p50 = percentile(l.ms, 50)
	s.p99 = percentile(l.ms, 99)
	s.beyond = beyond(s.n, 99)
	s.tailP = tailPercentile(s.n)
	if s.tailP > 0 {
		s.tail = percentile(l.ms, s.tailP)
		s.tailBeyond = beyond(s.n, s.tailP)
	}
	return s
}

func (s summary) String() string {
	return fmt.Sprintf("p50 %.3f ms, p99 %.3f ms (n=%d, %d beyond p99, %d failed); highest percentile with >=10 beyond: p%g = %.3f ms (%d beyond)",
		s.p50, s.p99, s.n, s.beyond, s.failed, s.tailP, s.tail, s.tailBeyond)
}

// finiteMS maps +Inf (a failed request) to limitMS so the JSON stays valid;
// the report line says how many samples failed.
func finiteMS(v, limitMS float64) float64 {
	if math.IsInf(v, 1) {
		return limitMS
	}
	return v
}

// sampler polls cheap process gauges while a workload runs: the goroutine
// high-water mark and, when set, a workload-specific probe.
type sampler struct {
	mu            sync.Mutex
	goroutinesMax int
	stop          chan struct{}
	done          chan struct{}
}

// startSampler polls every period; probe (may be nil) runs on each tick.
func startSampler(period time.Duration, probe func()) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			s.observe()
			if probe != nil {
				probe()
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *sampler) observe() {
	g := runtime.NumGoroutine()
	s.mu.Lock()
	if g > s.goroutinesMax {
		s.goroutinesMax = g
	}
	s.mu.Unlock()
}

// close stops the sampler, waits for it, and returns the goroutine maximum.
func (s *sampler) close() int {
	close(s.stop)
	<-s.done
	s.observe()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.goroutinesMax
}

// allocMeter measures heap bytes allocated across a phase.
type allocMeter struct {
	start  uint64
	numGC  uint32
	pauses uint64
}

func startAllocMeter() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{start: ms.TotalAlloc, numGC: ms.NumGC, pauses: ms.PauseTotalNs}
}

// perOp returns bytes allocated since start divided by ops, the GC CPU
// fraction since process start, and the collections and total stop-the-world
// pause since start.
func (a allocMeter) perOp(ops int64) (bytesPerOp, gcFraction float64, gcs uint32, pause time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ops < 1 {
		ops = 1
	}
	return float64(ms.TotalAlloc-a.start) / float64(ops), ms.GCCPUFraction, ms.NumGC - a.numGC, time.Duration(ms.PauseTotalNs - a.pauses)
}
