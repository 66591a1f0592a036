package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"baps/internal/core"
	"baps/internal/proxy"
	"baps/internal/sim"
	"baps/internal/trace"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {0.5, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {20, 50}, {99, 50}, {100, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if got > 0 && beyond(c.n, got) < 10 {
			t.Errorf("tailPercentile(%d) = %g leaves %d beyond", c.n, got, beyond(c.n, got))
		}
	}
}

func TestSummaryCountsFailuresAsMisses(t *testing.T) {
	var l latencies
	for i := 0; i < 98; i++ {
		l.add(time.Millisecond)
	}
	l.addFailed()
	l.addFailed()
	s := l.summarize()
	if s.n != 100 || s.failed != 2 {
		t.Fatalf("n=%d failed=%d, want 100 and 2", s.n, s.failed)
	}
	if s.p50 != 1 || !math.IsInf(s.p99, 1) {
		t.Errorf("p50=%g p99=%g: two failures in 100 must put p99 past any limit", s.p50, s.p99)
	}
	if got := finiteMS(s.p99, 10000); got != 10000 {
		t.Errorf("finiteMS(+Inf) = %g, want the limit", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Error("median reordered its input")
	}
}

// TestLiveTailIsMissPathP90 checks the live end-to-end figures: the tail is
// the median over rounds of each round's p90 of origin-served requests
// (failures count as misses past any limit), and throughput is pooled over
// the closed phases.
func TestLiveTailIsMissPathP90(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// rd returns a round whose open loop has 90 hits at 1 ms and ten misses
	// at miss+0..9 ms, so the misses' p90 is miss+8 ms.
	rd := func(miss int, closedN int, wall time.Duration) round {
		var rd round
		for i := 0; i < 90; i++ {
			rd.open = append(rd.open, sample{src: proxy.SourceProxy, lat: ms(1)})
		}
		for i := 0; i < 10; i++ {
			rd.open = append(rd.open, sample{src: proxy.SourceOrigin, lat: ms(miss + i)})
		}
		for i := 0; i < closedN; i++ {
			rd.closed = append(rd.closed, sample{src: proxy.SourceProxy})
		}
		rd.closedWall = wall
		return rd
	}
	lf := liveFigures{rounds: []round{rd(10, 100, time.Second), rd(30, 300, time.Second), rd(20, 200, 2*time.Second)}}
	r := &run{values: map[string]float64{}}
	lf.apply(r, func(sample) bool { return true })
	if got := r.values["latency_tail_ms"]; got != 28 {
		t.Errorf("latency_tail_ms = %g, want 28 (median of 18, 38, 28)", got)
	}
	if got := r.values["throughput_per_s"]; got != 150 {
		t.Errorf("throughput_per_s = %g, want 150 (600 completions in 4 s)", got)
	}
	if got := r.values["latency_p50_ms"]; got != 1 {
		t.Errorf("latency_p50_ms = %g, want 1", got)
	}

	failed := rd(10, 100, time.Second)
	failed.open[0] = sample{err: io.EOF}
	lf = liveFigures{rounds: []round{failed}}
	r = &run{values: map[string]float64{}}
	lf.apply(r, func(sample) bool { return true })
	if got := r.values["latency_tail_ms"]; got != 19 {
		t.Errorf("latency_tail_ms with one failure = %g, want 19 (the failure ranks past the ten misses)", got)
	}
	if r.failed != 1 {
		t.Errorf("failed = %d, want 1", r.failed)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.record("request", 1, -1, at(0), at(100))
	tr.record("origin", 1, root, at(10), at(40))
	tr.record("peer", 1, root, at(30), at(50))  // overlaps the first child
	tr.record("peer", 1, root, at(90), at(120)) // runs past the parent's end
	self := tr.selfTimes()
	if got := self["request"][0]; got != 50*time.Millisecond {
		t.Errorf("request self time %v, want 50ms (100 - [10,50] - [90,100])", got)
	}
	if got := self["origin"][0]; got != 30*time.Millisecond {
		t.Errorf("origin self time %v, want 30ms", got)
	}
	var off *tracer
	if off.active() || off.record("x", 0, -1, at(0), at(1)) != -1 {
		t.Error("a nil tracer must record nothing")
	}
}

func TestDrawRequestsFollowSeed(t *testing.T) {
	a := drawRequests(7, 1, 5000, liveDocs, p2pAgents)
	b := drawRequests(7, 1, 5000, liveDocs, p2pAgents)
	c := drawRequests(8, 1, 5000, liveDocs, p2pAgents)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different request sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same request sequence")
	}
	for _, d := range a {
		if d.doc < 0 || d.doc >= liveDocs || d.agent < 0 || d.agent >= p2pAgents {
			t.Fatalf("draw %+v out of range", d)
		}
	}
}

// replaySmall generates a small synth-1m-shaped trace for seed into a .btr
// file and replays it the way sim-stream does.
func replaySmall(t *testing.T, seed int64) replayCounts {
	t.Helper()
	p := streamProfile(seed)
	p.Clients, p.Requests = 500, 20000
	path := filepath.Join(t.TempDir(), "t.btr")
	if _, err := writeBTR(path, p); err != nil {
		t.Fatal(err)
	}
	s, f, err := openBTR(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.StreamStats(s)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if s, f, err = openBTR(path); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := sim.RunSharded(s, &st, sim.DefaultConfig(core.BrowsersAware), 2)
	if err != nil {
		t.Fatal(err)
	}
	return countsOf(res)
}

func TestSimOutputFollowsSeed(t *testing.T) {
	a, b, c := replaySmall(t, 3), replaySmall(t, 3), replaySmall(t, 4)
	if a != b {
		t.Errorf("the same seed gave different replay counts: %+v vs %+v", a, b)
	}
	if a == c {
		t.Errorf("different seeds gave identical replay counts %+v", a)
	}
	if a.Requests != 20000 {
		t.Errorf("replayed %d requests, want 20000", a.Requests)
	}
}

func TestMaskWallClockNormalizesSecurityTable(t *testing.T) {
	table := func(sign, verify string) string {
		w := max(len(sign), len(verify))
		pad := func(s string) string { return s + strings.Repeat(" ", w-len(s)) }
		return "Table 1\nrow  1\n\n" + securityTitle + " (RSA-2048)\n" +
			"Operation  " + pad("Latency") + "  Rel\n" +
			"---------  " + strings.Repeat("-", w) + "  ---\n" +
			"watermark sign  " + pad(sign) + "  1%\n" +
			"watermark verify  " + pad(verify) + "  2%\n\nafter  2\n"
	}
	a := maskWallClock(table("1.234567ms", "95.1µs"))
	b := maskWallClock(table("987.6µs", "101.2345µs"))
	if a != b {
		t.Errorf("masked tables differ:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "row  1") || !strings.Contains(a, "after  2") {
		t.Error("lines outside the security table must be left alone")
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the metric and
// workload catalogues of this program in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", names, specNames)
	}
	var e2e []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs from the catalogue:\n%v\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		want, _ := json.Marshal(perLayer)
		t.Errorf("per_layer differs from the catalogue; want %s", want)
	}
}
