package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"baps/internal/origin"
	"baps/internal/proxy"
)

// Shared live-workload settings: Zipf 1.2 over 5000 documents, at most
// nproc (capped at 2) generator goroutines and as many requests in flight.
const (
	liveDocs = 5000
	// originSeed fixes the documents' sizes and bytes; the run seed
	// drives the request sequence.
	originSeed    = 1
	liveZipf      = 1.2
	clientTimeout = 10 * time.Second
	// latencyLimitMS stands in for a failed request's latency in the JSON
	// (a failure misses any latency limit; the report counts them).
	latencyLimitMS = float64(clientTimeout / time.Millisecond)
)

func liveWorkers() int { return min(2, runtime.NumCPU()) }

// liveSetups is how many times a live workload starts and warms its
// cluster; setup_s is the median and the last cluster is measured.
const liveSetups = 5

// draw is one generated request: which agent asks (live-p2p) for which
// document.
type draw struct {
	agent int32
	doc   int32
}

// drawRequests generates n seeded requests over docs documents (Zipf) and
// agents agents (uniform; 0 = no agents). stream separates independent
// sequences drawn from one seed.
func drawRequests(seed int64, stream uint64, n, docs, agents int) []draw {
	rng := rand.New(rand.NewPCG(uint64(seed), stream))
	z := rand.NewZipf(rng, liveZipf, 1, uint64(docs-1))
	out := make([]draw, n)
	for i := range out {
		out[i].doc = int32(z.Uint64())
		if agents > 0 {
			out[i].agent = int32(rng.IntN(agents))
		}
	}
	return out
}

func docPath(doc int32) string { return "/doc/" + strconv.Itoa(int(doc)) }

// fetchFunc issues one request and returns the body, the serving tier, and
// the served version (-1 when the client API does not report it). buf is
// the calling worker's scratch buffer: the body may alias it until the
// worker's next request, which keeps the generator's own garbage (and the
// collections it would trigger in the measured process) small.
type fetchFunc func(ctx context.Context, d draw, docURL string, buf *bytes.Buffer) (body []byte, src string, version int64, err error)

// sample is one completed or failed request.
type sample struct {
	doc     int32
	floor   int64 // origin version when the request was issued
	version int64 // served version, -1 when unknown
	sum     uint32
	size    int
	src     string
	lat     time.Duration // from due time (open loop) or send time (closed)
	late    time.Duration // send time minus due time (open loop)
	err     error
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// liveRun drives one live cluster: its origin, the fetch path under test,
// and the request spans of a traced run.
type liveRun struct {
	r         *run
	origin    *origin.Server
	originURL string
	fetch     fetchFunc
	draws     []draw
	cursor    atomic.Int64
	inflight  *inflight
}

// do issues draw seq, timing it from due (the zero time means "now").
func (lr *liveRun) do(ctx context.Context, seq int64, due time.Time, buf *bytes.Buffer) sample {
	d := lr.draws[seq%int64(len(lr.draws))]
	path := docPath(d.doc)
	docURL := lr.originURL + path
	s := sample{doc: d.doc, floor: lr.origin.Version(path)}
	send := time.Now()
	if due.IsZero() {
		due = send
	}
	s.late = send.Sub(due)
	span := -1
	if lr.r.tr.active() {
		span = lr.r.tr.reserve("request", uint64(seq), -1, send)
		lr.inflight.set(docURL, span)
	}
	body, src, version, err := lr.fetch(ctx, d, docURL, buf)
	end := time.Now()
	if span >= 0 {
		lr.inflight.clear(docURL, span)
		lr.r.tr.finish(span, end)
	}
	s.lat = end.Sub(due)
	s.err = err
	s.src, s.version, s.size = src, version, len(body)
	s.sum = crc32.Checksum(body, castagnoli)
	return s
}

// closedLoop runs workers back-to-back requests for dur and returns the
// samples and the elapsed time.
func (lr *liveRun) closedLoop(dur time.Duration) ([]sample, time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), dur+clientTimeout)
	defer cancel()
	start := time.Now()
	stop := start.Add(dur)
	per := make([][]sample, liveWorkers())
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(stop) {
				per[w] = append(per[w], lr.do(ctx, lr.cursor.Add(1)-1, time.Time{}, &buf))
			}
		}(w)
	}
	wg.Wait()
	return flatten(per), time.Since(start)
}

// closedCount runs the next n draws back to back on the workers (the
// warm-up phase).
func (lr *liveRun) closedCount(n int64) []sample {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	end := lr.cursor.Load() + n
	per := make([][]sample, liveWorkers())
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				seq := lr.cursor.Add(1) - 1
				if seq >= end {
					return
				}
				per[w] = append(per[w], lr.do(ctx, seq, time.Time{}, &buf))
			}
		}(w)
	}
	wg.Wait()
	return flatten(per)
}

// openLoop offers rate requests per second for dur on a fixed schedule,
// with at most liveWorkers requests in flight. Each request is timed from
// its due time, so a stall also charges the requests queued behind it.
func (lr *liveRun) openLoop(dur time.Duration, rate float64) []sample {
	ctx, cancel := context.WithTimeout(context.Background(), dur+clientTimeout)
	defer cancel()
	start := time.Now()
	total := int64(dur.Seconds() * rate)
	var slot atomic.Int64
	per := make([][]sample, liveWorkers())
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := slot.Add(1) - 1
				if i >= total {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				waitUntil(due)
				per[w] = append(per[w], lr.do(ctx, lr.cursor.Add(1)-1, due, &buf))
			}
		}(w)
	}
	wg.Wait()
	return flatten(per)
}

// waitUntil returns at t. Go timers wake with up to a millisecond of
// slack when the process is idle, which at sub-millisecond spacing would
// make most requests late, so the final stretch sleeps in the kernel
// (nanosleep has microsecond precision) instead of on a Go timer.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

func flatten(per [][]sample) []sample {
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// inflight maps a document URL to the open request span fetching it, so
// spans recorded by the transport wrapper find their parent.
type inflight struct {
	mu sync.Mutex
	m  map[string]int
}

func newInflight() *inflight { return &inflight{m: map[string]int{}} }

func (f *inflight) set(u string, span int) {
	f.mu.Lock()
	f.m[u] = span
	f.mu.Unlock()
}

func (f *inflight) clear(u string, span int) {
	f.mu.Lock()
	if f.m[u] == span {
		delete(f.m, u)
	}
	f.mu.Unlock()
}

func (f *inflight) get(u string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.m[u]; ok {
		return s
	}
	return -1
}

// layerTransport wraps the proxy's outbound transport in a traced run. It
// keeps the proxy's default split (deep origin pool, shallow peer pools),
// counts calls per destination, and records one span per call from send
// to the end of the response body.
type layerTransport struct {
	originHost   string
	origin, peer http.RoundTripper
	tr           *tracer
	inflight     *inflight

	mu                 sync.Mutex
	originRTT, peerRTT []float64 // microseconds, one per call
}

func newLayerTransport(tr *tracer, f *inflight) *layerTransport {
	return &layerTransport{
		origin:   proxy.NewTransport(proxy.OriginIdleConnsPerHost),
		peer:     proxy.NewTransport(proxy.PeerIdleConnsPerHost),
		tr:       tr,
		inflight: f,
	}
}

func (t *layerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	isOrigin := req.URL.Host == t.originHost
	rt, name, key := t.peer, "peer", req.URL.Query().Get("url")
	if isOrigin {
		rt, name, key = t.origin, "origin", req.URL.String()
	}
	t0 := time.Now()
	resp, err := rt.RoundTrip(req)
	done := func() {
		t1 := time.Now()
		t.tr.record(name, 0, t.inflight.get(key), t0, t1)
		us := float64(t1.Sub(t0).Nanoseconds()) / 1e3
		t.mu.Lock()
		if isOrigin {
			t.originRTT = append(t.originRTT, us)
		} else {
			t.peerRTT = append(t.peerRTT, us)
		}
		t.mu.Unlock()
	}
	if err != nil {
		done()
		return nil, err
	}
	resp.Body = &endBody{ReadCloser: resp.Body, done: done}
	return resp, nil
}

// reset drops everything recorded so far (set-up and warm-up traffic).
func (t *layerTransport) reset() {
	t.mu.Lock()
	t.originRTT, t.peerRTT = nil, nil
	t.mu.Unlock()
}

// endBody calls done once, at EOF or Close, whichever comes first.
type endBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *endBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *endBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// startOrigin serves an origin on a loopback port; stop closes it and
// waits for its serve loop to return.
func startOrigin() (o *origin.Server, baseURL string, stop func(), err error) {
	o = origin.New(originSeed)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	srv := &http.Server{Handler: o.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	return o, "http://" + ln.Addr().String(), func() {
		srv.Close()
		<-done
	}, nil
}

// proxyFetch is the raw /fetch client of live-proxy.
func proxyFetch(proxyURL string) fetchFunc {
	client := &http.Client{Timeout: clientTimeout, Transport: proxy.NewTransport(liveWorkers())}
	return func(ctx context.Context, _ draw, docURL string, buf *bytes.Buffer) ([]byte, string, int64, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, proxyURL+"/fetch?url="+url.QueryEscape(docURL), nil)
		if err != nil {
			return nil, "", -1, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, "", -1, err
		}
		defer resp.Body.Close()
		buf.Reset()
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return nil, "", -1, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, "", -1, fmt.Errorf("status %s", resp.Status)
		}
		v, err := strconv.ParseInt(resp.Header.Get(proxy.HeaderVersion), 10, 64)
		if err != nil {
			v = -1
		}
		return buf.Bytes(), resp.Header.Get(proxy.HeaderSource), v, nil
	}
}

// verifyBodies checks every successful sample against the origin's content
// for the version it carries (or, when the client API does not report the
// version, for any version the document has had). It returns the number of
// stale serves: bodies older than the version current when the request was
// issued. A body matching no version fails the run.
func verifyBodies(r *run, live *origin.Server, samples []sample) (stale int) {
	ref := origin.New(originSeed) // same seed, same content; never serves traffic
	h := ref.Handler()
	want := map[int32][]uint32{} // doc -> crc of each version 0..current
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		sums, ok := want[s.doc]
		if !ok {
			path := docPath(s.doc)
			for v := int64(0); v <= live.Version(path); v++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				sums = append(sums, crc32.Checksum(rec.Body.Bytes(), castagnoli))
				ref.Modify(path)
			}
			want[s.doc] = sums
		}
		served := int64(-1)
		for v, sum := range sums {
			if sum == s.sum && (s.version < 0 || s.version == int64(v)) {
				served = int64(v)
			}
		}
		if served < 0 {
			r.check(false, "body of %s (%d bytes, version %d, from %s) matches no origin version", docPath(s.doc), s.size, s.version, s.src)
			continue
		}
		if served < s.floor {
			stale++
		}
	}
	return stale
}

// round is one closed-loop phase followed by one open-loop phase.
type round struct {
	closed     []sample
	closedWall time.Duration
	open       []sample
	// In a traced run the closed phase is split in an untraced and a
	// traced half: completions and time of each ([0] untraced, [1] traced).
	halfN    [2]int
	halfWall [2]time.Duration
}

// liveFigures holds the measured rounds of a live workload.
type liveFigures struct {
	rounds   []round
	openRate float64
}

// measure runs the measured phases: rounds of roundS seconds alternating a
// closed loop (the closed share of the round) and an open loop at rate
// (the rest).
// Alternating keeps both loops on the same cache state as it warms, and
// per-round figures let the latency metrics be medians across rounds,
// which a single stall cannot move; a round is long enough for the p90 of
// its origin-served requests to rest on about ten samples. Throughput is
// pooled over all closed phases: a stall only removes its own duration
// from it, and the pooled rate varies less between runs than the median
// of the short phases. In a traced run each closed phase runs half
// untraced and half traced, in alternating order, giving the tracing
// overhead on the same cache state.
func (lr *liveRun) measure(seconds, rate, roundS, closed float64) liveFigures {
	n := max(3, int(seconds/roundS))
	per := time.Duration(seconds / float64(n) * float64(time.Second))
	closedD := time.Duration(closed * float64(per))
	lf := liveFigures{openRate: rate}
	for i := 0; i < n; i++ {
		var rd round
		if lr.r.tr == nil {
			rd.closed, rd.closedWall = lr.closedLoop(closedD)
		} else {
			for h := 0; h < 2; h++ {
				traced := (h + i) % 2
				lr.r.tr.on.Store(traced == 1)
				s, w := lr.closedLoop(closedD / 2)
				rd.closed, rd.closedWall = append(rd.closed, s...), rd.closedWall+w
				rd.halfN[traced], rd.halfWall[traced] = okCount(s), w
			}
			lr.r.tr.on.Store(true)
		}
		rd.open = lr.openLoop(per-closedD, rate)
		lf.rounds = append(lf.rounds, rd)
	}
	return lf
}

func (lf liveFigures) closed() []sample {
	var out []sample
	for _, rd := range lf.rounds {
		out = append(out, rd.closed...)
	}
	return out
}

func (lf liveFigures) open() []sample {
	var out []sample
	for _, rd := range lf.rounds {
		out = append(out, rd.open...)
	}
	return out
}

func okCount(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.err == nil {
			n++
		}
	}
	return n
}

// overheadPct is the traced closed-loop throughput's shortfall against the
// untraced halves, as a percentage of the untraced rate.
func (lf liveFigures) overheadPct() float64 {
	var n [2]int
	var w [2]time.Duration
	for _, rd := range lf.rounds {
		for h := range n {
			n[h] += rd.halfN[h]
			w[h] += rd.halfWall[h]
		}
	}
	if n[0] == 0 || w[1] == 0 {
		return 0
	}
	untraced := float64(n[0]) / w[0].Seconds()
	traced := float64(n[1]) / w[1].Seconds()
	return (untraced - traced) / untraced * 100
}

// apply turns the rounds into end-to-end metrics and report lines. reaches
// says whether a sample reached the proxy (all do in live-proxy; local
// browser hits do not in live-p2p); only those enter the latency figures.
func (lf liveFigures) apply(r *run, reaches func(sample) bool) {
	var ok, hits, bytes, hitBytes int64
	srcs := map[string]int64{}
	for _, s := range append(lf.closed(), lf.open()...) {
		r.attempted++
		if s.err != nil {
			r.failed++
			continue
		}
		ok++
		srcs[s.src]++
		bytes += int64(s.size)
		if s.src != proxy.SourceOrigin {
			hits++
			hitBytes += int64(s.size)
		}
	}
	var rates, p50s, p95s, p99s, missP90s []float64
	var pooled, late, pooledMiss latencies
	var closedOK int
	var closedWall time.Duration
	for _, rd := range lf.rounds {
		rates = append(rates, float64(okCount(rd.closed))/rd.closedWall.Seconds())
		closedOK += okCount(rd.closed)
		closedWall += rd.closedWall
		var lat, miss latencies
		for _, s := range rd.open {
			switch {
			case s.err != nil:
				lat.addFailed()
				pooled.addFailed()
				miss.addFailed()
				pooledMiss.addFailed()
			case reaches(s):
				lat.add(s.lat)
				pooled.add(s.lat)
				if s.src == proxy.SourceOrigin {
					miss.add(s.lat)
					pooledMiss.add(s.lat)
				}
			}
			late.add(s.late)
		}
		rs := lat.summarize()
		p50s = append(p50s, finiteMS(rs.p50, latencyLimitMS))
		p95s = append(p95s, finiteMS(percentile(lat.ms, 95), latencyLimitMS))
		p99s = append(p99s, finiteMS(rs.p99, latencyLimitMS))
		if ms := miss.summarize(); ms.n > 0 {
			missP90s = append(missP90s, finiteMS(percentile(miss.ms, 90), latencyLimitMS))
		}
	}
	ls, gs, mps := pooled.summarize(), late.summarize(), pooledMiss.summarize()
	rps := float64(closedOK) / closedWall.Seconds()
	r.set("throughput_per_s", rps)
	r.set("latency_p50_ms", median(p50s))
	if len(missP90s) > 0 {
		r.set("latency_tail_ms", median(missP90s))
	}
	r.set("client.latency_ms.p99", median(p99s))
	if ok > 0 {
		r.set("hit_ratio", float64(hits)/float64(ok))
	}
	if bytes > 0 {
		r.set("byte_hit_ratio", float64(hitBytes)/float64(bytes))
	}
	r.set("generator.late_ms.p99", gs.p99)
	r.set("generator.samples", float64(gs.n))
	r.report("fetch_rps %.1f: completions over time of all %d closed-loop phases, %d workers; per round %v", rps, len(rates), liveWorkers(), roundAll(rates, 0))
	r.report("fetch_p50_ms %.3f fetch_p95_ms %.3f fetch_p99_ms %.3f: medians over rounds of each round's percentile at %.0f req/s offered (open loop, timed from due time, requests reaching the proxy)",
		median(p50s), median(p95s), median(p99s), lf.openRate)
	r.report("per-round p50 %v p95 %v p99 %v", roundAll(p50s, 3), roundAll(p95s, 3), roundAll(p99s, 3))
	r.report("miss_p90_ms %.3f (latency_tail_ms): median over rounds of each round's p90 of origin-served requests; per round %v",
		median(missP90s), roundAll(missP90s, 3))
	r.report("pooled open-loop latency: %s", ls)
	r.report("pooled origin-served latency: %s", mps)
	r.report("generator lateness: %s", gs)
	r.report("hit_ratio %.4f byte_hit_ratio %.4f; sources %s; attempted %d failed %d",
		float64(hits)/float64(max(ok, 1)), float64(hitBytes)/float64(max(bytes, 1)), sortedCounts(srcs), r.attempted, r.failed)
}

func sortedCounts(m map[string]int64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("%s=%d ", k, m[k])
	}
	return out
}

// handlerOnly times the proxy handler alone: ServeHTTP into a recorder,
// no socket, no client.
func handlerOnly(r *run, p *proxy.Server, originURL string, draws []draw) {
	h := p.Handler()
	var us []float64
	for _, d := range draws {
		req := httptest.NewRequest(http.MethodGet, "/fetch?url="+url.QueryEscape(originURL+docPath(d.doc)), nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		r.check(rec.Code == http.StatusOK, "handler-only fetch of %s: status %d", docPath(d.doc), rec.Code)
	}
	sort.Float64s(us)
	r.set("proxy.handler_us.p50", percentile(us, 50))
	r.set("proxy.handler_us.p99", percentile(us, 99))
	r.report("proxy handler only (recorder, no socket): p50 %.1f us p99 %.1f us (n=%d)", percentile(us, 50), percentile(us, 99), len(us))
}

// setTransportFigures records the wrapper's origin and peer call figures.
func setTransportFigures(r *run, t *layerTransport) {
	t.mu.Lock()
	defer t.mu.Unlock()
	o := append([]float64(nil), t.originRTT...)
	p := append([]float64(nil), t.peerRTT...)
	sort.Float64s(o)
	sort.Float64s(p)
	r.set("origin.calls", float64(len(t.originRTT)))
	r.set("peer.calls", float64(len(t.peerRTT)))
	if len(o) > 0 {
		r.set("origin.rtt_us.p50", percentile(o, 50))
		r.set("origin.rtt_us.p99", percentile(o, 99))
	}
	if len(p) > 0 {
		r.set("peer.rtt_us.p50", percentile(p, 50))
		r.set("peer.rtt_us.p99", percentile(p, 99))
	}
	r.report("origin calls %d rtt p50 %.0f us p99 %.0f us; peer calls %d rtt p50 %.0f us p99 %.0f us",
		len(o), percentile(o, 50), percentile(o, 99), len(p), percentile(p, 50), percentile(p, 99))
}

// setSpanFigures records the request spans' self time: request duration
// minus the origin and peer calls made on its behalf.
func setSpanFigures(r *run) {
	self := r.tr.selfTimes()
	var us []float64
	for _, d := range self["request"] {
		us = append(us, float64(d.Nanoseconds())/1e3)
	}
	sort.Float64s(us)
	if len(us) > 0 {
		r.set("span.request.self_us.p50", percentile(us, 50))
		r.set("span.request.self_us.p99", percentile(us, 99))
	}
	r.report("request span self time (minus origin/peer child spans): p50 %.1f us p99 %.1f us (n=%d)",
		percentile(us, 50), percentile(us, 99), len(us))
}

// proxyDeltas records the proxy counters accumulated between two snapshots.
func proxyDeltas(r *run, a, b proxy.Stats) {
	reqs := b.Requests - a.Requests
	r.set("proxy.coalesced", float64(b.Coalesced-a.Coalesced))
	if reqs > 0 {
		r.set("proxy.origin_fetches_per_req", float64(b.OriginFetches-a.OriginFetches)/float64(reqs))
	}
	r.set("proxy.disk_hits", float64(b.DiskHits-a.DiskHits))
	r.set("proxy.disk_reads", float64(b.DiskReads-a.DiskReads))
	r.set("proxy.disk_writes", float64(b.DiskWrites-a.DiskWrites))
	r.set("proxy.false_peer_hits", float64(b.FalsePeerHits-a.FalsePeerHits))
	r.set("proxy.invalidations_sent", float64(b.InvalidationsSent-a.InvalidationsSent))
	r.set("index.entries", float64(b.IndexEntries))
	if a.Workqueue != nil && b.Workqueue != nil {
		r.set("workqueue.submitted", float64(b.Workqueue.Submitted-a.Workqueue.Submitted))
		r.set("workqueue.completed", float64(b.Workqueue.Completed-a.Workqueue.Completed))
		r.set("workqueue.dead_lettered", float64(b.Workqueue.DeadLettered-a.Workqueue.DeadLettered))
	}
	r.report("proxy: requests %d origin_fetches %d coalesced %d disk hits/reads/writes %d/%d/%d false_peer %d invalidations %d index_entries %d",
		reqs, b.OriginFetches-a.OriginFetches, b.Coalesced-a.Coalesced, b.DiskHits-a.DiskHits, b.DiskReads-a.DiskReads,
		b.DiskWrites-a.DiskWrites, b.FalsePeerHits-a.FalsePeerHits, b.InvalidationsSent-a.InvalidationsSent, b.IndexEntries)
}

// depthProbe samples the proxy workqueue depth once per second.
type depthProbe struct {
	p   *proxy.Server
	max atomic.Int64
}

func (d *depthProbe) sample() {
	if wq := d.p.Snapshot().Workqueue; wq != nil && int64(wq.Depth) > d.max.Load() {
		d.max.Store(int64(wq.Depth))
	}
}

// sizeMix returns origin bodies for the first n distinct documents of a
// draw sequence: the workload's body-size mix for direct layer probes.
func sizeMix(draws []draw, n int) [][]byte {
	ref := origin.New(originSeed)
	h := ref.Handler()
	seen := map[int32]bool{}
	var out [][]byte
	for _, d := range draws {
		if seen[d.doc] {
			continue
		}
		seen[d.doc] = true
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, docPath(d.doc), nil))
		out = append(out, rec.Body.Bytes())
		if len(out) == n {
			break
		}
	}
	return out
}
