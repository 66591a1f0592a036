package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"baps/internal/browser"
	"baps/internal/integrity"
	"baps/internal/origin"
	"baps/internal/proxy"
)

// live-p2p settings: a fleet of hosted agents with small browser caches in
// front of a small memory-only proxy, with origin churn and background
// revalidation on.
const (
	p2pAgents        = 300
	p2pAgentCache    = 256 << 10 // bytes per browser cache (~8 documents)
	p2pProxyCapacity = 8 << 20   // bytes, memory-only (~250 documents)
	p2pWarmup        = 3000
	// p2pModRate is origin modifications per second during measurement.
	// Each one that the proxy notices wipes a hot document from every
	// browser cache holding it; at one a second these waves made the
	// closed-loop rate of a 1.8 s phase swing by 20-30%.
	p2pModRate = 0.25
	// p2pModDocs is the hot set the modifications cycle through.
	p2pModDocs = 5
	// p2pRevalidateAfter is the age past which the proxy revalidates a
	// resident document in the background. The proxy holds ~250 documents,
	// so this asks for ~60 conditional GETs a second, well under the
	// workqueue's default revalidation limit (256/s); at 1 s the demand sat
	// at that limit and the saturated queue made throughput swing between
	// runs.
	p2pRevalidateAfter = 4 * time.Second
	// p2pOpenRate is about a sixth of the closed-loop capacity measured on a
	// 2-CPU Xeon (at half, the tail was too unsteady to gate; see
	// README.md); it is fixed so every commit is offered the same load.
	p2pOpenRate = 500
	// p2pClosedShare is the closed loop's share of each round: half, not
	// the 40% of live-proxy, because the closed-loop rate is this
	// workload's least steady figure.
	p2pClosedShare = 0.5
)

// p2pCluster is an origin, one proxy, and one AgentHost with its fleet.
type p2pCluster struct {
	origin     *origin.Server
	originURL  string
	stopOrigin func()
	proxy      *proxy.Server
	host       *browser.AgentHost
	agents     []*browser.Agent
}

func (c *p2pCluster) close() {
	if c.host != nil {
		c.host.Close()
	}
	if c.proxy != nil {
		c.proxy.Close()
	}
	c.stopOrigin()
}

// startP2PCluster brings the cluster up and returns it together with the
// time proxy.New took: that call generates an RSA-2048 key, whose random
// duration is kept out of setup_s.
func startP2PCluster(lt *layerTransport) (*p2pCluster, time.Duration, error) {
	o, oURL, stop, err := startOrigin()
	if err != nil {
		return nil, 0, err
	}
	c := &p2pCluster{origin: o, originURL: oURL, stopOrigin: stop}
	cfg := proxy.DefaultConfig()
	cfg.CacheCapacity = p2pProxyCapacity
	cfg.RevalidateAfter = p2pRevalidateAfter
	cfg.RevalidateEvery = p2pRevalidateAfter / 4
	if lt != nil {
		lt.originHost = oURL[len("http://"):]
		cfg.Transport = lt
	}
	k0 := time.Now()
	p, err := proxy.New(cfg)
	keygen := time.Since(k0)
	if err != nil {
		c.close()
		return nil, 0, err
	}
	if err := p.Start("127.0.0.1:0"); err != nil {
		p.Close()
		c.close()
		return nil, 0, err
	}
	c.proxy = p
	acfg := browser.DefaultConfig(p.BaseURL())
	acfg.IndexMode = browser.Batched
	acfg.CacheCapacity = p2pAgentCache
	acfg.Verify = true
	acfg.Timeout = clientTimeout
	h, err := browser.NewHost(browser.HostConfig{Agent: acfg})
	if err != nil {
		c.close()
		return nil, 0, err
	}
	c.host = h
	for i := 0; i < p2pAgents; i++ {
		a, err := h.Spawn()
		if err != nil {
			c.close()
			return nil, 0, fmt.Errorf("spawn agent %d: %w", i, err)
		}
		c.agents = append(c.agents, a)
	}
	return c, keygen, nil
}

func (c *p2pCluster) fetch(ctx context.Context, d draw, docURL string, _ *bytes.Buffer) ([]byte, string, int64, error) {
	body, src, err := c.agents[d.agent].Get(ctx, docURL)
	return body, string(src), -1, err
}

// startModifier bumps documents at the origin at a fixed rate until
// stopped, and waits for its goroutine on stop. It cycles through the
// p2pModDocs most requested documents in a seeded order, so every run
// invalidates the same hot set the same number of times and the
// invalidation fan-out does not vary with which documents a seed drew.
func startModifier(o *origin.Server, seed int64, rate float64) (stop func() int) {
	order := rand.New(rand.NewPCG(uint64(seed), 3)).Perm(p2pModDocs)
	done := make(chan struct{})
	count := make(chan int)
	go func() {
		t := time.NewTicker(time.Duration(float64(time.Second) / rate))
		defer t.Stop()
		n := 0
		for {
			select {
			case <-done:
				count <- n
				return
			case <-t.C:
				o.Modify(docPath(int32(order[n%len(order)])))
				n++
			}
		}
	}()
	return func() int {
		close(done)
		return <-count
	}
}

func runLiveP2P(r *run) error {
	seed := r.opts.seed
	draws := drawRequests(seed, 1, 1<<20, liveDocs, p2pAgents)
	warm := drawRequests(seed, 2, p2pWarmup, liveDocs, p2pAgents)

	var lt *layerTransport
	fl := newInflight()
	if r.tr != nil {
		lt = newLayerTransport(r.tr, fl)
	}
	var setups, keygens []float64
	var c *p2pCluster
	var warmSamples []sample
	for i := 0; i < liveSetups; i++ {
		if c != nil {
			c.close()
		}
		t0 := time.Now()
		var keygen time.Duration
		var err error
		c, keygen, err = startP2PCluster(lt)
		if err != nil {
			return err
		}
		lr := &liveRun{r: r, origin: c.origin, originURL: c.originURL, fetch: c.fetch, draws: warm, inflight: fl}
		warmSamples = lr.closedCount(p2pWarmup)
		setups = append(setups, (time.Since(t0) - keygen).Seconds())
		keygens = append(keygens, keygen.Seconds())
	}
	defer c.close()
	r.set("setup_s", median(setups))
	r.report("setup: origin + proxy + AgentHost with %d agents + %d-request warm-up, x%d (proxy.New's RSA keygen excluded): median %.3f s %v; keygen %v s",
		p2pAgents, p2pWarmup, liveSetups, median(setups), roundAll(setups, 3), roundAll(keygens, 3))

	lr := &liveRun{r: r, origin: c.origin, originURL: c.originURL, fetch: c.fetch, draws: draws, inflight: fl}
	if lt != nil {
		lt.reset()
	}
	agentsBefore := agentTotals(c.agents)
	before := c.proxy.Snapshot()
	dp := &depthProbe{p: c.proxy}
	meter := startAllocMeter()
	smp := startSampler(time.Second, dp.sample)
	stopMod := startModifier(c.origin, seed, p2pModRate)
	lf := lr.measure(r.opts.seconds, p2pOpenRate, 4, p2pClosedShare)
	mods := stopMod()
	after := c.proxy.Snapshot()
	agentsAfter := agentTotals(c.agents)
	r.set("workqueue.depth_max", float64(dp.max.Load()))
	setGoRuntime(r, meter, int64(len(lf.closed())+len(lf.open())), smp.close())
	notLocal := func(s sample) bool { return s.src != string(browser.SourceLocal) }
	lf.apply(r, notLocal)

	all := append(append(append([]sample(nil), warmSamples...), lf.closed()...), lf.open()...)
	stale := verifyBodies(r, c.origin, all)
	r.set("browser.stale_serves", float64(stale))
	r.report("correctness: %d bodies checked against origin content; %d origin modifications, %d stale serves", len(all), mods, stale)
	r.check(agentsAfter.TamperSeen == agentsBefore.TamperSeen, "agents rejected %d watermarks", agentsAfter.TamperSeen-agentsBefore.TamperSeen)

	if r.tr == nil {
		return nil
	}
	r.set("trace.overhead_pct", lf.overheadPct())
	r.report("tracing overhead: traced closed-loop rounds %.1f%% slower than untraced", lf.overheadPct())
	r.set("integrity.keygen_s", median(keygens))
	proxyDeltas(r, before, after)
	setTransportFigures(r, lt)
	setSpanFigures(r)

	byGet := map[string][]float64{}
	var local, total, nonLocal, remote int64
	for _, set := range [][]sample{lf.closed(), lf.open()} {
		for _, s := range set {
			if s.err != nil {
				continue
			}
			total++
			if s.src == string(browser.SourceLocal) {
				local++
			} else {
				nonLocal++
			}
			if s.src == string(browser.SourceRemote) {
				remote++
			}
		}
	}
	for _, s := range lf.closed() {
		if s.err == nil {
			byGet[s.src] = append(byGet[s.src], float64(s.lat.Nanoseconds())/1e3)
		}
	}
	for _, src := range []browser.Source{browser.SourceLocal, browser.SourceProxy, browser.SourceRemote, browser.SourceOrigin} {
		xs := byGet[string(src)]
		sort.Float64s(xs)
		if len(xs) > 0 {
			r.set("browser.get_us."+string(src), percentile(xs, 50))
		}
		r.report("Agent.Get from %s: p50 %.1f us (n=%d)", src, percentile(xs, 50), len(xs))
	}
	r.set("browser.local_hit_ratio", float64(local)/float64(max(total, 1)))
	if nonLocal > 0 {
		r.set("index.batches_per_fetch", float64(after.IndexBatches-before.IndexBatches)/float64(nonLocal))
		r.set("index.deltas_per_fetch", float64(after.IndexBatchDeltas-before.IndexBatchDeltas)/float64(nonLocal))
	}
	if calls := r.values["peer.calls"]; calls > 0 {
		r.set("peer.useful_ratio", float64(remote)/calls)
	}
	r.report("index: %d batches, %d deltas over %d non-local fetches; agent batches %d",
		after.IndexBatches-before.IndexBatches, after.IndexBatchDeltas-before.IndexBatchDeltas, nonLocal, agentsAfter.IndexBatches-agentsBefore.IndexBatches)

	signer, err := integrity.NewSigner(2048)
	if err != nil {
		return err
	}
	if err := probeIntegrity(r, signer, sizeMix(draws, 64)); err != nil {
		return err
	}
	handlerOnly(r, c.proxy, c.originURL, draws[:1000])
	return nil
}

// agentTotals sums the fleet's agent counters.
func agentTotals(agents []*browser.Agent) browser.Metrics {
	var m browser.Metrics
	for _, a := range agents {
		s := a.Snapshot()
		m.Requests += s.Requests
		m.LocalHits += s.LocalHits
		m.TamperSeen += s.TamperSeen
		m.IndexBatches += s.IndexBatches
	}
	return m
}
