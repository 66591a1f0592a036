package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"baps/internal/integrity"
	"baps/internal/origin"
	"baps/internal/proxy"
)

// live-proxy settings: the bapsload in-process proxy (256 MiB, 10% memory
// tier) with its disk tier on, driven by raw /fetch clients.
const (
	proxyCapacity = 256 << 20
	proxyWarmup   = 8000
	// proxyOpenRate is about a sixth of the closed-loop capacity measured on a
	// 2-CPU Xeon (at half, the tail was too unsteady to gate; see
	// README.md); it is fixed so every commit is offered the same load.
	proxyOpenRate = 1500
)

// proxyCluster is an origin plus one proxy on loopback.
type proxyCluster struct {
	origin     *origin.Server
	originURL  string
	stopOrigin func()
	proxy      *proxy.Server
}

func (c *proxyCluster) close() {
	if c.proxy != nil {
		c.proxy.Close()
	}
	c.stopOrigin()
}

// startProxyCluster starts the origin and a proxy whose disk tier lives in
// dataDir. The RSA key is written there first, so proxy.New loads it
// instead of generating one (key generation has a random duration).
func startProxyCluster(dataDir string, keyPEM []byte, lt *layerTransport) (*proxyCluster, error) {
	o, oURL, stop, err := startOrigin()
	if err != nil {
		return nil, err
	}
	c := &proxyCluster{origin: o, originURL: oURL, stopOrigin: stop}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		c.close()
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dataDir, "key.pem"), keyPEM, 0o600); err != nil {
		c.close()
		return nil, err
	}
	cfg := proxy.DefaultConfig()
	cfg.CacheCapacity = proxyCapacity
	cfg.DataDir = dataDir
	if lt != nil {
		lt.originHost = oURL[len("http://"):]
		cfg.Transport = lt
	}
	p, err := proxy.New(cfg)
	if err != nil {
		c.close()
		return nil, err
	}
	if err := p.Start("127.0.0.1:0"); err != nil {
		p.Close()
		c.close()
		return nil, err
	}
	c.proxy = p
	return c, nil
}

func runLiveProxy(r *run) error {
	seed := r.opts.seed
	draws := drawRequests(seed, 1, 1<<20, liveDocs, 0)
	warm := drawRequests(seed, 2, proxyWarmup, liveDocs, 0)

	k0 := time.Now()
	signer, err := integrity.NewSigner(2048)
	if err != nil {
		return err
	}
	keygen := time.Since(k0).Seconds()

	var lt *layerTransport
	fl := newInflight()
	if r.tr != nil {
		lt = newLayerTransport(r.tr, fl)
	}
	// Set-up: start the cluster and warm it with a fixed request count,
	// liveSetups times; the last cluster is the one measured.
	var setups []float64
	var c *proxyCluster
	var lr *liveRun
	var warmSamples []sample
	for i := 0; i < liveSetups; i++ {
		if c != nil {
			c.close()
		}
		t0 := time.Now()
		c, err = startProxyCluster(filepath.Join(r.opts.workDir, fmt.Sprintf("proxy-%d", i)), signer.MarshalPrivateKey(), lt)
		if err != nil {
			return err
		}
		lr = &liveRun{r: r, origin: c.origin, originURL: c.originURL, fetch: proxyFetch(c.proxy.BaseURL()), draws: warm, inflight: fl}
		warmSamples = lr.closedCount(proxyWarmup)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer c.close()
	r.set("setup_s", median(setups))
	r.report("setup: origin + proxy (disk tier) start and %d-request warm-up, x%d: median %.3f s %v; RSA-2048 keygen outside set-up %.3f s",
		proxyWarmup, liveSetups, median(setups), roundAll(setups, 3), keygen)

	lr = &liveRun{r: r, origin: c.origin, originURL: c.originURL, fetch: lr.fetch, draws: draws, inflight: fl}
	if lt != nil {
		lt.reset()
	}
	before := c.proxy.Snapshot()
	dp := &depthProbe{p: c.proxy}
	meter := startAllocMeter()
	smp := startSampler(time.Second, dp.sample)
	lf := lr.measure(r.opts.seconds, proxyOpenRate, 1.5, 0.4)
	after := c.proxy.Snapshot()
	r.set("workqueue.depth_max", float64(dp.max.Load()))
	setGoRuntime(r, meter, int64(len(lf.closed())+len(lf.open())), smp.close())
	lf.apply(r, func(sample) bool { return true })

	all := append(append(append([]sample(nil), warmSamples...), lf.closed()...), lf.open()...)
	stale := verifyBodies(r, c.origin, all)
	r.check(stale == 0, "live-proxy served %d stale bodies with no origin modification", stale)
	r.set("browser.stale_serves", float64(stale))
	r.report("correctness: %d bodies checked against origin content, %d stale", len(all), stale)

	if r.tr == nil {
		return nil
	}
	r.set("trace.overhead_pct", lf.overheadPct())
	r.report("tracing overhead: traced closed-loop rounds %.1f%% slower than untraced", lf.overheadPct())
	r.set("integrity.keygen_s", keygen)
	proxyDeltas(r, before, after)
	setTransportFigures(r, lt)
	setSpanFigures(r)
	handlerOnly(r, c.proxy, c.originURL, draws[:2000])
	var client []float64
	for _, s := range lf.closed() {
		if s.err == nil {
			client = append(client, float64(s.lat.Nanoseconds())/1e3)
		}
	}
	sort.Float64s(client)
	r.set("http.framing_us.p50", percentile(client, 50)-r.values["proxy.handler_us.p50"])
	r.report("http framing p50: client-observed %.1f us minus handler-only %.1f us", percentile(client, 50), r.values["proxy.handler_us.p50"])
	bodies := sizeMix(draws, 64)
	if err := probeIntegrity(r, signer, bodies); err != nil {
		return err
	}
	return probeDiskstore(r, filepath.Join(r.opts.workDir, "diskprobe"), bodies)
}
