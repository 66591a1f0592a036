package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"baps/internal/core"
	"baps/internal/diskstore"
	"baps/internal/integrity"
	"baps/internal/sim"
	"baps/internal/trace"
)

// setGoRuntime records the Go runtime figures of a measured phase.
func setGoRuntime(r *run, m allocMeter, ops int64, goroutinesMax int) {
	perOp, gcFrac, gcs, pause := m.perOp(ops)
	r.report("go runtime over the measured phase: %.0f B allocated per op, %d GCs, %v total pause, GC CPU fraction %.3f, max %d goroutines",
		perOp, gcs, pause, gcFrac, goroutinesMax)
	r.set("go.alloc_bytes_per_op", perOp)
	r.set("go.gc_cpu_fraction", gcFrac)
	r.set("go.goroutines_max", float64(goroutinesMax))
}

func roundAll(xs []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*p) / p
	}
	return out
}

// coreConfig builds the core.System configuration the simulator derives
// for the paper's default BAPS setup (average browser sizing).
func coreConfig(st *trace.Stats) core.Config {
	c := sim.DefaultConfig(core.BrowsersAware)
	proxyCap := int64(c.RelativeSize * float64(st.InfiniteCacheBytes))
	per := int64(c.RelativeSize * float64(st.AvgClientInfiniteBytes()))
	caps := make([]int64, st.NumClients)
	for i := range caps {
		caps[i] = per
	}
	return core.Config{
		Organization:        c.Organization,
		NumClients:          st.NumClients,
		NumDocs:             st.UniqueDocs,
		ProxyCapacity:       proxyCap,
		BrowserCapacity:     caps,
		ProxyPolicy:         c.ProxyPolicy,
		BrowserPolicy:       c.BrowserPolicy,
		MemFraction:         c.Latency.MemFraction,
		BrowserMemFraction:  c.BrowserMemFraction,
		IndexMode:           c.IndexMode,
		IndexThreshold:      c.IndexThreshold,
		IndexStrategy:       c.IndexStrategy,
		ForwardMode:         c.ForwardMode,
		ProxyCachesPeerDocs: c.ProxyCachesPeerDocs,
		CacheRemoteHits:     c.CacheRemoteHits,
	}
}

// sampleCoreAccess replays s through one core.System in a benchmark-side
// loop, timing every 8th System.Access call on its own, and reports the
// median time per hit class. maxReq > 0 stops after that many requests.
func sampleCoreAccess(r *run, s trace.Stream, st *trace.Stats, maxReq int) error {
	sys, err := core.New(coreConfig(st))
	if err != nil {
		return err
	}
	byClass := map[core.HitClass][]float64{}
	buf := make([]trace.Request, trace.StreamBatchSize)
	var n int
	for maxReq <= 0 || n < maxReq {
		k, err := s.Next(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for i := 0; i < k; i++ {
			if n%8 == 0 {
				t0 := time.Now()
				out := sys.Access(buf[i])
				byClass[out.Class] = append(byClass[out.Class], float64(time.Since(t0).Nanoseconds()))
			} else {
				sys.Access(buf[i])
			}
			n++
		}
	}
	names := map[core.HitClass]string{
		core.HitLocalBrowser: "local", core.HitProxy: "proxy",
		core.HitRemoteBrowser: "remote", core.Miss: "miss",
	}
	for class, name := range names {
		if xs := byClass[class]; len(xs) > 0 {
			r.set("core.access_ns."+name, median(xs))
		}
	}
	r.set("core.accesses", float64(n))
	r.report("core.Access sampled 1 in 8 of %d calls: median ns local %.0f proxy %.0f remote %.0f miss %.0f",
		n, median(byClass[core.HitLocalBrowser]), median(byClass[core.HitProxy]),
		median(byClass[core.HitRemoteBrowser]), median(byClass[core.Miss]))
	return nil
}

// probeIntegrity times watermark sign and verify directly on bodies of the
// workload's size mix with an RSA-2048 key.
func probeIntegrity(r *run, signer *integrity.Signer, bodies [][]byte) error {
	var signUS, verifyUS []float64
	for i := 0; i < 60; i++ {
		b := bodies[i%len(bodies)]
		t0 := time.Now()
		mark, err := signer.Watermark(b)
		if err != nil {
			return err
		}
		signUS = append(signUS, float64(time.Since(t0).Nanoseconds())/1e3)
		for j := 0; j < 4; j++ {
			t1 := time.Now()
			if err := integrity.Verify(signer.Public(), b, mark); err != nil {
				return fmt.Errorf("verify: %w", err)
			}
			verifyUS = append(verifyUS, float64(time.Since(t1).Nanoseconds())/1e3)
		}
	}
	r.set("integrity.sign_us", median(signUS))
	r.set("integrity.verify_us", median(verifyUS))
	r.report("integrity: sign median %.1f us (n=%d), verify median %.1f us (n=%d)",
		median(signUS), len(signUS), median(verifyUS), len(verifyUS))
	return nil
}

// probeDiskstore times Store.Put and Store.Get directly on bodies of the
// workload's size mix, in a fresh store under dir.
func probeDiskstore(r *run, dir string, bodies [][]byte) error {
	ds, err := diskstore.Open(dir, diskstore.Config{})
	if err != nil {
		return err
	}
	defer ds.Close()
	const n = 400
	var putUS, getUS []float64
	for i := 0; i < n; i++ {
		b := bodies[i%len(bodies)]
		t0 := time.Now()
		if err := ds.Put(fmt.Sprintf("/doc/%d", i), b, diskstore.Meta{Size: int64(len(b))}); err != nil {
			return err
		}
		putUS = append(putUS, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		got, _, err := ds.Get(fmt.Sprintf("/doc/%d", i))
		if err != nil {
			return err
		}
		getUS = append(getUS, float64(time.Since(t0).Nanoseconds())/1e3)
		r.check(len(got) == len(bodies[i%len(bodies)]), "diskstore Get returned %d bytes, put %d", len(got), len(bodies[i%len(bodies)]))
	}
	r.set("diskstore.put_us", median(putUS))
	r.set("diskstore.get_us", median(getUS))
	r.report("diskstore: put median %.1f us, get median %.1f us (n=%d each)", median(putUS), median(getUS), n)
	return nil
}
