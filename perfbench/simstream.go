package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"baps/internal/core"
	"baps/internal/sim"
	"baps/internal/synth"
	"baps/internal/trace"
)

// The sim-stream population: the synth-1m profile cut to 100k clients and
// 2M requests, about 946k distinct documents.
const (
	streamClients  = 100_000
	streamRequests = 2_000_000
)

func streamProfile(seed int64) synth.Profile {
	p := synth.MillionClients()
	p.Clients = streamClients
	p.Requests = streamRequests
	if seed != 0 {
		p.Seed = seed
	}
	return p
}

// writeBTR generates the profile's trace straight into a .btr file and
// returns the time spent inside the generator.
func writeBTR(path string, p synth.Profile) (time.Duration, error) {
	g, err := synth.NewStream(p)
	if err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	bw, err := trace.NewBTRWriter(f, p.Name)
	if err != nil {
		return 0, err
	}
	buf := make([]trace.Request, trace.StreamBatchSize)
	var gen time.Duration
	for {
		t0 := time.Now()
		n, err := g.Next(buf)
		gen += time.Since(t0)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		for i := 0; i < n; i++ {
			if err := bw.WriteRequest(buf[i]); err != nil {
				return 0, err
			}
		}
	}
	if err := bw.Finish(g.NumClients(), g.NumDocs(), g.URLAt); err != nil {
		return 0, err
	}
	return gen, f.Close()
}

// openBTR opens a .btr trace as a stream; the caller closes the file.
func openBTR(path string) (trace.Stream, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	s, err := trace.OpenBTR(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return s, f, nil
}

// replayCounts are the exact per-class outcome counts of one replay; HR
// and BHR derive from them.
type replayCounts struct {
	Requests, Local, Proxy, Remote, Parent, Misses  int64
	TotalBytes, LocalB, ProxyB, RemoteB, ParentB    int64
	FalseIndexHits, IndexMessages, IndexEntriesSent int64
}

func countsOf(res sim.Result) replayCounts {
	return replayCounts{
		Requests: res.Requests, Local: res.LocalHits, Proxy: res.ProxyHits,
		Remote: res.RemoteHits, Parent: res.ParentHits, Misses: res.Misses,
		TotalBytes: res.TotalBytes, LocalB: res.LocalBytes, ProxyB: res.ProxyBytes,
		RemoteB: res.RemoteBytes, ParentB: res.ParentBytes,
		FalseIndexHits: res.FalseIndexHits, IndexMessages: res.IndexMessages,
		IndexEntriesSent: res.IndexEntriesShipped,
	}
}

// timedStream wraps the replay's input stream in a traced run: each Next
// is a decode span, the gap before the first Next is engine build, and
// EOF marks the start of the drain-and-merge tail.
type timedStream struct {
	trace.Stream
	tr    *tracer
	pass  uint64
	root  int
	first time.Time
	eof   time.Time
}

func (s *timedStream) Next(buf []trace.Request) (int, error) {
	t0 := time.Now()
	if s.first.IsZero() {
		s.first = t0
	}
	n, err := s.Stream.Next(buf)
	t1 := time.Now()
	s.tr.record("trace.decode", s.pass, s.root, t0, t1)
	if err == io.EOF {
		s.eof = t1
	}
	return n, err
}

func runSimStream(r *run) error {
	p := streamProfile(r.opts.seed)
	path := filepath.Join(r.opts.workDir, "trace.btr")
	shards := sim.ShardCount(runtime.NumCPU(), p.Clients)

	// Set-up: generate the .btr trace and run the streaming stats pass,
	// three times; the median is setup_s.
	var setups, gens, statss []float64
	var st trace.Stats
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		gen, err := writeBTR(path, p)
		if err != nil {
			return err
		}
		t1 := time.Now()
		s, f, err := openBTR(path)
		if err != nil {
			return err
		}
		st, err = trace.StreamStats(s)
		f.Close()
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, gen.Seconds())
		statss = append(statss, time.Since(t1).Seconds())
		debug.FreeOSMemory()
	}
	r.set("setup_s", median(setups))
	r.set("synth.gen_s", median(gens))
	r.set("trace.stats_s", median(statss))
	r.report("setup: %s %d requests, %d clients, %d docs; gen+write+stats x3 median %.3f s (generator %.3f s, stats pass %.3f s)",
		st.Name, st.NumRequests, st.NumClients, st.UniqueDocs, median(setups), median(gens), median(statss))
	r.check(st.NumRequests == p.Requests, "stats pass saw %d requests, want %d", st.NumRequests, p.Requests)

	cfg := sim.DefaultConfig(core.BrowsersAware)
	var walls, tracedWalls, untracedWalls, routes, tails, balance []float64
	var first *replayCounts
	var last sim.Result
	meter, smp := startAllocMeter(), startSampler(100*time.Millisecond, nil)
	deadline := time.Now().Add(time.Duration(r.opts.seconds * float64(time.Second)))
	for pass := 0; pass < 2 || time.Now().Before(deadline); pass++ {
		traced := r.tr != nil && pass%2 == 1
		if r.tr != nil {
			r.tr.on.Store(traced)
		}
		runtime.GC()
		s, f, err := openBTR(path)
		if err != nil {
			return err
		}
		prog := sim.NewShardProgress(shards)
		in := trace.Stream(s)
		var ts *timedStream
		t0 := time.Now()
		root := -1
		if traced {
			root = r.tr.reserve("replay", uint64(pass), -1, t0)
			ts = &timedStream{Stream: s, tr: r.tr, pass: uint64(pass), root: root}
			in = ts
		}
		res, err := sim.RunShardedOpts(in, &st, cfg, sim.ShardedOptions{Shards: shards, Progress: prog})
		t1 := time.Now()
		f.Close()
		if err != nil {
			return err
		}
		wall := t1.Sub(t0).Seconds()
		walls = append(walls, wall)
		r.attempted += res.Requests
		r.check(res.Check() == nil, "replay result: %v", res.Check())
		c := countsOf(res)
		if first == nil {
			first = &c
			last = res
		}
		r.check(c == *first, "replay pass %d counts %+v differ from pass 0 %+v", pass, c, *first)
		if traced {
			r.tr.record("sim.build", uint64(pass), root, t0, ts.first)
			r.tr.record("sim.tail", uint64(pass), root, ts.eof, t1)
			r.tr.finish(root, t1)
			tails = append(tails, t1.Sub(ts.eof).Seconds())
			tracedWalls = append(tracedWalls, wall)
		} else {
			untracedWalls = append(untracedWalls, wall)
		}
		var maxC, sum int64
		for i := 0; i < prog.Shards(); i++ {
			sum += prog.Shard(i)
			maxC = max(maxC, prog.Shard(i))
		}
		balance = append(balance, float64(maxC)/(float64(sum)/float64(prog.Shards())))
	}
	if r.tr != nil {
		r.tr.on.Store(true)
		self := r.tr.selfTimes()
		for _, d := range self["replay"] {
			routes = append(routes, d.Seconds())
		}
		decodeNs := float64(sumSelf(self, "trace.decode").Nanoseconds()) / float64(len(tracedWalls)*st.NumRequests)
		overhead := overheadPct(median(untracedWalls), median(tracedWalls))
		r.set("sim.route_wait_s", median(routes))
		r.set("sim.tail_s", median(tails))
		r.set("trace.decode_ns_per_req", decodeNs)
		r.set("trace.overhead_pct", overhead)
		r.report("traced replay: decode %.1f ns/req, route (replay self) %.3f s, tail %.3f s, overhead %.1f%%",
			decodeNs, median(routes), median(tails), overhead)
	}
	r.set("sim.shard_balance", median(balance))
	setGoRuntime(r, meter, r.attempted, smp.close())

	wall := median(walls)
	r.set("throughput_per_s", float64(st.NumRequests)/wall)
	r.set("latency_p50_ms", wall*1000)
	sorted := append([]float64(nil), walls...)
	sort.Float64s(sorted)
	r.set("latency_tail_ms", sorted[len(sorted)-1]*1000)
	r.set("hit_ratio", last.HitRatio())
	r.set("byte_hit_ratio", last.ByteHitRatio())
	r.report("replay_req_s %.0f (median of %d passes, %d shards; pass wall median %.3f s, slowest %.3f s)",
		float64(st.NumRequests)/wall, len(walls), shards, wall, sorted[len(sorted)-1])
	r.report("hit_ratio %.6f byte_hit_ratio %.6f (local %d proxy %d remote %d miss %d)",
		last.HitRatio(), last.ByteHitRatio(), first.Local, first.Proxy, first.Remote, first.Misses)
	// The process peak is taken before the golden fallback, which holds the
	// whole trace in memory.
	r.set("peak_rss_mib", float64(procStatusKB("VmHWM"))/1024)

	if r.tr != nil {
		s, f, err := openBTR(path)
		if err != nil {
			return err
		}
		err = sampleCoreAccess(r, s, &st, 1_000_000)
		f.Close()
		if err != nil {
			return err
		}
	}
	return checkStreamGolden(r, p, shards, *first)
}

// checkStreamGolden compares the replay's exact counts with the golden for
// this seed and shard count. Without a golden, the same trace generated in
// memory and replayed with the same shard count must give the same counts.
func checkStreamGolden(r *run, p synth.Profile, shards int, got replayCounts) error {
	path := filepath.Join("perfbench", "golden", "sim-stream.json")
	key := fmt.Sprintf("seed=%d shards=%d", r.opts.seed, shards)
	raw, err := json.Marshal(got)
	if err != nil {
		return err
	}
	if r.opts.recordGolden {
		return recordGolden(path, key, string(raw))
	}
	want, ok, err := lookupGolden(path, key)
	if err != nil {
		return err
	}
	if ok {
		r.check(want == string(raw), "sim-stream counts %s, golden %s", raw, want)
		r.report("golden: replay counts match the recorded golden for %s", key)
		return nil
	}
	tr, err := synth.Generate(p)
	if err != nil {
		return err
	}
	st := trace.Compute(tr)
	res, err := sim.RunSharded(trace.NewSliceStream(tr), &st, sim.DefaultConfig(core.BrowsersAware), shards)
	if err != nil {
		return err
	}
	r.check(countsOf(res) == got, "sim-stream .btr replay counts %+v differ from in-memory replay %+v", got, countsOf(res))
	r.report("golden: none for %s; counts match an in-memory replay of the same trace", key)
	return nil
}
