package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"baps"
	"baps/internal/integrity"
	"baps/internal/trace"
)

// paperScale shrinks every suite workload so one pass takes a few seconds.
const paperScale = 0.1

// suiteStep is one AllReports step, rendered exactly as AllReports writes it.
type suiteStep struct {
	name string
	run  func(o baps.Options) (string, error)
}

func show(v interface{ String() string }, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return v.String() + "\n", nil
}

func series(h, b *baps.Series, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return h.Table().String() + "\n" + b.Table().String() + "\n", nil
}

// suiteSteps mirrors baps.AllReports step for step, so each step can be
// timed and the security step (random-duration RSA key generation) kept
// out of the suite wall time.
func suiteSteps() []suiteStep {
	steps := []suiteStep{
		{"table1", func(o baps.Options) (string, error) { return show(baps.Table1(o)) }},
		{"fig2", func(o baps.Options) (string, error) { return series(baps.Figure2(o)) }},
		{"fig3", func(o baps.Options) (string, error) { return series(baps.Figure3(o)) }},
		{"fig4", func(o baps.Options) (string, error) { return series(baps.Figure4(o)) }},
		{"fig5", func(o baps.Options) (string, error) { return series(baps.Figure5(o)) }},
		{"fig6", func(o baps.Options) (string, error) { return series(baps.Figure6(o)) }},
		{"fig7", func(o baps.Options) (string, error) { return series(baps.Figure7(o)) }},
		{"fig8", func(o baps.Options) (string, error) { return series(baps.Figure8(o)) }},
		{"memory", func(o baps.Options) (string, error) { return show(baps.MemoryStudyReport(o)) }},
		{"overhead", func(o baps.Options) (string, error) { return show(baps.OverheadReport(o)) }},
		{"compression", func(o baps.Options) (string, error) {
			return show(baps.IndexCompressionReport(o, "nlanr-bo1", 0))
		}},
		{"security", func(baps.Options) (string, error) { return show(baps.SecurityReport(2048, 8<<10)) }},
		{"ablation", func(o baps.Options) (string, error) { return show(baps.AblationReport(o, "nlanr-bo1")) }},
		{"cooperative", func(o baps.Options) (string, error) {
			return show(baps.CooperativeReport(o, "nlanr-bo1", []int{2, 4, 8}))
		}},
		{"hierarchy", func(o baps.Options) (string, error) { return show(baps.HierarchyReport(o, "nlanr-bo1")) }},
		{"latency", func(o baps.Options) (string, error) { return show(baps.LatencyReport(o, "nlanr-bo1")) }},
		{"metrics", func(o baps.Options) (string, error) { return show(baps.MetricsReport(o, "nlanr-bo1", nil)) }},
		{"replicate", func(o baps.Options) (string, error) { return show(baps.ReplicationReport(o, 5)) }},
	}
	for i, s := range steps {
		if s.name != suiteStepNames[i] {
			panic("suite step order drifted from suiteStepNames")
		}
	}
	return steps
}

// wallClockLabels mark the security report's measured-latency rows: the
// only suite rows that differ between runs of the same seed.
var wallClockLabels = []string{"watermark sign", "watermark verify", "anonymous 3-hop onion"}

// securityTitle starts the security report's table.
const securityTitle = "§6 security overheads"

// maskWallClock replaces every wall-clock row with a fixed marker. The
// security table pads its columns to the width of those measured values,
// so within that table (title to blank line) runs of spaces and of dashes
// are collapsed as well.
func maskWallClock(text string) string {
	lines := strings.Split(text, "\n")
	inSecurity := false
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, securityTitle):
			inSecurity = true
		case l == "":
			inSecurity = false
		}
		if !inSecurity {
			continue
		}
		lines[i] = collapseRuns(collapseRuns(l, ' '), '-')
		for _, label := range wallClockLabels {
			if strings.Contains(l, label) {
				lines[i] = "<wall-clock row masked: " + label + ">"
			}
		}
	}
	return strings.Join(lines, "\n")
}

// collapseRuns replaces every run of c in s with a single c.
func collapseRuns(s string, c byte) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == c && i > 0 && s[i-1] == c {
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func runSimPaper(r *run) error {
	o := baps.Options{Scale: paperScale, Seed: r.opts.seed}
	steps := suiteSteps()

	// Set-up: generate and intern the five profile traces and their stats,
	// the work the suite's trace memo does once per process. Repeated so
	// the median is steady (one set-up takes about 0.1 s, so nine); the
	// memo itself fills in the check pass below.
	var setups []float64
	var genS float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		var gen time.Duration
		for _, p := range baps.Profiles() {
			g0 := time.Now()
			tr, err := baps.GenerateTraceScaled(p.Name, o.Seed, paperScale)
			if err != nil {
				return err
			}
			tr.Intern()
			gen += time.Since(g0)
			_ = baps.ComputeStats(tr)
		}
		setups = append(setups, time.Since(t0).Seconds())
		genS = gen.Seconds()
	}
	r.set("setup_s", median(setups))
	r.set("synth.gen_s", genS)
	r.report("setup: trace generation + stats for %d profiles, %d times: median %.3f s", len(baps.Profiles()), len(setups), median(setups))

	// Check pass: the full step sequence, security included, compared
	// byte for byte with the golden after masking the wall-clock lines.
	// It also fills the suite's trace memo, so timed passes all start warm.
	ref := make([]string, len(steps))
	var full strings.Builder
	stepTimes := make(map[string][]float64)
	for i, s := range steps {
		t0 := time.Now()
		out, err := s.run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		d := time.Since(t0).Seconds()
		if s.name == "security" {
			r.set("suite.security_s", d)
			r.report("suite step security (outside suite wall time): %.3f s", d)
		}
		ref[i] = out
		full.WriteString(out)
		r.attempted++
	}
	if err := checkSuiteGolden(r, o, maskWallClock(full.String())); err != nil {
		return err
	}

	// Timed passes: every step but security, each output identical to the
	// check pass. In a traced run passes alternate traced and untraced.
	var walls, tracedWalls, untracedWalls []float64
	meter, smp := startAllocMeter(), startSampler(100*time.Millisecond, nil)
	deadline := time.Now().Add(time.Duration(r.opts.seconds * float64(time.Second)))
	for pass := 0; pass < 2 || time.Now().Before(deadline); pass++ {
		traced := r.tr != nil && pass%2 == 1
		if r.tr != nil {
			r.tr.on.Store(traced)
		}
		runtime.GC()
		pStart := time.Now()
		root := r.tr.reserve("suite", uint64(pass), -1, pStart)
		var wall time.Duration
		for i, s := range steps {
			if s.name == "security" {
				continue
			}
			t0 := time.Now()
			out, err := s.run(o)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			t1 := time.Now()
			r.tr.record("suite."+s.name, uint64(pass), root, t0, t1)
			wall += t1.Sub(t0)
			stepTimes[s.name] = append(stepTimes[s.name], t1.Sub(t0).Seconds())
			r.attempted++
			r.check(out == ref[i], "sim-paper pass %d step %s output differs from the check pass", pass, s.name)
		}
		r.tr.finish(root, time.Now())
		walls = append(walls, wall.Seconds())
		if traced {
			tracedWalls = append(tracedWalls, wall.Seconds())
		} else {
			untracedWalls = append(untracedWalls, wall.Seconds())
		}
	}
	if r.tr != nil {
		r.tr.on.Store(true)
	}
	setGoRuntime(r, meter, int64(len(walls)), smp.close())
	sorted := append([]float64(nil), walls...)
	sort.Float64s(sorted)
	wall := median(walls)
	r.set("throughput_per_s", 1/wall)
	r.set("latency_p50_ms", wall*1000)
	r.set("latency_tail_ms", sorted[len(sorted)-1]*1000)
	r.report("suite_wall_s (AllReports without security, scale %.2f): median %.3f s over %d passes, slowest %.3f s; %.4f passes/s",
		paperScale, wall, len(walls), sorted[len(sorted)-1], 1/wall)
	for _, name := range suiteStepNames {
		if ts, ok := stepTimes[name]; ok {
			r.set("suite."+name+"_s", median(ts))
		}
	}

	// The process peak is the suite's; the headline runs below hold
	// full-scale traces.
	r.set("peak_rss_mib", float64(procStatusKB("VmHWM"))/1024)

	// Headline hit ratios: BAPS at the paper's default configuration,
	// pooled over the five profiles at full paper scale and the suite's seed
	// (scale 1 keeps the seed-to-seed spread of the byte hit ratio small).
	var reqs, hits, bytes, hitBytes int64
	var tr *baps.Trace
	for _, p := range baps.Profiles() {
		var err error
		if tr, err = baps.GenerateTrace(p.Name, o.Seed); err != nil {
			return err
		}
		res, err := baps.Run(tr, baps.DefaultSimConfig(baps.BrowsersAware))
		if err != nil {
			return err
		}
		r.check(res.Check() == nil, "sim-paper headline run on %s: %v", p.Name, res.Check())
		reqs, hits = reqs+res.Requests, hits+res.Hits()
		bytes, hitBytes = bytes+res.TotalBytes, hitBytes+res.HitBytes()
	}
	r.set("hit_ratio", float64(hits)/float64(reqs))
	r.set("byte_hit_ratio", float64(hitBytes)/float64(bytes))
	r.report("hit_ratio %.4f byte_hit_ratio %.4f (BAPS, default config, pooled over the five profiles at scale 1)",
		float64(hits)/float64(reqs), float64(hitBytes)/float64(bytes))

	if r.tr != nil {
		r.set("trace.overhead_pct", overheadPct(median(untracedWalls), median(tracedWalls)))
		if err := sampleKeygen(r); err != nil {
			return err
		}
		st := baps.ComputeStats(tr)
		if err := sampleCoreAccess(r, trace.NewSliceStream(tr), &st, 0); err != nil {
			return err
		}
	}
	return nil
}

// overheadPct is the traced-minus-untraced difference of a time, as a
// percentage of the untraced time.
func overheadPct(untraced, traced float64) float64 {
	if untraced <= 0 || untraced != untraced || traced != traced {
		return 0
	}
	return (traced - untraced) / untraced * 100
}

// checkSuiteGolden compares the masked suite output with the recorded
// golden digest for this seed. Seeds without a golden are cross-checked
// against baps.AllReports run in this process instead.
func checkSuiteGolden(r *run, o baps.Options, masked string) error {
	sum := sha256.Sum256([]byte(masked))
	got := hex.EncodeToString(sum[:])
	path := filepath.Join("perfbench", "golden", "sim-paper.sha256")
	key := strconv.FormatInt(r.opts.seed, 10)
	if r.opts.recordGolden {
		if r.opts.seed == 1 {
			if err := os.WriteFile(filepath.Join("perfbench", "golden", "sim-paper-seed1.txt"), []byte(masked), 0o644); err != nil {
				return err
			}
		}
		return recordGolden(path, key, got)
	}
	want, ok, err := lookupGolden(path, key)
	if err != nil {
		return err
	}
	if ok {
		r.check(got == want, "sim-paper output (seed %d, masked) sha256 %s, golden %s", r.opts.seed, got, want)
		r.report("golden: sim-paper output matches the recorded golden for seed %d", r.opts.seed)
	} else {
		var buf bytes.Buffer
		if err := baps.AllReports(o, &buf); err != nil {
			return err
		}
		r.check(maskWallClock(buf.String()) == masked, "sim-paper output differs from baps.AllReports (seed %d)", r.opts.seed)
		r.report("golden: no golden for seed %d; output matches baps.AllReports run in process", r.opts.seed)
	}
	if len(r.failures) > 0 {
		dump := filepath.Join(".bench_build", fmt.Sprintf("sim-paper-seed%d.actual.txt", r.opts.seed))
		if err := os.WriteFile(dump, []byte(masked), 0o644); err == nil {
			r.report("actual output written to %s", dump)
		}
	}
	return nil
}

// lookupGolden finds the value recorded for key in a golden file of
// "key<TAB>value" lines.
func lookupGolden(path, key string) (string, bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", false, fmt.Errorf("golden: %w", err)
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(l, "\t"); ok && k == key {
			return v, true, nil
		}
	}
	return "", false, nil
}

// recordGolden sets key's value in a golden file, keeping the other lines.
func recordGolden(path, key, value string) error {
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	var kept []string
	for _, l := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if k, _, _ := strings.Cut(l, "\t"); l != "" && k != key {
			kept = append(kept, l)
		}
	}
	kept = append(kept, key+"\t"+value)
	sort.Strings(kept)
	return os.WriteFile(path, []byte(strings.Join(kept, "\n")+"\n"), 0o644)
}

// sampleKeygen times RSA-2048 key generation alone: its duration is random,
// so it is reported here and kept out of every timed figure.
func sampleKeygen(r *run) error {
	var ts []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := integrity.NewSigner(2048); err != nil {
			return err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	r.set("integrity.keygen_s", median(ts))
	r.report("integrity.keygen_s (RSA-2048, 3 samples): median %.3f s, samples %v", median(ts), roundAll(ts, 3))
	return nil
}
