// Command perfbench is the BAPS benchmark: it drives the simulator and the
// live loopback cluster through their public packages, checks every output
// for correctness, and prints one JSON result line.
//
//	perfbench --workload sim-paper|sim-stream|live-proxy|live-p2p \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, taken from spans and counters recorded
// around the calls into each layer. Human-readable report lines precede the
// JSON line. The exit code is 1 when any correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workDir holds the run's scratch files (traces, disk tiers, spans).
	workDir string
	// recordGolden writes the correctness golden for this seed instead of
	// comparing against it.
	recordGolden bool
}

// metricDef is one catalogue entry, mirrored in BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the user-visible metrics every workload reports with
// --trace 0. Each workload defines its unit of work: a Get or /fetch for
// the live workloads, one replayed request (sim-stream), one suite pass
// (sim-paper).
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"hit_ratio", "ratio", "higher"},
	{"byte_hit_ratio", "ratio", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
}

// suiteStepNames is the AllReports step order; sim-paper runs and times
// each step on its own.
var suiteStepNames = []string{
	"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"memory", "overhead", "compression", "security", "ablation",
	"cooperative", "hierarchy", "latency", "metrics", "replicate",
}

// perLayer are the metrics every workload reports with --trace 1; a layer
// a workload bypasses reads 0.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"proxy.handler_us.p50", "us", "lower"},
		{"proxy.handler_us.p99", "us", "lower"},
		{"http.framing_us.p50", "us", "lower"},
		{"proxy.coalesced", "count", "higher"},
		{"proxy.origin_fetches_per_req", "ratio", "lower"},
		{"origin.calls", "count", "lower"},
		{"origin.rtt_us.p50", "us", "lower"},
		{"origin.rtt_us.p99", "us", "lower"},
		{"integrity.sign_us", "us", "lower"},
		{"integrity.verify_us", "us", "lower"},
		{"integrity.keygen_s", "s", "lower"},
		{"diskstore.get_us", "us", "lower"},
		{"diskstore.put_us", "us", "lower"},
		{"proxy.disk_hits", "count", "higher"},
		{"proxy.disk_reads", "count", "lower"},
		{"proxy.disk_writes", "count", "lower"},
		{"browser.get_us.local", "us", "lower"},
		{"browser.get_us.proxy", "us", "lower"},
		{"browser.get_us.remote", "us", "lower"},
		{"browser.get_us.origin", "us", "lower"},
		{"browser.local_hit_ratio", "ratio", "higher"},
		{"browser.stale_serves", "count", "lower"},
		{"index.batches_per_fetch", "ratio", "lower"},
		{"index.deltas_per_fetch", "ratio", "lower"},
		{"index.entries", "count", "higher"},
		{"peer.calls", "count", "lower"},
		{"peer.rtt_us.p50", "us", "lower"},
		{"peer.rtt_us.p99", "us", "lower"},
		{"peer.useful_ratio", "ratio", "higher"},
		{"proxy.false_peer_hits", "count", "lower"},
		{"proxy.invalidations_sent", "count", "lower"},
		{"workqueue.submitted", "count", "lower"},
		{"workqueue.completed", "count", "higher"},
		{"workqueue.dead_lettered", "count", "lower"},
		{"workqueue.depth_max", "count", "lower"},
		{"client.latency_ms.p99", "ms", "lower"},
		{"generator.late_ms.p99", "ms", "lower"},
		{"generator.samples", "count", "higher"},
		{"synth.gen_s", "s", "lower"},
		{"trace.decode_ns_per_req", "ns", "lower"},
		{"trace.stats_s", "s", "lower"},
		{"sim.route_wait_s", "s", "lower"},
		{"sim.tail_s", "s", "lower"},
		{"sim.shard_balance", "ratio", "lower"},
		{"core.access_ns.local", "ns", "lower"},
		{"core.access_ns.proxy", "ns", "lower"},
		{"core.access_ns.remote", "ns", "lower"},
		{"core.access_ns.miss", "ns", "lower"},
		{"core.accesses", "count", "higher"},
	}
	for _, s := range suiteStepNames {
		d = append(d, metricDef{"suite." + s + "_s", "s", "lower"})
	}
	return append(d,
		metricDef{"span.request.self_us.p50", "us", "lower"},
		metricDef{"span.request.self_us.p99", "us", "lower"},
		metricDef{"go.alloc_bytes_per_op", "B", "lower"},
		metricDef{"go.gc_cpu_fraction", "ratio", "lower"},
		metricDef{"go.goroutines_max", "count", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
	)
}()

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run accumulates one invocation's figures, checks, and report lines.
type run struct {
	opts      options
	tr        *tracer // nil when untraced
	attempted int64
	failed    int64
	failures  []string
	values    map[string]float64
}

// set records a metric value (end-to-end or per-layer by name).
func (r *run) set(name string, v float64) { r.values[name] = v }

// check records a failed correctness check when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		r.failures = append(r.failures, msg)
		fmt.Printf("CHECK FAILED: %s\n", msg)
	}
}

// report prints one human-readable line.
func (r *run) report(format string, args ...any) {
	fmt.Printf("  "+format+"\n", args...)
}

// workload is one named input set; why each exists is recorded in
// BENCHMARK.json and README.md.
type workload struct {
	name string
	run  func(*run) error
}

var workloads = []workload{
	{"sim-paper", runSimPaper},
	{"sim-stream", runSimStream},
	{"live-proxy", runLiveProxy},
	{"live-p2p", runLiveP2P},
}

func main() { os.Exit(mainCode()) }

// mainCode runs one workload and returns the exit code: 0 on success, 1
// when a correctness check failed, 2 when the run could not complete.
func mainCode() int {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.BoolVar(&o.recordGolden, "record-golden", false, "write the correctness golden for this seed")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		return fail("--trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return fail("--seconds must be positive")
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fail(fmt.Sprintf("unknown --workload %q", o.workload))
	}
	if err := os.MkdirAll(filepath.Join(".bench_build", "tmp"), 0o755); err != nil {
		return fail(err.Error())
	}
	dir, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), o.workload+"-")
	if err != nil {
		return fail(fmt.Sprintf("scratch dir: %v", err))
	}
	o.workDir = dir
	defer os.RemoveAll(dir)

	r := &run{opts: o, values: map[string]float64{}}
	if o.trace {
		r.tr = newTracer()
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("  machine: nproc=%d GOMAXPROCS=%d cpu=%q %s; live traffic crosses loopback, not a real link\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
	steal0, total0 := cpuSteal()
	if err := wl.run(r); err != nil {
		return fail(fmt.Sprintf("%s: %v", o.workload, err))
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		fmt.Printf("  machine: %.1f%% of CPU time was stolen by the hypervisor during the run\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	if _, ok := r.values["peak_rss_mib"]; !ok {
		r.set("peak_rss_mib", float64(procStatusKB("VmHWM"))/1024)
	}
	if r.tr != nil {
		path := filepath.Join(".bench_build", "spans-"+o.workload+".jsonl")
		if err := r.tr.writeFile(path); err != nil {
			fmt.Printf("  spans: %v\n", err)
		} else {
			fmt.Printf("  spans: %d written to %s\n", r.tr.len(), path)
		}
	}
	res, err := r.result()
	if err != nil {
		return fail(err.Error())
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err.Error())
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result assembles the JSON line from the catalogue for this mode.
func (r *run) result() (*result, error) {
	defs := endToEnd
	if r.opts.trace {
		defs = perLayer
	}
	res := &result{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("workload attempted no operations")
	}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			if !r.opts.trace {
				missing = append(missing, d.Name)
				continue
			}
			v = 0 // layer bypassed by this workload
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("workload did not report %s", strings.Join(missing, ", "))
	}
	return res, nil
}

func fail(msg string) int {
	fmt.Fprintf(os.Stderr, "perfbench: %s\n", msg)
	return 2
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("" elsewhere).
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// cpuSteal reads the machine-wide steal and total CPU ticks from /proc/stat
// (zeros elsewhere).
func cpuSteal() (steal, total int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		var v int64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// procStatusKB reads a kB field such as VmHWM from /proc/self/status.
func procStatusKB(field string) int64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			var kb int64
			fmt.Sscan(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), &kb)
			return kb
		}
	}
	return 0
}
