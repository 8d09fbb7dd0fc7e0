// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three seeded workloads — a sharded fleet round, a mixed libvdap
// serving load, and DDI disk-store ingest plus window queries — checks
// the outputs against references it computes itself, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage:
//
//	perfbench --workload fleet-round --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run alternates untraced and traced passes and reports the per-layer
// metrics, the per-layer self-time table, and the tracing overhead.
// See README.md for the workloads, metrics, and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named, unit-carrying figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passResult is what one pass of a workload measured: a fresh set-up,
// then a fixed count of timed operations.
type passResult struct {
	setup     time.Duration // set-up wall time, up to the first timed op
	wall      time.Duration // timed-phase wall time
	cpu       time.Duration // timed-phase process CPU time (user+sys)
	work      int           // throughput units completed in the timed phase
	latMS     []float64     // per-operation latency, milliseconds
	attempted int
	failed    int
	allocKB   float64 // heap bytes allocated in the timed phase, KiB
	gcCycles  float64 // GC cycles completed in the timed phase
	// layers holds this pass's per-layer figures, already reduced.
	layers map[string]float64
}

// workload is one seeded, fixed-work benchmark path.
type workload interface {
	// pass builds the system from scratch, warms it up, runs the fixed
	// timed operation sequence, and checks the outputs. tr is nil on
	// untraced passes.
	pass(tr *tracer) (*passResult, error)
	// finish runs the checks that compare across passes or against a
	// reference run, returning how many operations they failed and
	// whether the whole-run properties held.
	finish() (failed int, ok bool, err error)
	// tail is the workload's fixed tail percentile.
	tail() float64
}

// perLayer lists every per-layer metric with its unit, in print order.
// A workload that does not drive a layer reports it as 0.
var perLayer = []struct{ name, unit string }{
	{"fleet.decide_ms", "ms"},
	{"fleet.commit_ms", "ms"},
	{"fleet.aggregate_ms", "ms"},
	{"fleet.offloads_per_round", "count"},
	{"fleet.sim_latency_ms", "ms"},
	{"offload.decide_us", "us"},
	{"tasks.topo_order_us", "us"},
	{"libvdap.snapshot_ms.p50", "ms"},
	{"libvdap.bypass_ms.p50", "ms"},
	{"libvdap.window_ms.p50", "ms"},
	{"libvdap.write_ms.p50", "ms"},
	{"core.advance_ms", "ms"},
	{"libvdap.cache_hit_ratio", "ratio"},
	{"libvdap.wire_bytes_per_req", "B"},
	{"libvdap.handler_gzip_us", "us"},
	{"libvdap.handler_identity_us", "us"},
	{"libvdap.loopback_us", "us"},
	{"ddi.put_ns_per_rec", "ns"},
	{"ddi.seal_ms", "ms"},
	{"ddi.open_ms", "ms"},
	{"ddi.recent_inorder_ms", "ms"},
	{"ddi.recent_late_ms", "ms"},
	{"ddi.history_query_ms", "ms"},
	{"ddi.first_touch_ms", "ms"},
	{"ddi.skip_ratio", "ratio"},
	{"ddi.rows_scanned_per_match", "ratio"},
	{"ddi.bytes_per_record", "B"},
	{"ddi.plan_us", "us"},
	{"ddi.decode_ms", "ms"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.gc_cycles", "count"},
	{"bench.trace_overhead_pct", "%"},
}

// minPasses is the least number of passes a run makes: the end-to-end
// metrics are medians over passes (see endToEnd).
const minPasses = 5

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fleet-round, serve-mixed, or ddi-ingest-query")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "keep starting passes until this many seconds have passed")
	traceFlag := fs.Int("trace", 0, "1: alternate traced and untraced passes and report per-layer metrics")
	workDir := fs.String("dir", ".bench_build", "directory for the workload's files and the span dump")
	rev := fs.String("rev", "unknown", "source revision, for the provenance line")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	traced := *traceFlag == 1
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	w, err := newWorkload(*name, *seed, false, dir)
	if err != nil {
		return err
	}

	start := time.Now()
	var plain, withTrace []*passResult
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	for i := 0; ; i++ {
		runtime.GC()
		var ptr *tracer
		if traced && i%2 == 1 {
			ptr = tr
		}
		pr, err := w.pass(ptr)
		if err != nil {
			return fmt.Errorf("%s pass %d: %w", *name, i, err)
		}
		if ptr != nil {
			withTrace = append(withTrace, pr)
		} else {
			plain = append(plain, pr)
		}
		n := len(plain) + len(withTrace)
		if n >= minPasses && time.Since(start) >= time.Duration(*seconds)*time.Second &&
			(!traced || len(withTrace) > 0) {
			break
		}
	}
	extraFailed, ok, err := w.finish()
	if err != nil {
		return err
	}

	all := append(append([]*passResult(nil), plain...), withTrace...)
	res := result{Metrics: map[string]metric{}}
	for _, p := range all {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	res.Failed += extraFailed
	// No operation of these workloads is expected to fail: a failed
	// check is a wrong output, so the run is not correct.
	res.Correct = ok && res.Failed == 0

	printProvenance(*name, *seed, *rev, len(plain), len(withTrace))
	if traced {
		layers := reduceLayers(withTrace)
		layers["runtime.alloc_kb_per_op"] = perOp(withTrace, func(p *passResult) float64 { return p.allocKB })
		layers["runtime.gc_cycles"] = median(collect(withTrace, func(p *passResult) float64 { return p.gcCycles }))
		layers["bench.trace_overhead_pct"] = 100 * (cpuPerOp(withTrace)/cpuPerOp(plain) - 1)
		for _, l := range perLayer {
			res.Metrics[l.name] = metric{Value: layers[l.name], Unit: l.unit}
		}
		fmt.Println("per-layer self time (traced passes):")
		renderSelfTimes(os.Stdout, tr.selfTimes())
		if err := tr.writeJSON(filepath.Join(*workDir, "spans-"+*name+".json")); err != nil {
			return err
		}
	} else {
		if n := res.Attempted; tailPercentile(n, 10, w.tail()) == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: only %d operations: fewer than 10 beyond p%v\n", n, w.tail())
		}
		for k, v := range endToEnd(plain, w.tail()) {
			res.Metrics[k] = v
		}
	}
	printTable(res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// newWorkload builds a workload; small selects the reduced size the
// module's smoke test runs.
func newWorkload(name string, seed int64, small bool, dir string) (workload, error) {
	switch name {
	case "fleet-round":
		return newFleetWorkload(seed, small), nil
	case "serve-mixed":
		return newServeWorkload(seed, small, dir), nil
	case "ddi-ingest-query":
		return newDDIWorkload(seed, small, dir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fleet-round, serve-mixed, or ddi-ingest-query)", name)
}

// endToEnd computes the six end-to-end metrics over untraced passes.
// Set-up, throughput and CPU per operation are medians over passes, so
// one pass disturbed by the host does not move them.
func endToEnd(ps []*passResult, tailPct float64) map[string]metric {
	return map[string]metric{
		"setup_s":          {median(collect(ps, func(p *passResult) float64 { return p.setup.Seconds() })), "s"},
		"throughput_per_s": {median(collect(ps, func(p *passResult) float64 { return float64(p.work) / p.wall.Seconds() })), "1/s"},
		"latency_ms.p50":   {latency(ps, 50), "ms"},
		"latency_ms.tail":  {latency(ps, tailPct), "ms"},
		"cpu_ms_per_op":    {median(collect(ps, func(p *passResult) float64 { return ms(p.cpu) / float64(len(p.latMS)) })), "ms"},
		"mem_peak_mb":      {peakRSSMB(), "MB"},
	}
}

// latency is the p-th latency percentile: the median over passes of each
// pass's own percentile when every pass alone has ten samples beyond it,
// otherwise the percentile of all passes' samples pooled.
func latency(ps []*passResult, p float64) float64 {
	var pooled []float64
	perPass := true
	for _, pr := range ps {
		pooled = append(pooled, pr.latMS...)
		perPass = perPass && tailPercentile(len(pr.latMS), 10, p) > 0
	}
	if !perPass {
		return percentile(pooled, p)
	}
	return median(collect(ps, func(pr *passResult) float64 { return percentile(pr.latMS, p) }))
}

func collect(ps []*passResult, f func(*passResult) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// perOp sums f over the passes and divides by their operations.
func perOp(ps []*passResult, f func(*passResult) float64) float64 {
	var sum float64
	ops := 0
	for _, p := range ps {
		sum += f(p)
		ops += len(p.latMS)
	}
	if ops == 0 {
		return 0
	}
	return sum / float64(ops)
}

func cpuPerOp(ps []*passResult) float64 {
	return perOp(ps, func(p *passResult) float64 { return ms(p.cpu) })
}

// reduceLayers takes each per-layer figure's median over the passes.
func reduceLayers(ps []*passResult) map[string]float64 {
	vals := map[string][]float64{}
	for _, p := range ps {
		for k, v := range p.layers {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// printProvenance writes the run's host and input description as one
// JSON line, before the result line.
func printProvenance(name string, seed int64, rev string, plain, traced int) {
	prov := map[string]any{
		"provenance": map[string]any{
			"workload":      name,
			"seed":          seed,
			"num_cpu":       runtime.NumCPU(),
			"gomaxprocs":    runtime.GOMAXPROCS(0),
			"go_version":    runtime.Version(),
			"cpu_model":     cpuModel(),
			"git_rev":       rev,
			"passes":        plain,
			"traced_passes": traced,
		},
	}
	b, _ := json.Marshal(prov)
	fmt.Println(string(b))
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printTable(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-30s %14.4f %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
