// Command perfbench is the repository's benchmark: it times the two
// ways users wait on host time — regenerating figures through a runner
// pool (sweep) and getting results back from the experiment daemon
// (serve) — and checks every simulated result it gets. The pool's
// parallel-DES path (sharded) runs once in sweep's traced run. It drives the program only through the
// public functions of internal/runner, internal/harness, internal/serve
// and internal/workloads, plus obs.Collector.
//
//	perfbench --workload sweep|serve --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones of BENCHMARK.json; with --trace 1 a separate traced
// run reports the per-layer ones (CPU-profile self time per package,
// attribution stall counts, reuse and store counters, tracing overhead).
// Run it through run.sh, which builds it first.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A run times its set-up setupSamples times, setupGap apart, so each
// sample starts from idle as a user's first set-up does (about 15 µs for
// the pool, 0.8 ms for the daemon). Back-to-back samples of such short
// work swung with the shared host from one tenth of a second to the
// next; spread over two seconds, their median averages over the swings.
const (
	setupSamples = 21
	setupGap     = 100 * time.Millisecond
)

// timeSetups runs setup setupSamples times and returns the times it
// reports, in seconds.
func timeSetups(setup func() (time.Duration, error)) ([]float64, error) {
	var out []float64
	for i := 0; i < setupSamples; i++ {
		if i > 0 {
			time.Sleep(setupGap)
		}
		d, err := setup()
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// opts are the run's command-line settings.
type opts struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	workdir  string
	rps      float64 // serve's offered rate
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"wall_s", "s"},
	{"p50_ms", "ms"},
	{"goodput_rps", "1/s"},
}

// perLayer are the metrics of a traced run, on every workload; a layer
// that does no work on a workload reports 0.
var perLayer = []struct{ name, unit string }{
	{"sim.self_s", "s"}, {"sim.events", "count"}, {"sim.host_ns_per_event", "ns"},
	{"sim.idle_elided", "cycles"}, {"sim.shard_stall_s", "s"},
	{"cpu.self_s", "s"}, {"cpu.ops", "count"}, {"cpu.ipc", "ops/cycle"}, {"cpu.stalls", "count"},
	{"core.self_s", "s"}, {"core.offloaded_ops", "count"}, {"core.offload_frac", "ratio"}, {"core.stalls", "count"},
	{"cache.self_s", "s"}, {"cache.stalls", "count"}, {"cache.lock_conflict_frac", "ratio"},
	{"noc.self_s", "s"}, {"noc.bytehops", "count"}, {"noc.wait_cycles", "cycles"},
	{"mem.self_s", "s"}, {"mem.wait_cycles", "cycles"}, {"tlb.self_s", "s"}, {"prefetch.self_s", "s"},
	{"workloads.self_s", "s"}, {"workloads.generated", "count"}, {"ir.self_s", "s"},
	{"compiler.self_s", "s"}, {"machine.self_s", "s"}, {"machine.reuse_frac", "ratio"},
	{"runner.self_s", "s"}, {"runner.executed", "count"}, {"runner.memo_hits", "count"},
	{"runner.dataset_hit_frac", "ratio"}, {"runner.dataset_evictions", "count"},
	{"runner.store_loads", "count"}, {"runner.store_hits", "count"}, {"runner.store_puts", "count"},
	{"serve.self_s", "s"}, {"serve.queue_wait_p50_ms", "ms"}, {"serve.queue_wait_p90_ms", "ms"},
	{"serve.run_p50_ms", "ms"}, {"serve.http_p50_ms", "ms"}, {"serve.rejected", "count"},
	{"serve.memo_p50_ms", "ms"}, {"serve.memo_p99_ms", "ms"}, {"serve.disk_p50_ms", "ms"},
	{"serve.disk_p90_ms", "ms"}, {"serve.fresh_p50_ms", "ms"}, {"serve.fresh_p90_ms", "ms"},
	{"serve.p99_ms", "ms"},
	{"obs.self_s", "s"}, {"stats.self_s", "s"},
	{"runtime.self_s", "s"}, {"runtime.gc_cpu_frac", "ratio"}, {"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"}, {"other.self_s", "s"},
	{"gen.sent", "count"}, {"gen.late_p99_ms", "ms"},
	{"trace.overhead", "ratio"},
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "sweep or serve")
	seed := fs.Uint64("seed", 1, "input seed (Job.Seed of every job)")
	seconds := fs.Int("seconds", 20, "how long the run measures")
	trace := fs.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	workdir := fs.String("workdir", ".bench_build", "scratch directory for profiles, spans and the serve store")
	rps := fs.Float64("offered-rps", offeredRPS, "serve's offered rate in requests/s (other rates are for measuring the daemon's capacity)")
	record := fs.String("record-digests", "", "print digests.json for these comma-separated seeds")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *record != "" {
		return recordDigests(stdout, *record)
	}

	if *seconds < 1 {
		return 2, errors.New("--seconds must be at least 1")
	}
	if *rps <= 0 {
		return 2, errors.New("--offered-rps must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return 2, errors.New("--trace must be 0 or 1")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return 1, err
	}
	o := opts{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, workdir: *workdir, rps: *rps}
	var out outcome
	var err error
	switch o.workload {
	case "sweep":
		out, err = runSweepWorkload(stdout, o)
	case "serve":
		out, err = runServeWorkload(stdout, o)
	default:
		return 2, fmt.Errorf("unknown --workload %q (sweep or serve)", o.workload)
	}
	if err != nil {
		return 1, err
	}
	if !o.trace {
		if err := checkEndToEnd(out); err != nil {
			return 1, err
		}
	}
	printMetrics(stdout, out)
	buf, err := json.Marshal(out)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(buf))
	return 0, nil
}

// finishLayers turns a traced run's layer figures into its metrics:
// every per-layer name, 0 where the layer did nothing.
func finishLayers(m layerMetrics, out *outcome) error {
	out.Metrics = map[string]metric{}
	for _, d := range perLayer {
		out.Metrics[d.name] = metric{m[d.name], d.unit}
	}
	for k := range m {
		if _, ok := out.Metrics[k]; !ok {
			return fmt.Errorf("layer metric %q is not declared in perLayer", k)
		}
	}
	return nil
}

// checkEndToEnd verifies an untraced run reports exactly the declared
// end-to-end metrics, with their units.
func checkEndToEnd(out outcome) error {
	if len(out.Metrics) != len(endToEnd) {
		return fmt.Errorf("reported %d end-to-end metrics, declared %d", len(out.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m, ok := out.Metrics[d.name]; !ok || m.Unit != d.unit {
			return fmt.Errorf("end-to-end metric %s [%s] missing or in another unit", d.name, d.unit)
		}
	}
	return nil
}

// printMetrics lists every metric by name with its unit, plus the
// failure share the result line carries as failed/attempted.
func printMetrics(w io.Writer, out outcome) {
	names := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "metric %-26s %14.6g %s\n", k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
	fmt.Fprintf(w, "metric %-26s %14.6g ratio (%d of %d failed)\n", "fail_frac",
		frac(float64(out.Failed), float64(out.Attempted)), out.Failed, out.Attempted)
}

// printJSON prints one labelled JSON line.
func printJSON(w io.Writer, label string, v any) {
	buf, _ := json.Marshal(v) // plain structs of numbers and strings
	fmt.Fprintf(w, "%s: %s\n", label, buf)
}

// recordDigests prints the digests.json content for the given seeds: the
// sweep job set's per-job digests from a reference run.
func recordDigests(w io.Writer, seeds string) (int, error) {
	spec := sweepSpec
	all := map[string]digests{}
	for _, s := range strings.Split(seeds, ",") {
		seed, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return 2, err
		}
		d, err := referenceRun(spec, seed)
		if err != nil {
			return 1, err
		}
		all[strconv.FormatUint(seed, 10)] = d
	}
	buf, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(w, string(buf))
	return 0, nil
}
