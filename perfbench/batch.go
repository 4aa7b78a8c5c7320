package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/workloads"
)

// sweepWorkloads is one Table VI workload per address/compute class
// (MO store, affine load, indirect load, indirect atomic, indirect
// reduce, pointer-chasing reduce), the cheapest of each class: the full
// 14-workload sweep takes ~30 s on two CPUs, too long to repeat within
// one run together with its reference check.
var sweepWorkloads = []string{"hotspot3d", "histogram", "scluster", "pr_push", "pr_pull", "bin_tree"}

// batchSpec is a fixed job set run through one fresh harness pool.
type batchSpec struct {
	name      string
	workloads []string
	systems   []core.System
	workers   int
	shards    int
}

// minBatches is the fewest batches a run times, however slow the host.
const minBatches = 3

// moreBatches reports whether a run that has timed walls should time
// another batch: until it has minBatches, and then while one more batch
// as long as the last still ends within the run's length. A run so
// measures for about its length whatever the host's speed, and its
// median batch comes from as many batches as that length holds.
func moreBatches(walls []time.Duration, seconds time.Duration) bool {
	if len(walls) < minBatches {
		return true
	}
	var sum time.Duration
	for _, w := range walls {
		sum += w
	}
	return sum+walls[len(walls)-1] <= seconds
}

// sweepSpec is the sweep workload's job set.
var sweepSpec = batchSpec{name: "sweep", workloads: sweepWorkloads,
	systems: []core.System{core.Base, core.NS, core.NSDecouple},
	workers: nproc(), shards: 1}

// shardedSpec is the job set of the shard path, which sweep's shards = 1
// bypasses: Base fans out over the shard engines while NS stays clamped
// to one shard. Its batch times swung with the shared host past the
// benchmark's bound, so it is not a workload of its own; it runs once in
// sweep's traced run. It is a subset of the sweep set, so its digests at
// shards = 1 are recorded with the sweep's.
var shardedSpec = batchSpec{name: "sharded", workloads: []string{"hotspot3d", "pr_pull", "bin_tree"},
	systems: []core.System{core.Base, core.NS, core.NSDecouple},
	workers: 1, shards: nproc()}

func (b batchSpec) config(seed uint64) harness.Config {
	return harness.Config{Scale: workloads.ScaleCI, CoreType: "OOO8", Seed: seed,
		Jobs: b.workers, Shards: b.shards}
}

// jobs lists the set Base first, as figures declare their denominators
// first; the longest jobs then start first.
func (b batchSpec) jobs(cfg harness.Config) []runner.Job {
	var out []runner.Job
	for _, s := range b.systems {
		for _, w := range b.workloads {
			out = append(out, cfg.Job(w, s))
		}
	}
	return out
}

// batchRun is one timed Pool.Run of the job set on a fresh pool.
type batchRun struct {
	wall    time.Duration
	cpu     float64   // process CPU seconds over the batch
	steal   float64   // host steal seconds over the batch, from /proc/stat
	latency []float64 // per simulated job: its host time in ms (JobTiming)
	stall   float64   // summed shard barrier stall seconds (JobTiming)
	jobs    []runner.Job
	results []*runner.Result
	pool    *runner.Pool
	err     error
}

// runBatch builds a fresh pool and runs the job set on it with col as the pool's collector, which times every job; log,
// when non-nil, receives a span for the batch and one per job.
func runBatch(cfg harness.Config, jobs []runner.Job, col *obs.Collector, log *spanLog, trace string) batchRun {
	br := batchRun{pool: harness.NewExp(cfg).Pool(), jobs: jobs}
	br.pool.Obs = col
	type done struct {
		key string
		at  time.Time
	}
	var mu sync.Mutex
	var dones []done
	br.pool.OnProgress = func(p runner.Progress) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		dones = append(dones, done{p.Key, now})
	}
	cpu0, steal0 := cpuSeconds(), stealSeconds()
	start := time.Now()
	br.results, br.err = br.pool.Run(jobs)
	end := time.Now()
	br.wall = end.Sub(start)
	br.cpu, br.steal = cpuSeconds()-cpu0, stealSeconds()-steal0
	wall := map[string]float64{}
	for _, r := range col.Records() {
		wall[r.Key] = r.Timing.WallSeconds
		br.latency = append(br.latency, r.Timing.WallSeconds*1e3)
		br.stall += r.Timing.ShardStallSeconds
	}
	if log != nil {
		id := log.add(0, trace, "batch", start, end)
		for _, d := range dones {
			begin := d.at.Add(-time.Duration(wall[d.key] * 1e9))
			log.add(id, trace, "job "+d.key, begin, d.at)
		}
	}
	return br
}

// digestsOf maps each job's key to its result digest; failed jobs are
// absent.
func digestsOf(jobs []runner.Job, results []*runner.Result) digests {
	d := digests{}
	for i, j := range jobs {
		if i < len(results) && results[i] != nil {
			d[j.Key()] = resultDigest(results[i])
		}
	}
	return d
}

// checkBatch counts the jobs of one run whose result is missing or
// differs from the reference.
func checkBatch(ref digests, br batchRun) (failed int, bad []string) {
	got := digestsOf(br.jobs, br.results)
	bad = ref.check(got)
	return len(bad) + len(br.jobs) - len(got), bad
}

// checkRecorded compares the reference run with the digests recorded
// for the seed, when the seed has them.
func checkRecorded(ref digests, seed uint64) (checked bool, bad []string) {
	rec := recorded(seed)
	if rec == nil {
		return false, nil
	}
	return true, rec.check(ref)
}

// referenceResults runs jobs on a reference pool: serial machines
// (shards = 1) and every reuse layer off.
func referenceResults(jobs []runner.Job) ([]*runner.Result, error) {
	pool := runner.NewPool(nproc())
	pool.SetShards(1)
	pool.SetReuse(false)
	return pool.Run(jobs)
}

// referenceRun is the reference the timed batches are checked against:
// the job set's digests on a reference pool.
func referenceRun(spec batchSpec, seed uint64) (digests, error) {
	jobs := spec.jobs(spec.config(seed))
	res, err := referenceResults(jobs)
	if err != nil {
		return nil, err
	}
	return digestsOf(jobs, res), nil
}

// runSweepWorkload measures the sweep workload.
func runSweepWorkload(w io.Writer, o opts) (outcome, error) {
	spec := sweepSpec
	cfg := spec.config(o.seed)
	jobs := spec.jobs(cfg)
	host := newHostRecord(spec.workers, spec.shards)
	printJSON(w, "host", host)
	fmt.Fprintf(w, "job set: %d jobs = %v x %v at CI scale on OOO8\n", len(jobs), spec.workloads, spec.systems)

	// The reference runs first, outside timing.
	t := time.Now()
	ref, err := referenceRun(spec, o.seed)
	if err != nil {
		return outcome{}, fmt.Errorf("reference: %w", err)
	}
	fmt.Fprintf(w, "reference run (shards=1, reuse off, untimed): %.3f s\n", time.Since(t).Seconds())

	var runs []batchRun
	var setups, rss []float64
	m := layerMetrics{}
	if !o.trace {
		setups, err = timeSetups(func() (time.Duration, error) {
			t := time.Now()
			harness.NewExp(cfg)
			return time.Since(t), nil
		})
		if err != nil {
			return outcome{}, err
		}
		var walls []time.Duration
		for moreBatches(walls, o.seconds) {
			// Each batch starts from the same heap: the previous pool's
			// memory is collected and returned outside timing.
			peak := startRSSPeak()
			// A collector with every hook off only times each job, as
			// the daemon's always-on collector does.
			br := runBatch(cfg, jobs, obs.NewCollector(0, 0), nil, "")
			rss = append(rss, peak.mb())
			br.pool = nil // let the pool's caches go before the next batch
			runs = append(runs, br)
			walls = append(walls, br.wall)
			fmt.Fprintf(w, "batch %d: %.3f s, process CPU %.3f s, host steal %.2f s, peak RSS %.1f MB\n",
				len(runs), br.wall.Seconds(), br.cpu, br.steal, rss[len(rss)-1])
		}
	} else {
		debug.FreeOSMemory()
		untraced := runBatch(cfg, jobs, obs.NewCollector(0, 0), nil, "")
		untraced.pool = nil
		fmt.Fprintf(w, "untraced batch: %.3f s\n", untraced.wall.Seconds())
		debug.FreeOSMemory()
		col := obs.NewCollector(0, 0)
		col.Attribution = true
		log := newSpanLog()
		traced, err := tracedSection(w, o, m, func() batchRun {
			return runBatch(cfg, jobs, col, log, spec.name)
		})
		if err != nil {
			return outcome{}, err
		}
		fmt.Fprintf(w, "traced batch: %.3f s\n", traced.wall.Seconds())
		runs = []batchRun{untraced, traced}
		m["trace.overhead"] = frac(traced.wall.Seconds(), untraced.wall.Seconds())
		if traced.err == nil {
			m.addSimulated(traced.results, col.Report())
		}
		m.addPool(traced.pool, nil)
		// The shard path once, for its barrier stalls, checked like
		// every batch against the shards = 1 reference.
		sh := shardedSpec
		debug.FreeOSMemory()
		br := runBatch(sh.config(o.seed), sh.jobs(sh.config(o.seed)), obs.NewCollector(0, 0), log, sh.name)
		br.pool = nil
		failed, _ := checkBatch(ref, br)
		fmt.Fprintf(w, "sharded batch (workers=%d, shards=%d): %.3f s, shard barrier stalls %.3f s; digest equals its shards=1 digest: %v\n",
			sh.workers, sh.shards, br.wall.Seconds(), br.stall, failed == 0)
		runs = append(runs, br)
		m["sim.shard_stall_s"] = br.stall
		if err := log.write(filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.json", spec.name, o.seed))); err != nil {
			return outcome{}, err
		}
		fmt.Fprintf(w, "spans: batch self time (pool time not covered by a job) %.3f s\n", log.selfMS("batch")/1e3)
	}

	out := outcome{}
	if checked, bad := checkRecorded(ref, o.seed); checked {
		out.Attempted += len(jobs)
		out.Failed += len(bad)
		for _, k := range bad {
			fmt.Fprintf(w, "reference MISMATCH vs digests.json: %s\n", k)
		}
		fmt.Fprintf(w, "reference vs recorded digests for seed %d: %d/%d jobs match\n", o.seed, len(jobs)-len(bad), len(jobs))
	}
	for i, br := range runs {
		failed, bad := checkBatch(ref, br)
		out.Attempted += len(br.jobs)
		out.Failed += failed
		if br.err != nil {
			fmt.Fprintf(w, "batch %d error: %v\n", i+1, br.err)
		}
		for _, k := range bad {
			fmt.Fprintf(w, "batch %d MISMATCH %s\n", i+1, k)
		}
	}
	out.Correct = out.Failed == 0
	fmt.Fprintf(w, "output check vs reference: %d/%d jobs match, batch digest %s (reference %s)\n",
		out.Attempted-out.Failed, out.Attempted,
		digestsOf(jobs, runs[0].results).batchDigest(), ref.batchDigest())
	if runs[0].err == nil {
		modelLine(w, jobs, runs[0].results)
	}

	if o.trace {
		return out, finishLayers(m, &out)
	}
	var walls, lat, good []float64
	for _, br := range runs {
		walls = append(walls, br.wall.Seconds())
		lat = append(lat, br.latency...)
		ok := 0
		for _, r := range br.results {
			if r != nil {
				ok++
			}
		}
		good = append(good, float64(ok)/br.wall.Seconds())
	}
	out.Metrics = map[string]metric{
		"setup_s":     {median(setups), "s"},
		"peak_rss_mb": {median(rss), "MB"},
		"wall_s":      {median(walls), "s"},
		"p50_ms":      {median(lat), "ms"},
		"goodput_rps": {median(good), "1/s"},
	}
	fmt.Fprintf(w, "samples: %d batches, %d job latencies, %d set-ups\n", len(walls), len(lat), len(setups))
	return out, nil
}

// tracedSection runs fn under a CPU profile, folds the profile into m's
// <layer>.self_s rows and records the runtime's GC and allocation
// counters over the same interval.
func tracedSection[T any](w io.Writer, o opts, m layerMetrics, fn func() T) (T, error) {
	var zero T
	path := filepath.Join(o.workdir, fmt.Sprintf("cpu-%s-%d.prof", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return zero, err
	}
	before := readRuntime()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return zero, err
	}
	v := fn()
	pprof.StopCPUProfile()
	after := readRuntime()
	if err := f.Close(); err != nil {
		return zero, err
	}
	m.addRuntime(before, after)
	layerMS, pkgMS, err := foldProfile(path)
	if err != nil {
		return zero, err
	}
	m.addProfile(layerMS)
	layerTable(w, layerMS, pkgMS)
	return v, nil
}

// modelLine prints the simulated NS and NS_decouple geomean speedups
// over Base next to the paper's. It is informational and gates nothing.
func modelLine(w io.Writer, jobs []runner.Job, results []*runner.Result) {
	base := map[string]float64{}
	for i, j := range jobs {
		if j.System == core.Base {
			base[j.Workload] = float64(results[i].Cycles)
		}
	}
	speed := map[core.System][]float64{}
	for i, j := range jobs {
		if j.System != core.Base && results[i].Cycles > 0 {
			speed[j.System] = append(speed[j.System], base[j.Workload]/float64(results[i].Cycles))
		}
	}
	fmt.Fprintf(w, "model (informational, ungated): geomean speedup over Base on these %d workloads at CI scale: NS %.2fx, NS_decouple %.2fx; paper (EXPERIMENTS.md, all 14 workloads): NS 3.19x, NS_decouple 4.27x. The model is checked only against these published figures.\n",
		len(base), geomean(speed[core.NS]), geomean(speed[core.NSDecouple]))
}
