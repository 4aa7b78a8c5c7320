// Command nsexp regenerates the paper's figures and tables.
//
// Usage:
//
//	nsexp -fig 9                 # one figure, all 14 workloads
//	nsexp -fig 12 -quick         # a taxonomy-spanning 4-workload subset
//	nsexp -table 1               # a static table
//	nsexp -all -quick            # everything, sharing baseline runs
//	nsexp -all -quick -j 4       # ... across 4 simulation workers
//	nsexp -all -quick -shards 4  # ... each machine split into 4 parallel
//	                             # DES shard engines (same bytes out)
//	nsexp -fig 9 -progress       # per-job progress (+rate/ETA) on stderr
//	nsexp -fig 9 -trace t.json   # Chrome trace_event JSON (Perfetto-loadable)
//	nsexp -fig 9 -report r.json  # machine-readable per-job run report
//	nsexp -fig 9 -stall-report - # where-the-cycles-went stall attribution
//	nsexp -fig 9 -sample s.csv   # per-epoch IPC/occupancy/utilization series
//	nsexp -fig 9 -cpuprofile cpu.out -memprofile mem.out
//	                             # profile the simulator itself (go tool pprof)
//	nsexp -all -quick -cache-dir nsd-cache -progress
//	                             # read/write the persistent result store
//	                             # shared with nsd and later runs
//
// All figures of one invocation render through a single memoizing job
// pool: a measurement several figures need (every figure's
// (workload, Base) denominator, each sweep's default point) simulates
// exactly once. -j N bounds the concurrent simulations (0 = GOMAXPROCS);
// output is byte-identical for every N — including the -trace, -report
// (modulo its wall-clock timing fields) and -sample files, because
// observability hooks never inject events into a simulation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	nearstream "repro"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/workloads"
)

// main delegates to run so deferred profile writers flush before exit.
func main() {
	os.Exit(run())
}

func run() int {
	var (
		fig         = flag.String("fig", "", "figure id: 1a 1b 9 10 11 12 13 14 15 16 17")
		table       = flag.String("table", "", "static table id: 1 2 4 5 area")
		all         = flag.Bool("all", false, "run every figure and table")
		quick       = flag.Bool("quick", false, "use a 4-workload taxonomy-spanning subset")
		scale       = flag.String("scale", "ci", "ci or paper")
		coreTy      = flag.String("core", "OOO8", "IO4, OOO4 or OOO8")
		wl          = flag.String("workloads", "", "comma-separated workload subset")
		jobs        = flag.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		shards      = flag.Int("shards", 1, "parallel DES engines per simulated machine (output is byte-identical at any value)")
		progress    = flag.Bool("progress", false, "report per-job progress on stderr")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf     = flag.String("memprofile", "", "write an end-of-run heap profile to this file")
		traceOut    = flag.String("trace", "", "write a Chrome trace_event JSON of every simulated job to this file")
		reportOut   = flag.String("report", "", "write a machine-readable JSON run report to this file")
		stallOut    = flag.String("stall-report", "", "write a flat where-the-cycles-went stall table (cycle attribution) to this file (- for stdout)")
		sampleOut   = flag.String("sample", "", "write per-epoch time-series samples to this file (.json for JSON, else CSV)")
		sampleEvery = flag.Uint64("sample-every", obs.DefaultSamplePeriod, "sampling epoch in cycles (with -sample)")
		traceEvents = flag.Int("trace-events", obs.DefaultTraceEvents, "per-job trace ring capacity (with -trace)")
		cacheDir    = flag.String("cache-dir", "", "persistent result store directory (shared with nsd and other runs)")
		cacheMax    = flag.Int64("cache-max", 0, "store size cap in bytes (with -cache-dir; 0 = unlimited)")
	)
	flag.Parse()

	// Ctrl-C (or SIGTERM) cancels queued jobs promptly instead of
	// finishing the batch; simulations already on a worker complete, and
	// their results still land in the persistent store.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	cfg, err := harness.ParseConfig(*scale, *coreTy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cfg.Jobs = *jobs
	cfg.Shards = *shards
	var subset []string
	if *quick {
		subset = nearstream.QuickWorkloads()
	}
	if *wl != "" {
		subset = strings.Split(*wl, ",")
		if err := workloads.CheckNames(subset...); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	exp := nearstream.NewExperiment(cfg).WithContext(ctx)
	if *cacheDir != "" {
		st, err := nearstream.OpenStore(*cacheDir, *cacheMax)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		exp.UseStore(st)
	}

	var collector *nearstream.Collector
	if *traceOut != "" || *reportOut != "" || *sampleOut != "" || *stallOut != "" {
		events, period := 0, uint64(0)
		if *traceOut != "" {
			events = *traceEvents
		}
		if *sampleOut != "" {
			period = *sampleEvery
		}
		collector = nearstream.NewCollector(events, period)
		// -stall-report (and any -report alongside it) needs per-job
		// cycle attribution; charging is count/cycle bumps on interned
		// lanes, so results stay byte-identical either way.
		collector.Attribution = *stallOut != "" || *reportOut != ""
		exp.Observe(collector)
	}

	start := time.Now()
	if *progress {
		exp.OnProgress(func(ev runner.Progress) {
			from := "sim"
			switch {
			case ev.Disk:
				from = "disk"
			case ev.Cached:
				from = "cache"
			}
			status := ""
			if ev.Err != nil {
				status = " FAILED"
			}
			pace := ""
			if mins := time.Since(start).Minutes(); mins > 0 && ev.Done > 0 {
				rate := float64(ev.Done) / mins
				eta := time.Duration(float64(ev.Total-ev.Done) / rate * float64(time.Minute)).Round(time.Second)
				pace = fmt.Sprintf(" (%.1f jobs/min, eta %s)", rate, eta)
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %-5s %s%s%s\n", ev.Done, ev.Total, from, ev.Key, status, pace)
		})
	}

	show := func(t *nearstream.Table, err error) bool {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return false
		}
		fmt.Println(t)
		return true
	}

	switch {
	case *fig != "":
		if !show(exp.Figure(*fig, subset)) {
			return 1
		}
	case *table != "":
		if !show(nearstream.StaticTable(*table)) {
			return 1
		}
	case *all:
		for _, id := range []string{"1", "2", "4", "5", "area"} {
			if !show(nearstream.StaticTable(id)) {
				return 1
			}
		}
		for _, id := range nearstream.FigureIDs() {
			if !show(exp.Figure(id, subset)) {
				return 1
			}
		}
	default:
		flag.Usage()
		return 2
	}
	if *progress {
		executed, hits := exp.CacheStats()
		if *cacheDir != "" {
			fmt.Fprintf(os.Stderr, "simulations: %d executed, %d served from cache, %d from disk\n",
				executed, hits, exp.DiskHits())
		} else {
			fmt.Fprintf(os.Stderr, "simulations: %d executed, %d served from cache\n", executed, hits)
		}
	}
	if collector != nil {
		if err := writeObsOutputs(collector, exp, start, *traceOut, *reportOut, *sampleOut, *stallOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}

// writeObsOutputs exports the collector's trace, report, sample and
// stall-table files.
func writeObsOutputs(c *nearstream.Collector, exp *nearstream.Experiment, start time.Time, traceOut, reportOut, sampleOut, stallOut string) error {
	writeTo := func(path string, write func(f *os.File) error) error {
		if path == "-" {
			return write(os.Stdout)
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", path, err)
		}
		return f.Close()
	}
	if traceOut != "" {
		if err := writeTo(traceOut, func(f *os.File) error {
			return obs.WriteChromeTrace(f, c.Records())
		}); err != nil {
			return err
		}
	}
	if sampleOut != "" {
		write := obs.WriteSamplesCSV
		if strings.HasSuffix(sampleOut, ".json") {
			write = obs.WriteSamplesJSON
		}
		if err := writeTo(sampleOut, func(f *os.File) error {
			return write(f, c.Records())
		}); err != nil {
			return err
		}
	}
	if reportOut != "" {
		rep := c.Report()
		rep.Executed, rep.CacheHits = exp.CacheStats()
		rep.Env = obs.RunEnv{
			Command:      strings.Join(os.Args, " "),
			GoVersion:    runtime.Version(),
			Date:         start.UTC().Format(time.RFC3339),
			Workers:      exp.Workers(),
			Shards:       exp.Shards(),
			WallSeconds:  time.Since(start).Seconds(),
			PeakRSSBytes: obs.PeakRSSBytes(),
		}
		if err := writeTo(reportOut, func(f *os.File) error { return rep.WriteJSON(f) }); err != nil {
			return err
		}
	}
	if stallOut != "" {
		rep := c.Report()
		if err := writeTo(stallOut, func(f *os.File) error { return obs.WriteStallTable(f, rep) }); err != nil {
			return err
		}
	}
	return nil
}
