// Command nsrun simulates Table VI workloads on design points and prints
// the headline statistics. With one workload and one system it prints the
// full stat block; comma-separated lists run as a parallel matrix
// (bounded by -j) with one summary line per measurement.
//
// Usage:
//
//	nsrun -workload histogram -system NS -scale ci -core OOO8
//	nsrun -workload histogram,pathfinder -system Base,NS,NS_decouple -j 4
//	nsrun -workload sssp -cpuprofile cpu.out -memprofile mem.out
//	nsrun -workload sssp -system NS -stall-report -   # cycle attribution table
//	nsrun -list
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

	nearstream "repro"
	"repro/internal/core"
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
		wname    = flag.String("workload", "histogram", "workload name(s), comma-separated (see -list)")
		sysName  = flag.String("system", "NS", "system(s), comma-separated: Base INST SINGLE NS_core NS_no_comp NS NS_no_sync NS_decouple")
		scale    = flag.String("scale", "ci", "ci or paper")
		coreTy   = flag.String("core", "OOO8", "IO4, OOO4 or OOO8")
		seed     = flag.Uint64("seed", 1, "input seed")
		jobs     = flag.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		shards   = flag.Int("shards", 1, "parallel DES engines per simulated machine (output is byte-identical at any value)")
		progress = flag.Bool("progress", false, "report per-job progress on stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write an end-of-run heap profile to this file")
		cacheDir = flag.String("cache-dir", "", "persistent result store directory (shared with nsd and other runs)")
		cacheMax = flag.Int64("cache-max", 0, "store size cap in bytes (with -cache-dir; 0 = unlimited)")
		stallOut = flag.String("stall-report", "", "write a flat where-the-cycles-went stall table (cycle attribution) to this file (- for stdout)")
		list     = flag.Bool("list", false, "list workloads and systems")
	)
	flag.Parse()

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

	if *list {
		fmt.Println("workloads:")
		for _, n := range nearstream.Workloads() {
			w := nearstream.GetWorkload(n, nearstream.ScaleCI)
			fmt.Printf("  %-12s %-5s %s\n", n, w.AddrClass, w.CmpClass)
		}
		fmt.Println("systems:")
		for _, s := range nearstream.Systems() {
			fmt.Printf("  %s\n", s)
		}
		return 0
	}

	cfg, err := harness.ParseConfig(*scale, *coreTy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cfg.Seed = *seed
	var systems []core.System
	for _, name := range strings.Split(*sysName, ",") {
		s, err := core.ParseSystem(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		systems = append(systems, s)
	}
	wnames := strings.Split(*wname, ",")
	if err := workloads.CheckNames(wnames...); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	var jobList []runner.Job
	for _, w := range wnames {
		for _, sys := range systems {
			jobList = append(jobList, cfg.Job(w, sys))
		}
	}

	// Ctrl-C cancels queued jobs promptly instead of finishing the matrix.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	pool := runner.NewPool(*jobs)
	pool.SetShards(*shards)
	var collector *nearstream.Collector
	if *stallOut != "" {
		collector = nearstream.NewCollector(0, 0)
		collector.Attribution = true
		pool.Obs = collector
	}
	if *cacheDir != "" {
		st, err := runner.OpenStore(*cacheDir, *cacheMax)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		pool.Disk = st
	}
	if *progress {
		pool.OnProgress = func(ev runner.Progress) {
			status := ""
			if ev.Err != nil {
				status = " FAILED"
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s%s\n", ev.Done, ev.Total, ev.Key, status)
		}
	}
	results, err := pool.RunCtx(ctx, jobList)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *cacheDir != "" {
		fmt.Fprintf(os.Stderr, "simulations: %d executed, %d served from cache, %d from disk\n",
			pool.Executed(), pool.Hits(), pool.DiskHits())
	} else {
		fmt.Fprintf(os.Stderr, "simulations: %d executed, %d served from cache\n",
			pool.Executed(), pool.Hits())
	}

	if collector != nil {
		if werr := writeStallTable(collector, *stallOut); werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			return 1
		}
	}

	if len(results) == 1 {
		printFull(results[0])
		return 0
	}
	fmt.Printf("%-12s %-12s %12s %12s %12s %14s %12s\n",
		"workload", "system", "cycles", "micro-ops", "offloaded", "traffic(B*hops)", "energy(J)")
	for _, r := range results {
		fmt.Printf("%-12s %-12s %12d %12d %12d %14d %12.6f\n",
			r.Workload, r.System, r.Cycles, r.TotalOps, r.OffloadedOps,
			r.TotalTraffic(), r.Energy.Total())
	}
	return 0
}

// writeStallTable renders the collector's cycle attribution as a flat
// per-component stall table ("-" writes to stdout).
func writeStallTable(c *nearstream.Collector, path string) error {
	rep := c.Report()
	if path == "-" {
		return obs.WriteStallTable(os.Stdout, rep)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteStallTable(f, rep); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

func printFull(res *nearstream.Result) {
	fmt.Printf("workload        %s\n", res.Workload)
	fmt.Printf("system          %s\n", res.System)
	fmt.Printf("cycles          %d\n", res.Cycles)
	fmt.Printf("micro-ops       %d\n", res.TotalOps)
	fmt.Printf("streamable ops  %d\n", res.StreamableOps)
	fmt.Printf("offloaded ops   %d\n", res.OffloadedOps)
	fmt.Printf("traffic (B*hops) data=%d control=%d offloaded=%d\n",
		res.TrafficData, res.TrafficControl, res.TrafficOffload)
	fmt.Printf("lock acquires   %d (conflicts %d)\n", res.LockAcquires, res.LockConflicts)
	e := res.Energy
	fmt.Printf("energy (J)      total=%.6f core=%.6f caches=%.6f noc=%.6f dram=%.6f static=%.6f\n",
		e.Total(), e.Core, e.Caches, e.NoC, e.DRAM, e.Static)
}
