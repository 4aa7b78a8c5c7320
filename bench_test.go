package nearstream

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each benchmark
// regenerates its figure at CI scale over a taxonomy-spanning workload
// subset and reports the headline number as a custom metric, so
// `go test -bench=.` both exercises the full stack and prints the
// reproduced shape. `-benchtime=1x` is implicit in spirit: every figure is
// expensive, so b.N loops re-render from scratch.

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/sim"
)

// benchSubset spans the taxonomy: multi-operand store (pathfinder), affine
// load + indirect atomic (histogram), indirect reduce (pr_pull), pointer
// chase (hash_join).
var benchSubset = []string{"pathfinder", "histogram", "pr_pull", "hash_join"}

func benchCfg() Config {
	return DefaultConfig()
}

func renderFig(b *testing.B, id string, subset []string) *Table {
	b.Helper()
	var tab *Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = Figure(id, benchCfg(), subset)
		if err != nil {
			b.Fatal(err)
		}
	}
	return tab
}

func BenchmarkFig1aStreamOpBreakdown(b *testing.B) {
	tab := renderFig(b, "1a", benchSubset)
	var streamable float64
	for _, r := range tab.Rows {
		streamable += r.Cells[0] + r.Cells[1]
	}
	b.ReportMetric(streamable/float64(len(tab.Rows)), "streamable_frac")
}

func BenchmarkFig1bIdealTraffic(b *testing.B) {
	tab := renderFig(b, "1b", benchSubset)
	var nearLLC float64
	for _, r := range tab.Rows {
		nearLLC += r.Cells[2]
	}
	b.ReportMetric(1-nearLLC/float64(len(tab.Rows)), "near_llc_traffic_cut")
}

func BenchmarkFig9OverallSpeedup(b *testing.B) {
	tab := renderFig(b, "9", benchSubset)
	ns, _ := tab.Cell("geomean", "NS")
	dec, _ := tab.Cell("geomean", "NS_decouple")
	b.ReportMetric(ns, "NS_speedup")
	b.ReportMetric(dec, "NS_decouple_speedup")
}

func BenchmarkFig10EnergyPerf(b *testing.B) {
	tab := renderFig(b, "10", []string{"pathfinder", "pr_pull"})
	en, _ := tab.Cell("OOO8", "NS energy")
	b.ReportMetric(en, "NS_energy_ratio_OOO8")
}

func BenchmarkFig11OffloadedOps(b *testing.B) {
	tab := renderFig(b, "11", benchSubset)
	var off, str float64
	for _, r := range tab.Rows {
		str += r.Cells[0]
		off += r.Cells[1]
	}
	b.ReportMetric(off/str, "offloaded_of_streamable")
}

func BenchmarkFig12Traffic(b *testing.B) {
	tab := renderFig(b, "12", []string{"pathfinder", "pr_pull"})
	col := tab.Col("NS_decouple/data")
	var total float64
	for _, r := range tab.Rows {
		total += r.Cells[col] + r.Cells[col+1] + r.Cells[col+2]
	}
	b.ReportMetric(1-total/float64(len(tab.Rows)), "decouple_traffic_cut")
}

func BenchmarkFig13SCMLatency(b *testing.B) {
	tab := renderFig(b, "13", []string{"pathfinder", "hash_join"})
	v, _ := tab.Cell("NS_decouple", "16cyc")
	b.ReportMetric(v, "decouple_rel_perf_16cyc")
}

func BenchmarkFig14SCCROB(b *testing.B) {
	tab := renderFig(b, "14", []string{"pathfinder", "pr_pull"})
	v, _ := tab.Cell("pathfinder", "8")
	b.ReportMetric(v, "pathfinder_perf_rob8")
}

func BenchmarkFig15AffineRanges(b *testing.B) {
	tab := renderFig(b, "15", []string{"pathfinder", "histogram"})
	v, _ := tab.Cell("pathfinder", "traffic ratio")
	b.ReportMetric(v, "core_range_traffic_ratio")
}

func BenchmarkFig16LockType(b *testing.B) {
	tab := renderFig(b, "16", []string{"bfs_push"})
	v, _ := tab.Cell("bfs_push", "conflict ratio")
	b.ReportMetric(v, "mrsw_conflict_ratio")
}

func BenchmarkFig17ScalarPE(b *testing.B) {
	tab := renderFig(b, "17", []string{"hash_join", "pr_pull"})
	v, _ := tab.Cell("hash_join", "speedup")
	b.ReportMetric(v, "hash_join_pe_speedup")
}

func BenchmarkTableICapabilities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := StaticTable("1"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIIPatternMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := StaticTable("2"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIVEncoding(b *testing.B) {
	var tab *Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = StaticTable("4")
		if err != nil {
			b.Fatal(err)
		}
	}
	v, _ := tab.Cell("affine", "bytes")
	b.ReportMetric(v, "affine_cfg_bytes")
}

func BenchmarkAreaOverhead(b *testing.B) {
	var tab *Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = StaticTable("area")
		if err != nil {
			b.Fatal(err)
		}
	}
	v, _ := tab.Cell("overhead% OOO8", "value")
	b.ReportMetric(v, "chip_overhead_pct_OOO8")
}

// BenchmarkWorkloadNS benchmarks a single representative NS run end to end
// (the unit of every figure above).
func BenchmarkWorkloadNS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunOne("histogram", core.NS, benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatrix compares serial vs pooled execution of a 4-workload ×
// 3-system matrix: the experiment runner's throughput number. Each
// iteration uses a fresh pool so memoization cannot mask execution cost;
// the pooled/serial wall-clock ratio tracks how well the runner converts
// cores into figure throughput.
func BenchmarkMatrix(b *testing.B) {
	cfg := benchCfg()
	var jobs []runner.Job
	for _, w := range benchSubset {
		for _, sys := range []System{Base, NS, NSDecouple} {
			jobs = append(jobs, cfg.Job(w, sys))
		}
	}
	run := func(b *testing.B, workers int) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			if _, err := runner.NewPool(workers).Run(jobs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(jobs)), "jobs/matrix")
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("pooled", func(b *testing.B) { run(b, 0) })
}

// BenchmarkBigMesh16x16 scales the simulated machine past the paper's 8×8
// to a 16×16 mesh — 256 tiles — and drives a synthetic all-tiles access
// storm (strided private lines plus a contended shared line, mixed reads
// and writes) through the full coherence/NoC/DRAM stack.
func BenchmarkBigMesh16x16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := machine.Default()
		cfg.NoC.Width, cfg.NoC.Height = 16, 16
		m := machine.New(cfg)
		for tile := 0; tile < m.Tiles(); tile++ {
			tile := tile
			base := uint64(0x100000 + tile*64*257)
			for k := 0; k < 8; k++ {
				addr := base + uint64(k)*64*uint64(1+tile%3)
				if k%5 == 4 {
					addr = 0x400000 + uint64(k%2)*64
				}
				write := (tile+k)%3 == 0
				m.Engine.ScheduleAt(sim.Time(1+tile+7*k), func() {
					m.Hier.Tile(tile).Access(addr, write, uint64(tile*100+k), func(cache.Level) {})
				})
			}
		}
		m.Engine.Run()
	}
}
