package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestTraceSubcommandRendersChromeTrace writes a two-job trace with
// obs.WriteChromeTrace and renders it through `nsprof trace`: each job
// gets its name, event count, per-tile category counts, busy cycles and
// span, and the -top cap keeps only the longest events, longest first.
func TestTraceSubcommandRendersChromeTrace(t *testing.T) {
	tr := obs.NewTracer(16)
	tr.Emit(obs.Event{Time: 10, Dur: 40, Tile: 1, Kind: obs.KindNoCMsg, A: 3, B: 64})
	tr.Emit(obs.Event{Time: 20, Dur: 90, Tile: 1, Kind: obs.KindDRAM, A: 64})
	tr.Emit(obs.Event{Time: 5, Tile: 0, Kind: obs.KindStreamConfig, A: 7, B: 2})
	tr.Emit(obs.Event{Time: 30, Dur: 15, Tile: 0, Kind: obs.KindNoCMsg, A: 1, B: 8})
	recs := []*obs.JobRecord{
		{JobReport: obs.JobReport{Key: "histogram|NS"}, Trace: tr},
		{JobReport: obs.JobReport{Key: "bfs_push|Base"}},
	}
	path := filepath.Join(t.TempDir(), "t.json")
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"trace", "-top", "2", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	got := stdout.String()
	for _, want := range []string{
		"job 1: histogram|NS (4 events)",
		//  tile   stream    cache      noc     dram    busy(cyc)   span
		"  0            1        0        1        0           15          5..45",
		"  1            0        0        1        1          130         10..110",
		"  top 2 longest events:",
		"    dram           tile 1    ts 20         dur 90       a=64 b=0",
		"    noc_msg        tile 1    ts 10         dur 40       a=3 b=64",
		"job 2: bfs_push|Base (0 events)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "dur 15") {
		t.Errorf("-top 2 listed a third event:\n%s", got)
	}
	if strings.Index(got, "job 1:") > strings.Index(got, "job 2:") {
		t.Errorf("jobs out of pid order:\n%s", got)
	}

	if code := run([]string{"trace"}, &stdout, &stderr); code != 2 {
		t.Errorf("trace without a file: exit %d, want 2", code)
	}
}

// TestReportModeAggregatesAndSplitsJobs renders a two-job report: the
// default mode sums the jobs' stalls and histograms into one block in
// the -stall-report format, -per-job prints each job's own block, and
// -top caps the rows.
func TestReportModeAggregatesAndSplitsJobs(t *testing.T) {
	attrib := func(mshr, dram, dramCyc uint64) *obs.AttributionReport {
		return &obs.AttributionReport{
			Schema: obs.AttributionSchema,
			Stalls: []obs.StallEntry{
				{Reason: "mshr_merge", Component: "cache", Count: mshr},
				{Reason: "dram_queue", Component: "mem", Count: dram, Cycles: dramCyc},
			},
			Hists: []obs.HistogramReport{{Name: "dram_queue_wait_cycles", Count: dram, Sum: dramCyc}},
		}
	}
	rep := obs.RunReport{Jobs: []obs.JobReport{
		{Key: "histogram|NS", SimCycles: 1000, Attribution: attrib(7, 2, 40)},
		{Key: "bfs_push|Base", SimCycles: 500, Attribution: attrib(3, 6, 80)},
		{Key: "pathfinder|NS"}, // no attribution: skipped
	}}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	render := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(append(args, path), &stdout, &stderr); code != 0 {
			t.Fatalf("nsprof %v: exit %d, stderr: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	agg := render()
	for _, want := range []string{
		"== 2 job(s) (1500 simulated cycles) ==\n" +
			"  comp   reason                      count         cycles    %cyc\n" +
			"  mem    dram_queue                      8            120   100.0\n" +
			"  cache  mshr_merge                     10              0       -\n" +
			"  hist dram_queue_wait_cycles   count=8 sum=120 mean=15.0\n",
	} {
		if !strings.Contains(agg, want) {
			t.Errorf("aggregate output lacks %q:\n%s", want, agg)
		}
	}
	if strings.Contains(agg, "histogram|NS") {
		t.Errorf("aggregate output names a job:\n%s", agg)
	}

	per := render("-per-job")
	for _, want := range []string{
		"== histogram|NS (1000 simulated cycles) ==\n" +
			"  comp   reason                      count         cycles    %cyc\n" +
			"  mem    dram_queue                      2             40   100.0\n" +
			"  cache  mshr_merge                      7              0       -\n",
		"== bfs_push|Base (500 simulated cycles) ==\n" +
			"  comp   reason                      count         cycles    %cyc\n" +
			"  mem    dram_queue                      6             80   100.0\n" +
			"  cache  mshr_merge                      3              0       -\n" +
			"  hist dram_queue_wait_cycles   count=6 sum=80 mean=13.3\n",
	} {
		if !strings.Contains(per, want) {
			t.Errorf("-per-job output lacks %q:\n%s", want, per)
		}
	}
	if strings.Index(per, "histogram|NS") > strings.Index(per, "bfs_push|Base") {
		t.Errorf("-per-job blocks out of report order:\n%s", per)
	}
	if strings.Contains(per, "pathfinder") {
		t.Errorf("-per-job printed a job without attribution:\n%s", per)
	}

	top := render("-top", "1")
	if !strings.Contains(top, "  (top 1 of 2 stall reasons)\n") || strings.Contains(top, "mshr_merge") {
		t.Errorf("-top 1 output:\n%s", top)
	}
}
