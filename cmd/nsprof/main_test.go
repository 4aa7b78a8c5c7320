package main

import (
	"bytes"
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
