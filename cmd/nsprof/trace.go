package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// traceEvent mirrors the fields obs.WriteChromeTrace emits. Extra fields
// in the file (displayTimeUnit, s) are ignored by encoding/json.
type traceEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat"`
	Ph   string `json:"ph"`
	Ts   uint64 `json:"ts"`
	Dur  uint64 `json:"dur"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
	Args struct {
		Name string `json:"name"`
		A    uint64 `json:"a"`
		B    uint64 `json:"b"`
	} `json:"args"`
}

// tileLine accumulates one (job, tile) timeline row.
type tileLine struct {
	tile    int
	byCat   map[string]int
	busy    uint64
	minTs   uint64
	maxEnd  uint64
	touched bool
}

// traceJob is one trace process: a job's name, its per-tile rows and its
// events with a duration (the candidates for the longest-events list).
type traceJob struct {
	pid   int
	name  string
	tiles map[int]*tileLine
	total int
	slow  []traceEvent
}

// runTrace is the trace subcommand: a per-job, per-tile summary of a
// Chrome trace_event file.
func runTrace(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nsprof trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 10, "how many longest-duration events to list per job")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: nsprof trace [-top N] trace.json")
		return 2
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var tf struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		fmt.Fprintf(stderr, "nsprof trace: %s: %s\n", fs.Arg(0), err)
		return 1
	}

	jobs := map[int]*traceJob{}
	for _, ev := range tf.TraceEvents {
		j := jobs[ev.Pid]
		if j == nil {
			j = &traceJob{pid: ev.Pid, tiles: map[int]*tileLine{}}
			jobs[ev.Pid] = j
		}
		if ev.Ph == "M" {
			if ev.Name == "process_name" {
				j.name = ev.Args.Name
			}
			continue
		}
		j.total++
		t := j.tiles[ev.Tid]
		if t == nil {
			t = &tileLine{tile: ev.Tid, byCat: map[string]int{}}
			j.tiles[ev.Tid] = t
		}
		t.byCat[ev.Cat]++
		t.busy += ev.Dur
		if !t.touched || ev.Ts < t.minTs {
			t.minTs = ev.Ts
		}
		if end := ev.Ts + ev.Dur; end > t.maxEnd {
			t.maxEnd = end
		}
		t.touched = true
		if ev.Dur > 0 {
			j.slow = append(j.slow, ev)
		}
	}

	pids := make([]int, 0, len(jobs))
	for pid := range jobs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		printTraceJob(stdout, jobs[pid], *top)
	}
	return 0
}

// printTraceJob renders one job's tile timeline and its top longest
// events.
func printTraceJob(w io.Writer, j *traceJob, top int) {
	fmt.Fprintf(w, "job %d: %s (%d events)\n", j.pid, j.name, j.total)
	if j.total == 0 {
		return
	}
	tiles := make([]*tileLine, 0, len(j.tiles))
	for _, t := range j.tiles {
		tiles = append(tiles, t)
	}
	sort.Slice(tiles, func(a, b int) bool { return tiles[a].tile < tiles[b].tile })
	fmt.Fprintf(w, "  %-5s %8s %8s %8s %8s %12s %22s\n",
		"tile", "stream", "cache", "noc", "dram", "busy(cyc)", "span(cyc)")
	for _, t := range tiles {
		fmt.Fprintf(w, "  %-5d %8d %8d %8d %8d %12d %10d..%-10d\n",
			t.tile, t.byCat["stream"], t.byCat["cache"], t.byCat["noc"],
			t.byCat["dram"], t.busy, t.minTs, t.maxEnd)
	}

	slow := j.slow
	sort.SliceStable(slow, func(a, b int) bool {
		if slow[a].Dur != slow[b].Dur {
			return slow[a].Dur > slow[b].Dur
		}
		return slow[a].Ts < slow[b].Ts
	})
	if top = max(top, 0); len(slow) > top {
		slow = slow[:top]
	}
	if len(slow) > 0 {
		fmt.Fprintf(w, "  top %d longest events:\n", len(slow))
		for _, ev := range slow {
			fmt.Fprintf(w, "    %-14s tile %-4d ts %-10d dur %-8d a=%d b=%d\n",
				ev.Name, ev.Tid, ev.Ts, ev.Dur, ev.Args.A, ev.Args.B)
		}
	}
}
