package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/runner"
)

func TestPercentileTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{0.50, 20}, {0.90, 100}, {0.99, 1000}} {
		if got := minSamples(c.p); got != c.want {
			t.Errorf("minSamples(%v) = %d, want %d", c.p, got, c.want)
		}
		if supported(c.want-1, c.p) {
			t.Errorf("%d samples should not support p%v", c.want-1, c.p*100)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input: 100..1
	}
	if v, beyond := percentile(xs, 0.90); v != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if v, _ := percentile(xs, 0.50); v != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", v)
	}
}

// The serve traffic at the benchmark's run length supports every class
// percentile it names.
func TestServeClassCountsSupportNamedPercentiles(t *testing.T) {
	bench := readBenchmarkJSON(t)
	c := classCounts(requestsFor(offeredRPS, time.Duration(bench.RunSeconds)*time.Second))
	for _, x := range []struct {
		cl class
		p  float64
	}{{memo, 0.50}, {memo, 0.99}, {disk, 0.50}, {disk, 0.90}, {fresh, 0.50}, {fresh, 0.90}} {
		if !supported(c[x.cl], x.p) {
			t.Errorf("%d %s requests do not support p%v", c[x.cl], classNames[x.cl], x.p*100)
		}
	}
	// offeredRPS is the lowest whole rate that does so.
	if lower := classCounts(requestsFor(offeredRPS-1, time.Duration(bench.RunSeconds)*time.Second)); supported(lower[fresh], 0.90) {
		t.Errorf("%v requests/s already supports fresh p90; offeredRPS is not the minimum", offeredRPS-1)
	}
	// The overall p50, p90 and p99 each fall strictly inside one class
	// (memo, disk, fresh in latency order), never on a boundary.
	n := float64(c[memo] + c[disk] + c[fresh])
	memoEnd, diskEnd := float64(c[memo])/n, float64(c[memo]+c[disk])/n
	if !(0.50 < memoEnd && memoEnd < 0.90 && 0.90 < diskEnd && diskEnd < 0.99) {
		t.Errorf("class boundaries at %.3f and %.3f put a named percentile on a boundary", memoEnd, diskEnd)
	}
}

func jobsFor(prefix string, n int) []runner.Job {
	out := make([]runner.Job, n)
	for i := range out {
		out[i] = runner.Job{Workload: prefix, System: core.NS, Seed: uint64(i)}
	}
	return out
}

func TestScheduleIsSeededAndFillsTheWindow(t *testing.T) {
	counts := [numClasses]int{50, 7, 9}
	warm, dk, fr := jobsFor("w", 3), jobsFor("d", 7), jobsFor("f", 9)
	window := 2 * time.Second
	a := schedule(5, window, counts, warm, dk, fr)
	b := schedule(5, window, counts, warm, dk, fr)
	c := schedule(6, window, counts, warm, dk, fr)
	if len(a) != 66 {
		t.Fatalf("got %d arrivals, want 66", len(a))
	}
	same := true
	got := [numClasses]int{}
	used := map[string]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed gave different arrival %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			same = false
		}
		if a[i].due < 0 || a[i].due >= window || (i > 0 && a[i].due < a[i-1].due) {
			t.Fatalf("arrival %d due at %v: not sorted within the window", i, a[i].due)
		}
		got[a[i].class]++
		if a[i].class != memo {
			used[a[i].job.Key()]++
		}
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}
	if got != counts {
		t.Errorf("class counts %v, want %v", got, counts)
	}
	for k, n := range used {
		if n != 1 {
			t.Errorf("disk/fresh key %s requested %d times, want once", k, n)
		}
	}
}

// The generator is open loop: a slow response does not delay later
// sends, latency runs from the due time, and a generator held back by
// its in-flight bound records the delay as lateness.
func TestOpenLoopDueTimeAndLateness(t *testing.T) {
	arr := []arrival{{due: 0}, {due: 20 * time.Millisecond}, {due: 40 * time.Millisecond}}
	slow := 150 * time.Millisecond
	var mu sync.Mutex
	do := func(i int, a arrival, due, sent time.Time) reqResult {
		if i == 0 {
			time.Sleep(slow)
		}
		mu.Lock()
		defer mu.Unlock()
		return reqResult{due: due, sent: sent, done: time.Now(), ok: true}
	}
	t0, res := runWindow(arr, 8, do)
	for i, r := range res {
		if want := t0.Add(arr[i].due); !r.due.Equal(want) {
			t.Errorf("request %d due %v, want %v", i, r.due.Sub(t0), arr[i].due)
		}
		if r.lateness() > 15*time.Millisecond {
			t.Errorf("request %d sent %v late behind a slow response: not open loop", i, r.lateness())
		}
	}
	if res[0].latency() < slow {
		t.Errorf("slow request latency %v, want at least %v", res[0].latency(), slow)
	}

	// With one request allowed in flight, the second and third wait for
	// the slow first one: their lateness and latency both include it.
	_, res = runWindow(arr, 1, do)
	if l := res[1].lateness(); l < slow-arr[1].due-5*time.Millisecond {
		t.Errorf("blocked send lateness %v, want about %v", l, slow-arr[1].due)
	}
	if res[2].latency() < res[2].lateness() {
		t.Errorf("latency %v excludes lateness %v", res[2].latency(), res[2].lateness())
	}
}

func TestFoldTopByPackage(t *testing.T) {
	top := `File: perfbench
Type: cpu
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     400ms 40.00% 40.00%      460ms 46.00%  repro/internal/cpu.(*Core).drainWaiting
     200ms 20.00% 60.00%      200ms 20.00%  runtime.memmove
     100ms 10.00% 70.00%      100ms 10.00%  repro/internal/cache.(*Array).Lookup (inline)
     100ms 10.00% 80.00%      100ms 10.00%  repro/internal/flatmap.(*Map[go.shape.uint64,repro/internal/cache.line]).Get (partial-inline)
      50ms  5.00% 85.00%       50ms  5.00%  internal/runtime/maps.(*Iter).Next
      50ms  5.00% 90.00%       50ms  5.00%  gcWriteBarrier
      60ms  6.00% 96.00%       60ms  6.00%  net/http.(*conn).serve
      40ms  4.00%   100%       40ms  4.00%  repro/internal/serve.(*Server).runTask.func1
         0     0%   100%      400ms 40.00%  repro/internal/sim.(*Engine).Run
`
	layers, pkgs, err := foldTop(strings.NewReader(top))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cpu": 400, "runtime": 300, "cache": 100, "other": 160, "serve": 40}
	total := 0.0
	for l, v := range layers {
		total += v
		if want[l] != v {
			t.Errorf("layer %s = %v ms, want %v", l, v, want[l])
		}
	}
	if total != 1000 {
		t.Errorf("layers sum to %v ms, want the whole profile (1000)", total)
	}
	if pkgs["repro/internal/flatmap"] != 100 {
		t.Errorf("generic symbol folded to %v", pkgs)
	}
}

func TestSpanSelfTime(t *testing.T) {
	l := newSpanLog()
	at := func(ms int) time.Time { return l.t0.Add(time.Duration(ms) * time.Millisecond) }
	p := l.add(0, "b", "batch", at(0), at(100))
	l.add(p, "b", "job a", at(10), at(40))
	l.add(p, "b", "job b", at(30), at(60)) // overlaps job a
	l.add(p, "b", "job c", at(90), at(120))
	if got := l.selfMS("batch"); got < 39.99 || got > 40.01 {
		t.Errorf("batch self time %v ms, want 40 (100 - union of 10..60 and 90..100)", got)
	}
}

func sampleResult() *runner.Result {
	return &runner.Result{Workload: "bin_tree", System: core.NS, Cycles: 15430, Events: 99,
		TotalOps: 1234, StreamableOps: 1000, OffloadedOps: 900, TrafficData: 77,
		Energy: energy.Breakdown{}, LockAcquires: 3, LockConflicts: 1}
}

func TestDigestCatchesPerturbedResult(t *testing.T) {
	ref := digests{"k": resultDigest(sampleResult())}

	// The wire form (JSON, as the daemon returns it) digests the same.
	buf, err := json.Marshal(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	var wire runner.Result
	if err := json.Unmarshal(buf, &wire); err != nil {
		t.Fatal(err)
	}
	if bad := ref.check(digests{"k": resultDigest(&wire)}); len(bad) != 0 {
		t.Fatalf("round-tripped result mismatches: %v", bad)
	}

	for name, perturb := range map[string]func(*runner.Result){
		"cycles":  func(r *runner.Result) { r.Cycles++ },
		"traffic": func(r *runner.Result) { r.TrafficOffload = 1 },
		"locks":   func(r *runner.Result) { r.LockConflicts = 0 },
	} {
		r := sampleResult()
		perturb(r)
		if bad := ref.check(digests{"k": resultDigest(r)}); len(bad) != 1 {
			t.Errorf("perturbed %s not caught", name)
		}
	}
	if bad := ref.check(digests{"unknown": resultDigest(sampleResult())}); len(bad) != 1 {
		t.Error("a key without a reference must count as a mismatch")
	}
}

// Every job of the sweep and sharded sets has a recorded digest for each
// recorded seed, so a recorded seed is checked against the record.
func TestRecordedDigestsCoverTheBatchSets(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		rec := recorded(seed)
		if rec == nil {
			t.Fatalf("seed %d has no recorded digests", seed)
		}
		for _, spec := range []batchSpec{sweepSpec, shardedSpec} {
			for _, j := range spec.jobs(spec.config(seed)) {
				if rec[j.Key()] == "" {
					t.Errorf("seed %d: no recorded digest for %s", seed, j.Key())
				}
			}
		}
	}
}

// A run times at least minBatches, then another batch only while one as
// long as the last still ends within the run's length.
func TestMoreBatches(t *testing.T) {
	s := time.Second
	for _, c := range []struct {
		walls []time.Duration
		want  bool
	}{
		{nil, true},
		{[]time.Duration{30 * s, 30 * s}, true},
		{[]time.Duration{30 * s, 30 * s, 30 * s}, false},
		{[]time.Duration{10 * s, 10 * s, 10 * s}, true},
		{[]time.Duration{10 * s, 10 * s, 10 * s, 10 * s}, false},
		{[]time.Duration{8 * s, 8 * s, 8 * s, 8 * s}, true},
	} {
		if got := moreBatches(c.walls, 40*s); got != c.want {
			t.Errorf("moreBatches(%v, 40s) = %v, want %v", c.walls, got, c.want)
		}
	}
}

type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// The metrics the program reports are exactly those BENCHMARK.json
// declares, with the same units, and every declared workload exists.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	same := func(kind string, decl []struct{ Name, Unit string }, have []struct{ name, unit string }) {
		if len(decl) != len(have) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program reports %d", kind, len(decl), len(have))
			return
		}
		for i := range decl {
			if decl[i].Name != have[i].name || decl[i].Unit != have[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i,
					decl[i].Name, decl[i].Unit, have[i].name, have[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if w.Name != "sweep" && w.Name != "serve" {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}
