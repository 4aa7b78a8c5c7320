package runner

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

func job(wl string, sys core.System) Job {
	return Job{Workload: wl, System: sys, Scale: workloads.ScaleCI, CoreType: "OOO8", Seed: 1}
}

func TestJobKeyCanonicalization(t *testing.T) {
	plain := job("histogram", core.NS)
	// Explicitly setting every override to its default must digest
	// identically to not setting it at all.
	dflt := plain
	dflt.Overrides.SCMIssueLatency = U64(4)
	dflt.Overrides.SCCROB = Int(64)
	dflt.Overrides.MRSWLock = Bool(true)
	if plain.Key() != dflt.Key() {
		t.Fatalf("default-valued overrides changed the key:\n%s\n%s", plain.Key(), dflt.Key())
	}
	swept := plain
	swept.Overrides.SCMIssueLatency = U64(16)
	if swept.Key() == plain.Key() {
		t.Fatal("non-default override did not change the key")
	}
	if !strings.Contains(swept.Key(), "scmlat=16") {
		t.Fatalf("key %q does not name the override", swept.Key())
	}
	// The empty core type canonicalizes to OOO8.
	anon := plain
	anon.CoreType = ""
	if anon.Key() != plain.Key() {
		t.Fatalf("empty core type key %q != OOO8 key %q", anon.Key(), plain.Key())
	}
}

func TestJobKeyDiscriminates(t *testing.T) {
	base := job("histogram", core.NS)
	for _, alt := range []Job{
		job("pathfinder", core.NS),
		job("histogram", core.Base),
		{Workload: "histogram", System: core.NS, Scale: workloads.ScalePaper, CoreType: "OOO8", Seed: 1},
		{Workload: "histogram", System: core.NS, Scale: workloads.ScaleCI, CoreType: "IO4", Seed: 1},
		{Workload: "histogram", System: core.NS, Scale: workloads.ScaleCI, CoreType: "OOO8", Seed: 2},
	} {
		if alt.Key() == base.Key() {
			t.Fatalf("distinct jobs share key %q", base.Key())
		}
	}
}

func TestOverridesApply(t *testing.T) {
	p := core.DefaultParams(16)
	var o Overrides
	o.SCMIssueLatency = U64(16)
	o.SCCROB = Int(8)
	o.ScalarPE = Bool(false)
	o.Apply(&p)
	if p.SCMIssueLatency != 16 || p.SCCROB != 8 || p.ScalarPE {
		t.Fatalf("overrides not applied: %+v", p)
	}
	// Unset fields keep the defaults.
	if p.RangeWindow != 8 || !p.MRSWLock {
		t.Fatalf("unset overrides clobbered defaults: %+v", p)
	}
}

// TestOverridesEveryFieldIsATunable: each Overrides field, set to a
// non-default value, reaches the core.Params field of the same name and
// its own term of the job key — so a field added to Overrides without a
// tunables entry fails here rather than silently sweeping nothing.
func TestOverridesEveryFieldIsATunable(t *testing.T) {
	def := core.DefaultParams(16)
	ot := reflect.TypeOf(Overrides{})
	if ot.NumField() != len(tunables) {
		t.Fatalf("Overrides has %d fields, tunables %d entries", ot.NumField(), len(tunables))
	}
	plain := job("histogram", core.NS)
	for i := 0; i < ot.NumField(); i++ {
		name := ot.Field(i).Name
		dv := reflect.ValueOf(def).FieldByName(name)
		if !dv.IsValid() {
			t.Fatalf("core.Params has no field %s", name)
		}
		v := reflect.New(dv.Type()).Elem()
		switch dv.Kind() {
		case reflect.Bool:
			v.SetBool(!dv.Bool())
		case reflect.Int:
			v.SetInt(dv.Int() + 3)
		case reflect.Uint64:
			v.SetUint(dv.Uint() + 3)
		}
		j := plain
		reflect.ValueOf(&j.Overrides).Elem().Field(i).Set(v.Addr())
		p := def
		j.Overrides.Apply(&p)
		if got := reflect.ValueOf(p).FieldByName(name); got.Interface() != v.Interface() {
			t.Errorf("%s: Apply set %v, want %v", name, got, v)
		}
		if k := j.Key(); k == plain.Key() || strings.Count(k, "=") != 2 {
			t.Errorf("%s: key %q does not carry exactly one override term", name, k)
		}
	}
}

// TestNameParsers: every system, scale and core type parses back from
// its name, and a misspelling is an error naming every valid value.
func TestNameParsers(t *testing.T) {
	var systems, scales []string
	for _, s := range core.AllSystems() {
		systems = append(systems, s.String())
		if got, err := core.ParseSystem(s.String()); err != nil || got != s {
			t.Errorf("ParseSystem(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []workloads.Scale{workloads.ScaleCI, workloads.ScalePaper} {
		scales = append(scales, s.String())
		if got, err := workloads.ParseScale(s.String()); err != nil || got != s {
			t.Errorf("ParseScale(%q) = %v, %v", s, got, err)
		}
	}
	for _, name := range CoreTypes() {
		if got, err := ParseCoreType(name); err != nil || got.Name != name {
			t.Errorf("ParseCoreType(%q) = %q, %v", name, got.Name, err)
		}
	}
	if got, err := ParseCoreType(""); err != nil || got.Name != DefaultCoreType {
		t.Errorf("ParseCoreType(\"\") = %q, %v, want the default", got.Name, err)
	}
	for _, c := range []struct {
		bad   string
		parse func(string) error
		valid []string
	}{
		{"ns", func(s string) error { _, err := core.ParseSystem(s); return err }, systems},
		{"pepar", func(s string) error { _, err := workloads.ParseScale(s); return err }, scales},
		{"OOO9", func(s string) error { _, err := ParseCoreType(s); return err }, CoreTypes()},
		{"histgram", func(s string) error { return workloads.CheckNames("histogram", s) }, workloads.Names()},
	} {
		err := c.parse(c.bad)
		if err == nil {
			t.Errorf("%q parsed", c.bad)
			continue
		}
		for _, v := range append(c.valid, c.bad) {
			if !strings.Contains(err.Error(), v) {
				t.Errorf("error %q for %q does not name %q", err, c.bad, v)
			}
		}
	}
}

func TestPoolMemoizes(t *testing.T) {
	p := NewPool(2)
	jobs := []Job{
		job("histogram", core.Base),
		job("histogram", core.NS),
		job("histogram", core.Base), // duplicate within the batch
	}
	res, err := p.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != res[2] {
		t.Fatal("duplicate job did not share the memoized result")
	}
	if got := p.Executed(); got != 2 {
		t.Fatalf("executed %d simulations, want 2", got)
	}
	if got := p.Hits(); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
	// A second batch is served entirely from the cache.
	res2, err := p.Run(jobs[:2])
	if err != nil {
		t.Fatal(err)
	}
	if res2[0] != res[0] || res2[1] != res[1] {
		t.Fatal("second batch not served from cache")
	}
	if got := p.Executed(); got != 2 {
		t.Fatalf("cache miss on second batch: executed %d", got)
	}
}

func TestPoolDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := []Job{
		job("histogram", core.NS),
		job("pathfinder", core.NSDecouple),
	}
	serial, err := NewPool(1).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewPool(4).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if *serial[i] != *parallel[i] {
			t.Fatalf("job %d differs between -j 1 and -j 4:\n%+v\n%+v",
				i, *serial[i], *parallel[i])
		}
	}
}

func TestPoolErrorIsEarliestInJobOrder(t *testing.T) {
	p := NewPool(4)
	// An unknown workload fails its job, and Run reports the earliest
	// failure in declared job order regardless of scheduling.
	res, err := p.Run([]Job{
		job("histogram", core.NS),
		job("zz_first_bad", core.NS),
		job("zz_second_bad", core.NS),
	})
	if err == nil || !strings.Contains(err.Error(), "zz_first_bad") {
		t.Fatalf("err = %v, want the first bad job's error", err)
	}
	if res[0] == nil || res[0].Cycles == 0 {
		t.Fatal("successful job's result missing despite batch error")
	}
	if res[1] != nil || res[2] != nil {
		t.Fatal("failed jobs returned non-nil results")
	}
}

// TestPoolProgressCountsDistinctJobs pins the Done/Total accounting fix:
// duplicate submissions of one key within a batch collapse into a single
// progress line (previously a cached-hit line per duplicate inflated the
// totals and could report while the underlying job was still in flight in
// a concurrent batch; now a line is only emitted once the measurement is
// final).
func TestPoolProgressCountsDistinctJobs(t *testing.T) {
	p := NewPool(2)
	var mu sync.Mutex
	var events []Progress
	p.OnProgress = func(ev Progress) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	jobs := []Job{
		job("histogram", core.Base),
		job("histogram", core.Base), // in-batch duplicate: no extra line
		job("histogram", core.NS),
	}
	if _, err := p.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("progress reported %d lines, want 2 distinct jobs", len(events))
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != 2 {
			t.Fatalf("event %d has Done/Total %d/%d, want %d/2", i, ev.Done, ev.Total, i+1)
		}
		if ev.Cached || ev.Disk {
			t.Fatalf("fresh job %s reported cached=%t disk=%t", ev.Key, ev.Cached, ev.Disk)
		}
	}
	// A repeat batch reports every distinct job as a memo hit.
	events = nil
	if _, err := p.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("repeat batch reported %d lines, want 2", len(events))
	}
	for _, ev := range events {
		if !ev.Cached {
			t.Fatalf("repeat job %s not reported as cached", ev.Key)
		}
	}
}

// TestPoolStartsJobsInDeclarationOrder: worker slots go out in the order
// a batch declares its jobs. With one slot, the jobs must reach the
// executor exactly in declaration order; when every job raced for the
// slot instead, the start order followed the goroutine scheduler (the
// last-declared job often started first).
func TestPoolStartsJobsInDeclarationOrder(t *testing.T) {
	for round := 0; round < 5; round++ {
		p := NewPool(1)
		var mu sync.Mutex
		var started []string
		p.Remote = func(ctx context.Context, j Job) (*Result, error) {
			mu.Lock()
			started = append(started, j.Workload)
			mu.Unlock()
			return &Result{Workload: j.Workload, System: j.System, Cycles: 1}, nil
		}
		var jobs []Job
		var want []string
		for i := 0; i < 12; i++ {
			w := fmt.Sprintf("w%02d", i)
			jobs = append(jobs, job(w, core.NS))
			want = append(want, w)
		}
		if _, err := p.Run(jobs); err != nil {
			t.Fatal(err)
		}
		if strings.Join(started, " ") != strings.Join(want, " ") {
			t.Fatalf("round %d: start order %v, want declaration order %v", round, started, want)
		}
	}
}
