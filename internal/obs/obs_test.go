package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestRegistryInternAndExport(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("l1.hits")
	b := r.Counter("l1.misses")
	a2 := r.Counter("l1.hits") // idempotent
	a.Inc()
	a2.Add(4)
	b.Add(0)
	if got := r.Get("l1.hits"); got != 5 {
		t.Fatalf("l1.hits = %d, want 5", got)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if !r.Has("l1.misses") || r.Has("l1.evictions") {
		t.Fatal("Has must report interning, not value")
	}
	out := map[string]uint64{"l1.hits": 1}
	r.SumInto(out)
	if len(out) != 1 || out["l1.hits"] != 6 {
		t.Fatalf("snapshot = %v, want only non-zero l1.hits summed to 6", out)
	}
}

func TestCounterIncIsAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc(); c.Add(3) }); allocs != 0 {
		t.Fatalf("counter increment allocates %v/op", allocs)
	}
}

func TestTracerRingWrapAndDrop(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Emit(Event{Time: uint64(i), Kind: KindNoCMsg})
	}
	if tr.Total() != 6 || tr.Len() != 4 || tr.Dropped() != 2 {
		t.Fatalf("total/len/dropped = %d/%d/%d, want 6/4/2", tr.Total(), tr.Len(), tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		if ev.Time != uint64(i+2) {
			t.Fatalf("event %d time = %d, want %d (oldest-first)", i, ev.Time, i+2)
		}
	}
}

// AppendCanonical appends the source's retained events after the
// destination's own, sorted by every field, and counts the source's drops.
func TestTracerAppendCanonical(t *testing.T) {
	dst, src := NewTracer(8), NewTracer(3)
	dst.Emit(Event{Time: 9, Kind: KindDRAM})
	for _, ev := range []Event{
		{Time: 1, Kind: KindDRAM}, // overwritten by the wrap
		{Time: 5, Kind: KindNoCMsg, Tile: 2},
		{Time: 3, Kind: KindDRAM},
		{Time: 5, Kind: KindNoCMsg, Tile: 1},
	} {
		src.Emit(ev)
	}
	dst.AppendCanonical(src)
	var got []string
	for _, ev := range dst.Events() {
		got = append(got, fmt.Sprintf("%d/%d", ev.Time, ev.Tile))
	}
	if want := "[9/0 3/0 5/1 5/2]"; fmt.Sprint(got) != want {
		t.Fatalf("events %v, want %s", got, want)
	}
	if dst.Total() != 5 || dst.Dropped() != 0 {
		t.Fatalf("total/dropped = %d/%d, want 5/0 (one source drop folded into the total)", dst.Total(), dst.Dropped())
	}
}

func TestTracerNilAndDisabled(t *testing.T) {
	var nilTr *Tracer
	if nilTr.Enabled() || nilTr.Len() != 0 || nilTr.Dropped() != 0 {
		t.Fatal("nil tracer must be disabled and empty")
	}
	tr := NewTracer(4)
	tr.SetEnabled(false)
	tr.Emit(Event{Time: 1})
	if tr.Total() != 0 {
		t.Fatal("disabled tracer recorded an event")
	}
}

func TestTracerEmitIsAllocationFree(t *testing.T) {
	tr := NewTracer(64)
	i := uint64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		i++
		tr.Emit(Event{Time: i, Kind: KindDRAM, A: 64})
	}); allocs != 0 {
		t.Fatalf("enabled Emit allocates %v/op", allocs)
	}
}

func TestSamplerRecords(t *testing.T) {
	s := NewSampler(0)
	if s.Period != DefaultSamplePeriod {
		t.Fatalf("default period = %d", s.Period)
	}
	s.SetCols("ipc", "occ")
	s.SetCols("ignored") // second declaration is a no-op
	s.Record(100, 1.5, 2)
	s.Record(200, 0.5, 0)
	if s.Len() != 2 || len(s.Cols()) != 2 {
		t.Fatalf("len/cols = %d/%d", s.Len(), len(s.Cols()))
	}
}

func TestWriteSamplesCSVAndJSON(t *testing.T) {
	rec := &JobRecord{JobReport: JobReport{Key: "k1"}, Sampler: NewSampler(64)}
	rec.Sampler.SetCols("ipc", "occ")
	rec.Sampler.Record(64, 1.25, 3)
	var csv bytes.Buffer
	if err := WriteSamplesCSV(&csv, []*JobRecord{rec}); err != nil {
		t.Fatal(err)
	}
	want := "job,cycle,ipc,occ\nk1,64,1.25,3\n"
	if csv.String() != want {
		t.Fatalf("csv = %q, want %q", csv.String(), want)
	}
	var js bytes.Buffer
	if err := WriteSamplesJSON(&js, []*JobRecord{rec}); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(js.Bytes()) {
		t.Fatalf("samples JSON invalid: %s", js.String())
	}
}

func TestCollectorRecordsSortedAndHits(t *testing.T) {
	c := NewCollector(16, 32)
	c.Job("b")
	c.Job("a")
	c.Job("a")
	c.Hit("a")
	c.Hit("missing") // no-op
	recs := c.Records()
	if len(recs) != 2 || recs[0].Key != "a" || recs[1].Key != "b" {
		t.Fatalf("records = %v", recs)
	}
	if recs[0].MemoHits != 1 {
		t.Fatalf("a hits = %d", recs[0].MemoHits)
	}
	if recs[0].Trace == nil || recs[0].Sampler == nil {
		t.Fatal("collector with trace+sample options must attach both")
	}
	if NewCollector(0, 0).Job("x").Trace != nil {
		t.Fatal("zero trace capacity must leave Trace nil")
	}
}

func TestChromeTraceValidAndDeterministic(t *testing.T) {
	build := func() []*JobRecord {
		r := &JobRecord{JobReport: JobReport{Key: "job-a"}, Trace: NewTracer(16)}
		r.Trace.Emit(Event{Time: 5, Dur: 10, Kind: KindNoCMsg, Tile: 3, A: 7, B: 64})
		r.Trace.Emit(Event{Time: 9, Kind: KindMSHR, Tile: 1, A: 2, B: 0x40})
		return []*JobRecord{r, {JobReport: JobReport{Key: "job-b"}}}
	}
	var b1, b2 bytes.Buffer
	if err := WriteChromeTrace(&b1, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b2, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("chrome trace export is not deterministic")
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b1.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	// 2 metadata + 2 events.
	if len(parsed.TraceEvents) != 4 {
		t.Fatalf("traceEvents = %d, want 4", len(parsed.TraceEvents))
	}
	if parsed.TraceEvents[1]["ph"] != "X" || parsed.TraceEvents[1]["name"] != "noc_msg" {
		t.Fatalf("first event = %v", parsed.TraceEvents[1])
	}
}

func TestRunReportCanonicalStripsTiming(t *testing.T) {
	rep := &RunReport{
		Schema:   ReportSchema,
		Executed: 2,
		Jobs: []JobReport{{
			Key: "a", SimCycles: 100,
			Timing: JobTiming{WallSeconds: 1.5, SimCyclesPerSec: 66},
		}},
		Env: RunEnv{Command: "nsexp", Workers: 8, WallSeconds: 3},
	}
	canon := rep.Canonical()
	if canon.Jobs[0].Timing != (JobTiming{}) || canon.Env != (RunEnv{}) {
		t.Fatal("Canonical must zero timing and env")
	}
	if rep.Jobs[0].Timing.WallSeconds != 1.5 {
		t.Fatal("Canonical mutated the original")
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) || !strings.Contains(buf.String(), ReportSchema) {
		t.Fatalf("report JSON invalid or unversioned: %s", buf.String())
	}
}

func TestPeakRSSBytes(t *testing.T) {
	// Advisory: on Linux this must be positive, elsewhere 0 is fine.
	if rss := PeakRSSBytes(); rss == 0 {
		t.Log("PeakRSSBytes unavailable on this platform")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("noc.bytehops.data").Add(3)
	r.Counter("lock.acquires") // zero counters still export
	r.Counter("9starts.with.digit").Inc()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Sorted by original name, dots sanitized, leading digit escaped.
	want := "# TYPE _9starts_with_digit counter\n_9starts_with_digit 1\n" +
		"# TYPE lock_acquires counter\nlock_acquires 0\n" +
		"# TYPE noc_bytehops_data counter\nnoc_bytehops_data 3\n"
	if out != want {
		t.Fatalf("prometheus export:\n%s\nwant:\n%s", out, want)
	}
}

func TestCollectorDiskHit(t *testing.T) {
	c := NewCollector(0, 0)
	c.Job("k")
	c.DiskHit("k")
	c.DiskHit("unknown") // no record: ignored, never crashes
	if got := c.Records()[0].DiskHits; got != 1 {
		t.Fatalf("DiskHits = %d, want 1", got)
	}
}
