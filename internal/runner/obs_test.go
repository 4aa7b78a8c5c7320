package runner

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// obsOutputs runs jobs through a fresh pool with a collector attached and
// renders the three observability exports: the Chrome trace, the
// canonicalized run report (wall-clock timing fields zeroed — they are
// the one legitimately nondeterministic part, isolated in their own
// structs for exactly this reason), and the samples CSV.
func obsOutputs(t *testing.T, workers int, jobs []Job) (trace, report, samples []byte) {
	t.Helper()
	p := NewPool(workers)
	c := obs.NewCollector(1<<12, 1024)
	p.Obs = c
	if _, err := p.Run(jobs); err != nil {
		t.Fatal(err)
	}
	var tb, rb, sb bytes.Buffer
	if err := obs.WriteChromeTrace(&tb, c.Records()); err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	rep.Executed, rep.CacheHits = p.Executed(), p.Hits()
	if err := rep.Canonical().WriteJSON(&rb); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteSamplesCSV(&sb, c.Records()); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), rb.Bytes(), sb.Bytes()
}

// TestObsOutputsDeterministicAcrossWorkerCounts is the observability
// determinism gate: the trace, report and sample exports of the same job
// batch must be byte-identical at any worker count, because collection
// hooks never inject events into a simulation and records are keyed, not
// ordered by completion.
func TestObsOutputsDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := []Job{
		job("histogram", core.NS),
		job("pathfinder", core.NSDecouple),
		job("histogram", core.NS), // duplicate: exercises the memo-hit path
	}
	tr1, rep1, s1 := obsOutputs(t, 1, jobs)
	tr8, rep8, s8 := obsOutputs(t, 8, jobs)

	if !bytes.Equal(tr1, tr8) {
		t.Error("Chrome trace differs between -j 1 and -j 8")
	}
	if !bytes.Equal(rep1, rep8) {
		t.Errorf("canonical report differs between -j 1 and -j 8:\n%s\n---\n%s", rep1, rep8)
	}
	if !bytes.Equal(s1, s8) {
		t.Error("samples CSV differs between -j 1 and -j 8")
	}

	// The outputs must also be substantive, or the equality is vacuous.
	if !bytes.Contains(tr1, []byte(`"ph":"X"`)) {
		t.Error("trace contains no duration events")
	}
	if !strings.Contains(string(rep1), `"memo_hits": 1`) {
		t.Errorf("report does not record the duplicate job's memo hit:\n%s", rep1)
	}
	if n := bytes.Count(s1, []byte("\n")); n < 3 {
		t.Errorf("samples CSV has only %d lines", n)
	}
}

// TestSamplingLeavesResultUnchanged pins that a sampler only reads the
// machine: a sampled job's Result equals the unsampled one field for
// field (events included), at the default period and at a short odd one
// that samples every few active cycles. The rows
// are stamped at strictly increasing cycles and the last one at the end
// of the run.
func TestSamplingLeavesResultUnchanged(t *testing.T) {
	jobs := []Job{
		job("hotspot3d", core.NS),
		job("histogram", core.NSDecouple),
		job("pr_pull", core.NSDecouple),
		job("bin_tree", core.NS),
	}
	for _, j := range jobs {
		want, err := Execute(j)
		if err != nil {
			t.Fatal(err)
		}
		for _, period := range []uint64{obs.DefaultSamplePeriod, 37} {
			rec := &obs.JobRecord{Sampler: obs.NewSampler(period)}
			got, err := ExecuteObs(j, rec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s at period %d: sampled result differs:\n got %+v\nwant %+v", j.Key(), period, got, want)
			}
			cycles := rec.Sampler.Cycles()
			if len(cycles) < 2 {
				t.Fatalf("%s at period %d: %d sample rows", j.Key(), period, len(cycles))
			}
			for i := 1; i < len(cycles); i++ {
				if cycles[i] <= cycles[i-1] {
					t.Fatalf("%s at period %d: row %d at cycle %d after %d", j.Key(), period, i, cycles[i], cycles[i-1])
				}
			}
			if last := cycles[len(cycles)-1]; last != got.Cycles {
				t.Errorf("%s at period %d: last row at cycle %d, run ends at %d", j.Key(), period, last, got.Cycles)
			}
		}
	}
}

// TestWrappedTraceKeepsRuntimeEvents pins that the runtime's stream events
// and the components' events share one ring: when it wraps, the ring keeps
// the run's latest events of every kind, not the components' alone. The
// traced Result equals the untraced one.
func TestWrappedTraceKeepsRuntimeEvents(t *testing.T) {
	j := job("histogram", core.NS)
	want, err := Execute(j)
	if err != nil {
		t.Fatal(err)
	}
	rec := &obs.JobRecord{Trace: obs.NewTracer(obs.DefaultTraceEvents)}
	got, err := ExecuteObs(j, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("traced result differs:\n got %+v\nwant %+v", got, want)
	}
	if rec.Trace.Dropped() == 0 {
		t.Fatalf("ring of %d events did not wrap (%d emitted)", rec.Trace.Cap(), rec.Trace.Total())
	}
	kinds := map[string]int{}
	for _, ev := range rec.Trace.Events() {
		kinds[ev.Kind.String()]++
	}
	stream := 0
	for k, n := range kinds {
		if strings.HasPrefix(k, "stream_") {
			stream += n
		}
	}
	if stream == 0 {
		t.Errorf("wrapped ring holds no stream_* event: %v", kinds)
	}
}
