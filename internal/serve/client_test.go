package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/workloads"
)

// fastRetry is a test policy: deterministic microsecond-scale waits.
var fastRetry = backoff.Policy{Base: time.Millisecond, Max: 5 * time.Millisecond, NoJitter: true}

// TestClientRetriesBackpressure pins the retry loop: 429 answers (the
// daemon's admission backpressure) are retried honoring Retry-After, and
// the request eventually lands.
func TestClientRetriesBackpressure(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "0")
			writeError(w, http.StatusTooManyRequests, "queue full")
			return
		}
		writeJSON(w, http.StatusAccepted, TaskStatus{ID: "t000001", State: StateQueued})
	}))
	defer ts.Close()

	c := &Client{Base: ts.URL, Retry: fastRetry, ClientID: "test"}
	st, err := c.SubmitJob(context.Background(), JobRequest{Workload: "histogram", System: "NS"})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "t000001" || calls.Load() != 3 {
		t.Fatalf("status %+v after %d calls, want t000001 after 3", st, calls.Load())
	}
}

// TestClientGivesUpAfterAttempts: persistent transient failure surfaces
// after the attempt bound, not an infinite loop.
func TestClientGivesUpAfterAttempts(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusServiceUnavailable, "draining")
	}))
	defer ts.Close()

	c := &Client{Base: ts.URL, Retry: fastRetry, Attempts: 3}
	if _, err := c.SubmitJob(context.Background(), JobRequest{Workload: "histogram", System: "NS"}); err == nil {
		t.Fatal("submit against a permanently-503 server succeeded")
	}
	if calls.Load() != 3 {
		t.Fatalf("made %d attempts, want exactly 3", calls.Load())
	}
}

// TestClientStructuralErrorsImmediate: 400/404 are answers, not
// transients — one attempt, typed error.
func TestClientStructuralErrorsImmediate(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusNotFound, "no task")
	}))
	defer ts.Close()

	c := &Client{Base: ts.URL, Retry: fastRetry}
	_, err := c.Status(context.Background(), "t999999")
	if err == nil || !IsNotFound(err) {
		t.Fatalf("err = %v, want a 404", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("404 consumed %d attempts, want 1", calls.Load())
	}
}

// TestClientEndToEnd drives the real daemon surface: submit via the
// client, follow SSE to the terminal state, fetch the result.
func TestClientEndToEnd(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := &Client{Base: ts.URL, Retry: fastRetry, ClientID: "e2e"}
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Readyz(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := c.SubmitJob(ctx, JobRequest{Workload: "histogram", System: "NS"})
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	state, err := c.FollowEvents(ctx, st.ID, func(ev Event) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if state != StateDone {
		t.Fatalf("terminal state = %s, want done", state)
	}
	if len(events) < 3 {
		t.Fatalf("followed %d events, want >= 3 (running, progress, done)", len(events))
	}
	res, err := c.JobResult(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result == nil || res.Result.Cycles == 0 {
		t.Fatalf("result = %+v, want cycles", res)
	}
}

// TestJobRequestRoundTrip pins wire fidelity for fleet dispatch: for
// representative jobs — including sweeps with overrides and non-default
// core/seed — JobRequestFor followed by the server's buildJob yields a
// job with the identical Key() digest, so a dispatched job hits the
// same store envelope everywhere.
func TestJobRequestRoundTrip(t *testing.T) {
	s := newTestServer(t, nil)
	jobs := []runner.Job{
		{Workload: "histogram", System: core.NS, Scale: workloads.ScaleCI, Seed: 1},
		{Workload: "pathfinder", System: core.Base, Scale: workloads.ScaleCI, CoreType: "IO4", Seed: 7},
		{Workload: "bfs_push", System: core.NSDecouple, Scale: workloads.ScalePaper, CoreType: "OOO8", Seed: 3},
		{Workload: "srad", System: core.NS, Scale: workloads.ScaleCI, Seed: 1,
			Overrides: runner.Overrides{SCMIssueLatency: runner.U64(16), MRSWLock: runner.Bool(true)}},
		{Workload: "histogram", System: core.NS, Scale: workloads.ScaleCI, Seed: 1,
			Overrides: runner.Overrides{RangeWindow: runner.Int(2), ScalarPE: runner.Bool(false),
				ContextSwitchAt: runner.U64(1000)}},
		// Every tunable at a non-default value.
		{Workload: "pr_pull", System: core.NSDecouple, Scale: workloads.ScaleCI, CoreType: "OOO4", Seed: 9,
			Overrides: runner.Overrides{RangeWindow: runner.Int(4), CreditWindows: runner.Int(2),
				SCCROB: runner.Int(16), SCCCount: runner.Int(1), FIFODepth: runner.Int(32),
				SCMIssueLatency: runner.U64(64), IndirectReduceMinLen: runner.U64(8),
				ContextSwitchAt: runner.U64(500), ContextSwitchGap: runner.U64(100),
				ScalarPE: runner.Bool(false), MRSWLock: runner.Bool(false),
				AffineRangesAtCore: runner.Bool(false)}},
	}
	for _, j := range jobs {
		req := JobRequestFor(j)
		buf, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var wire JobRequest
		if err := json.Unmarshal(buf, &wire); err != nil {
			t.Fatal(err)
		}
		got, err := s.buildJob(wire)
		if err != nil {
			t.Fatalf("buildJob(%s): %v", buf, err)
		}
		if got.Key() != j.Key() {
			t.Fatalf("round trip changed the job digest:\n  sent %s\n  got  %s", j.Key(), got.Key())
		}
	}
	if k := jobs[len(jobs)-1].Key(); strings.Count(k, "=") != 13 {
		t.Fatalf("key %q does not carry all 12 overrides", k)
	}
}

// TestJobRequestWireFormatKey pins the wire format itself: a body
// written field by field in the v1 JSON names, with all 12 overrides,
// decodes to a job with this exact key. A coordinator and a worker built
// from different versions therefore agree on every store envelope.
func TestJobRequestWireFormatKey(t *testing.T) {
	s := newTestServer(t, nil)
	const body = `{"workload": "histogram", "system": "NS", "scale": "ci", "core": "OOO4", "seed": 7,
		"overrides": {"range_window": 2, "credit_windows": 4, "scc_rob": 32, "scc_count": 4,
			"fifo_depth": 8, "scm_issue_latency": 16, "indirect_reduce_min_len": 128,
			"context_switch_at": 1000, "context_switch_gap": 50, "scalar_pe": false,
			"mrsw_lock": false, "affine_ranges_at_core": false}}`
	const want = "histogram|NS|ci|OOO4|seed=7|rwin=2,credits=4,sccrob=32,scccnt=4,fifo=8," +
		"scmlat=16,irmin=128,ctxat=1000,ctxgap=50,pe=false,mrsw=false,ranges@core=false"
	var req JobRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	j, err := s.buildJob(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Key(); got != want {
		t.Fatalf("key = %s\nwant  %s", got, want)
	}
}
