package serve

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/runner"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// newTestServer builds a daemon with a small CI-scale configuration.
func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{Harness: harness.DefaultConfig()}
	cfg.Harness.Jobs = 2
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// postJSON submits a body and decodes the JSON response into out.
func postJSON(t *testing.T, client *http.Client, url, clientID string, body any, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Client-ID", clientID)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

// getJSON fetches a URL and decodes the JSON response into out.
func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

// waitState polls a task's status until it reaches a terminal state.
func waitState(t *testing.T, base, id string) TaskStatus {
	t.Helper()
	deadline := time.Now().Add(180 * time.Second)
	for time.Now().Before(deadline) {
		var st TaskStatus
		getJSON(t, base+"/api/v1/jobs/"+id, &st)
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("task %s did not finish", id)
	return TaskStatus{}
}

// TestServeJobDiskHitAcrossDaemons is the cross-process contract: the same
// job submitted to two daemon instances (standing in for two processes)
// sharing one cache directory simulates exactly once — the second daemon
// serves it from disk.
func TestServeJobDiskHitAcrossDaemons(t *testing.T) {
	dir := t.TempDir()
	req := JobRequest{Workload: "histogram", System: "NS"}

	run := func(wantSource string, wantExecuted, wantDisk uint64) {
		s := newTestServer(t, func(c *Config) { c.CacheDir = dir })
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		var st TaskStatus
		resp := postJSON(t, ts.Client(), ts.URL+"/api/v1/jobs", "c1", req, &st)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status = %d, want 202", resp.StatusCode)
		}
		fin := waitState(t, ts.URL, st.ID)
		if fin.State != StateDone {
			t.Fatalf("task state = %s (%s), want done", fin.State, fin.Error)
		}
		if fin.Source != wantSource {
			t.Fatalf("task source = %q, want %q", fin.Source, wantSource)
		}
		var res JobResult
		getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID+"/result", &res)
		if res.Result == nil || res.Result.Cycles == 0 {
			t.Fatalf("result missing: %+v", res)
		}
		pool := s.Exp().Pool()
		if pool.Executed() != wantExecuted || pool.DiskHits() != wantDisk {
			t.Fatalf("executed=%d diskHits=%d, want %d/%d",
				pool.Executed(), pool.DiskHits(), wantExecuted, wantDisk)
		}
	}

	run("sim", 1, 0)  // first daemon pays for the simulation
	run("disk", 0, 1) // second daemon is served from the shared store
}

// TestServeFigureDigestMatchesCLI pins wire fidelity: a figure fetched over
// HTTP is byte-identical to the harness rendering the CLI prints, and the
// reported sha256 matches the text. The reference rendering populates a
// store the daemon then reads, so the bytes must also survive the disk
// round trip.
func TestServeFigureDigestMatchesCLI(t *testing.T) {
	subset, query := harness.QuickSet(), "quick=1"
	if raceEnabled {
		subset, query = []string{"histogram"}, "workloads=histogram"
	}
	dir := t.TempDir()
	cfg := harness.DefaultConfig()
	ref := harness.NewExp(cfg)
	st0, err := runner.OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref.Pool().Disk = st0
	tbl, err := ref.Fig12(subset)
	if err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, func(c *Config) { c.Harness.Jobs = 0; c.CacheDir = dir })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var st TaskStatus
	resp := postJSON(t, ts.Client(), ts.URL+"/api/v1/figures/12?"+query, "c1", struct{}{}, &st)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if fin := waitState(t, ts.URL, st.ID); fin.State != StateDone {
		t.Fatalf("figure task state = %s (%s)", fin.State, fin.Error)
	}
	var res FigureResult
	getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID+"/result", &res)

	if s.Exp().Pool().Executed() != 0 {
		t.Fatalf("daemon re-simulated %d jobs the store already held", s.Exp().Pool().Executed())
	}
	if res.Text != tbl.String() {
		t.Fatalf("HTTP figure text differs from the harness rendering:\n%s\n---\n%s",
			res.Text, tbl.String())
	}
	sum := sha256.Sum256([]byte(res.Text))
	if res.SHA256 != hex.EncodeToString(sum[:]) {
		t.Fatalf("reported digest %s does not match the text", res.SHA256)
	}

	// ?format=text returns the raw table bytes.
	raw, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/result?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, raw)); err != nil {
		t.Fatal(err)
	}
	if sb.String() != tbl.String() {
		t.Fatal("format=text bytes differ from the harness rendering")
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// blockingStub replaces runJobs with a gate the test controls: each call
// parks until the gate channel closes or the task's context cancels.
func blockingStub(gate <-chan struct{}) func(ctx context.Context, jobs []runner.Job, fn func(runner.Progress)) ([]*runner.Result, error) {
	return func(ctx context.Context, jobs []runner.Job, fn func(runner.Progress)) ([]*runner.Result, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		res := make([]*runner.Result, len(jobs))
		for i, j := range jobs {
			res[i] = &runner.Result{Workload: j.Workload, System: j.System, Cycles: 1}
			if fn != nil {
				fn(runner.Progress{Job: j, Key: j.Key(), Done: i + 1, Total: len(jobs)})
			}
		}
		return res, nil
	}
}

// TestServeQueueBackpressure pins the bounded queue: once QueueDepth tasks
// are in flight, further submissions get 429 with a Retry-After hint, and a
// freed slot admits again.
func TestServeQueueBackpressure(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.QueueDepth = 2; c.MaxPerClient = 8 })
	gate := make(chan struct{})
	s.runJobs = blockingStub(gate)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := JobRequest{Workload: "histogram", System: "NS"}
	var first, second TaskStatus
	if resp := postJSON(t, ts.Client(), ts.URL+"/api/v1/jobs", "c1", req, &first); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	req2 := JobRequest{Workload: "pathfinder", System: "NS"}
	if resp := postJSON(t, ts.Client(), ts.URL+"/api/v1/jobs", "c2", req2, &second); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d", resp.StatusCode)
	}

	var rejected errorBody
	resp := postJSON(t, ts.Client(), ts.URL+"/api/v1/jobs", "c3",
		JobRequest{Workload: "pr_pull", System: "NS"}, &rejected)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-depth submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}

	close(gate) // drain the queue; slots free up and admission resumes
	waitState(t, ts.URL, first.ID)
	waitState(t, ts.URL, second.ID)
	var third TaskStatus
	if resp := postJSON(t, ts.Client(), ts.URL+"/api/v1/jobs", "c3",
		JobRequest{Workload: "pr_pull", System: "NS"}, &third); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-drain submit = %d, want 202", resp.StatusCode)
	}
	waitState(t, ts.URL, third.ID)
}

// TestServePerClientLimit pins the per-client in-flight bound: one client
// saturating its limit is rejected while another client still gets in.
func TestServePerClientLimit(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.QueueDepth = 16; c.MaxPerClient = 1 })
	gate := make(chan struct{})
	s.runJobs = blockingStub(gate)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := JobRequest{Workload: "histogram", System: "NS"}
	var first TaskStatus
	if resp := postJSON(t, ts.Client(), ts.URL+"/api/v1/jobs", "greedy", req, &first); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.Client(), ts.URL+"/api/v1/jobs", "greedy", req, &errorBody{}); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("same-client second submit = %d, want 429", resp.StatusCode)
	}
	var other TaskStatus
	if resp := postJSON(t, ts.Client(), ts.URL+"/api/v1/jobs", "polite", req, &other); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other-client submit = %d, want 202", resp.StatusCode)
	}
	close(gate)
	waitState(t, ts.URL, first.ID)
	waitState(t, ts.URL, other.ID)
}

// TestServeCancelStopsTask pins DELETE: canceling an in-flight task lands
// it in state canceled and its result endpoint answers 409.
func TestServeCancelStopsTask(t *testing.T) {
	s := newTestServer(t, nil)
	gate := make(chan struct{}) // never closed: only cancellation frees the task
	s.runJobs = blockingStub(gate)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var st TaskStatus
	postJSON(t, ts.Client(), ts.URL+"/api/v1/jobs", "c1",
		JobRequest{Workload: "histogram", System: "NS"}, &st)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+st.ID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d, want 202", resp.StatusCode)
	}
	if fin := waitState(t, ts.URL, st.ID); fin.State != StateCanceled {
		t.Fatalf("canceled task state = %s", fin.State)
	}
	if r := getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID+"/result", &errorBody{}); r.StatusCode != http.StatusConflict {
		t.Fatalf("result of canceled task = %d, want 409", r.StatusCode)
	}
}

// TestServeDrainRejectsAndCancels pins graceful shutdown: draining rejects
// new submissions with 503, and an expired drain deadline cancels in-flight
// tasks rather than hanging.
func TestServeDrainRejectsAndCancels(t *testing.T) {
	s := newTestServer(t, nil)
	gate := make(chan struct{}) // never closed: the drain deadline must cancel
	s.runJobs = blockingStub(gate)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var st TaskStatus
	postJSON(t, ts.Client(), ts.URL+"/api/v1/jobs", "c1",
		JobRequest{Workload: "histogram", System: "NS"}, &st)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()

	// Draining: submissions bounce with 503 and health reports down.
	deadline := time.Now().Add(5 * time.Second)
	for !s.draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if resp := postJSON(t, ts.Client(), ts.URL+"/api/v1/jobs", "c2",
		JobRequest{Workload: "pathfinder", System: "NS"}, &errorBody{}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
	// Liveness stays OK through a drain (the process is up); readiness
	// flips to 503 so the fleet heartbeat and any LB stop routing here.
	if resp := getJSON(t, ts.URL+"/healthz", &struct{}{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/readyz", &errorBody{}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not drain after its deadline expired")
	}
	if fin := waitState(t, ts.URL, st.ID); fin.State != StateCanceled {
		t.Fatalf("in-flight task after forced drain = %s, want canceled", fin.State)
	}
}

// TestServeSSEStreamsProgress pins the events endpoint: a subscriber sees
// the state transitions and every per-job progress line, ending with the
// terminal state event.
func TestServeSSEStreamsProgress(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var st TaskStatus
	postJSON(t, ts.Client(), ts.URL+"/api/v1/jobs", "c1",
		JobRequest{Workload: "histogram", System: "NS"}, &st)

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type = %q", ct)
	}

	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// The stream replays the full log: running, one progress line, done.
	if len(events) < 3 {
		t.Fatalf("stream delivered %d events, want >= 3: %+v", len(events), events)
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d; replay must be gapless", i, ev.Seq)
		}
	}
	if first := events[0]; first.Type != "state" || first.State != StateRunning {
		t.Fatalf("first event = %+v, want state running", first)
	}
	sawProgress := false
	for _, ev := range events {
		if ev.Type == "progress" && ev.Total == 1 && ev.Done == 1 {
			sawProgress = true
		}
	}
	if !sawProgress {
		t.Fatalf("no 1/1 progress event in %+v", events)
	}
	if last := events[len(events)-1]; last.Type != "state" || last.State != StateDone {
		t.Fatalf("last event = %+v, want state done", last)
	}
}

// TestServeSSEReconnectMidStream pins replay-then-tail under client
// disconnect: a subscriber that drops mid-task and reconnects sees the
// complete, gapless event log — everything it already read replays,
// followed by the events it missed while away, through the terminal
// state. This is what makes the fleet coordinator's per-worker SSE
// following loss-free across connection churn.
func TestServeSSEReconnectMidStream(t *testing.T) {
	s := newTestServer(t, nil)
	step := make(chan struct{}) // one send = permission to emit one progress event
	const totalSteps = 3
	s.runJobs = func(ctx context.Context, jobs []runner.Job, fn func(runner.Progress)) ([]*runner.Result, error) {
		for i := 0; i < totalSteps; i++ {
			select {
			case <-step:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if fn != nil {
				fn(runner.Progress{Job: jobs[0], Key: jobs[0].Key(), Done: i + 1, Total: totalSteps})
			}
		}
		return []*runner.Result{{Workload: jobs[0].Workload, System: jobs[0].System, Cycles: 1}}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var st TaskStatus
	postJSON(t, ts.Client(), ts.URL+"/api/v1/jobs", "c1",
		JobRequest{Workload: "histogram", System: "NS"}, &st)

	// First subscriber: read until the first progress event lands, then
	// hang up mid-stream.
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	step <- struct{}{} // release progress 1/3
	var before []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		before = append(before, ev)
		if ev.Type == "progress" {
			break
		}
	}
	resp.Body.Close() // disconnect with the task still running
	if len(before) < 2 {
		t.Fatalf("pre-disconnect stream delivered %d events, want state+progress: %+v", len(before), before)
	}

	// The task progresses while no subscriber is attached.
	step <- struct{}{} // 2/3
	step <- struct{}{} // 3/3
	if fin := waitState(t, ts.URL, st.ID); fin.State != StateDone {
		t.Fatalf("task state = %s (%s), want done", fin.State, fin.Error)
	}

	// Reconnect: the full log replays from seq 0 — nothing the first
	// connection consumed is gone, nothing emitted while away is missed.
	resp2, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var after []Event
	sc = bufio.NewScanner(resp2.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		after = append(after, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// running + 3 progress + done, gapless from seq 0.
	if want := 2 + totalSteps; len(after) != want {
		t.Fatalf("reconnect replayed %d events, want %d: %+v", len(after), want, after)
	}
	for i, ev := range after {
		if ev.Seq != i {
			t.Fatalf("reconnect event %d has seq %d; replay must be gapless", i, ev.Seq)
		}
	}
	for i, ev := range before {
		if after[i] != ev {
			t.Fatalf("replayed event %d = %+v differs from first connection's %+v", i, after[i], ev)
		}
	}
	progressDone := 0
	for _, ev := range after {
		if ev.Type == "progress" {
			progressDone++
			if ev.Done != progressDone || ev.Total != totalSteps {
				t.Fatalf("progress event out of order: %+v", ev)
			}
		}
	}
	if progressDone != totalSteps {
		t.Fatalf("replay carries %d progress events, want %d", progressDone, totalSteps)
	}
	if last := after[len(after)-1]; last.Type != "state" || last.State != StateDone {
		t.Fatalf("reconnect last event = %+v, want state done", last)
	}
}

// TestServeMetricsAndReport spot-checks the Prometheus exposition and the
// cumulative obs report.
func TestServeMetricsAndReport(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.CacheDir = t.TempDir() })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var st TaskStatus
	postJSON(t, ts.Client(), ts.URL+"/api/v1/jobs", "c1",
		JobRequest{Workload: "histogram", System: "NS"}, &st)
	waitState(t, ts.URL, st.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	for _, want := range []string{
		"nsd_tasks_submitted 1\n",
		"nsd_tasks_completed 1\n",
		"nsd_jobs_simulated 1\n",
		"nsd_pool_executed_total 1\n",
		"nsd_store_entries 1\n",
		"nsd_store_puts_total 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}

	var rep struct {
		Executed uint64            `json:"executed"`
		Jobs     []json.RawMessage `json:"jobs"`
		Env      struct {
			Command string `json:"command"`
		} `json:"env"`
	}
	getJSON(t, ts.URL+"/api/v1/report", &rep)
	if rep.Executed != 1 || len(rep.Jobs) != 1 || rep.Env.Command != "nsd" {
		t.Fatalf("report = %+v", rep)
	}
}

// TestServeIntrospectionSurfaces pins the daemon's live-introspection
// API: /metrics carries # HELP/# TYPE headers for every metric and a
// task-wall-time histogram once a task has finished, /debug/pprof/
// serves the Go profile index, and /api/v1/live streams metrics
// snapshots over SSE (with a 400 on a malformed interval).
func TestServeIntrospectionSurfaces(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var st TaskStatus
	postJSON(t, ts.Client(), ts.URL+"/api/v1/jobs", "c1",
		JobRequest{Workload: "histogram", System: "NS"}, &st)
	waitState(t, ts.URL, st.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	for _, want := range []string{
		"# HELP nsd_tasks_submitted Tasks admitted past admission control.\n",
		"# TYPE nsd_tasks_submitted counter\n",
		"# HELP nsd_pool_executed_total Simulations the shared pool actually ran.\n",
		"# TYPE nsd_task_wall_ms histogram\n",
		"nsd_task_wall_ms_bucket{le=\"+Inf\"} 1\n",
		"nsd_task_wall_ms_count 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	// Every exposed metric family must carry a # TYPE header.
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := strings.SplitN(strings.SplitN(line, " ", 2)[0], "{", 2)[0]
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !strings.Contains(body, "# TYPE "+family+" ") && !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("metric %s exposed without a # TYPE header", name)
		}
	}

	pprofResp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pprofBody := readAll(t, pprofResp)
	pprofResp.Body.Close()
	if pprofResp.StatusCode != http.StatusOK || !strings.Contains(pprofBody, "goroutine") {
		t.Fatalf("pprof index = %d, body %q", pprofResp.StatusCode, pprofBody)
	}

	live, err := http.Get(ts.URL + "/api/v1/live?interval_ms=100")
	if err != nil {
		t.Fatal(err)
	}
	if ct := live.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("live content type = %q", ct)
	}
	sc := bufio.NewScanner(live.Body)
	var event, data string
	for sc.Scan() && data == "" {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
		}
		if v, ok := strings.CutPrefix(line, "data: "); ok {
			data = v
		}
	}
	live.Body.Close()
	if event != "metrics" {
		t.Fatalf("live event type = %q, want metrics", event)
	}
	var snap struct {
		Time     string `json:"time"`
		Executed uint64 `json:"executed"`
		Tasks    int    `json:"tasks"`
	}
	if err := json.Unmarshal([]byte(data), &snap); err != nil {
		t.Fatalf("bad live payload %q: %v", data, err)
	}
	if snap.Time == "" || snap.Executed != 1 || snap.Tasks != 1 {
		t.Fatalf("live snapshot = %+v, want executed=1 tasks=1", snap)
	}

	if bad := getJSON(t, ts.URL+"/api/v1/live?interval_ms=nope", &errorBody{}); bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad interval_ms = %d, want 400", bad.StatusCode)
	}
}

// TestServeValidation covers the 400/404 surfaces.
func TestServeValidation(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		method, path string
		body         any
		want         int
	}{
		{http.MethodPost, "/api/v1/jobs", JobRequest{Workload: "nope", System: "NS"}, http.StatusBadRequest},
		{http.MethodPost, "/api/v1/jobs", JobRequest{Workload: "histogram", System: "nope"}, http.StatusBadRequest},
		{http.MethodPost, "/api/v1/jobs", JobRequest{Workload: "histogram", System: "NS", Scale: "huge"}, http.StatusBadRequest},
		{http.MethodPost, "/api/v1/figures/99", struct{}{}, http.StatusBadRequest},
		{http.MethodGet, "/api/v1/jobs/t999999", nil, http.StatusNotFound},
		{http.MethodGet, "/api/v1/jobs/t999999/result", nil, http.StatusNotFound},
		{http.MethodDelete, "/api/v1/jobs/t999999", nil, http.StatusNotFound},
	}
	for _, c := range cases {
		var resp *http.Response
		if c.method == http.MethodPost {
			resp = postJSON(t, ts.Client(), ts.URL+c.path, "c1", c.body, nil)
		} else {
			req, _ := http.NewRequest(c.method, ts.URL+c.path, nil)
			var err error
			resp, err = ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		if resp.StatusCode != c.want {
			t.Fatalf("%s %s = %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
}

// TestSubmitJobRejectsUnknownFields: a misspelled override or top-level
// field is a 400 naming the field, never a job run at paper defaults.
func TestSubmitJobRejectsUnknownFields(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, c := range []struct{ body, field string }{
		{`{"workload":"histogram","system":"NS","overrides":{"scm_latency":16}}`, "scm_latency"},
		{`{"workload":"histogram","system":"NS","sead":7}`, "sead"},
	} {
		var eb errorBody
		resp := postJSON(t, ts.Client(), ts.URL+"/api/v1/jobs", "c1", json.RawMessage(c.body), &eb)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s = %d, want 400", c.body, resp.StatusCode)
		}
		if !strings.Contains(eb.Error, `"`+c.field+`"`) {
			t.Fatalf("%s: error %q does not name %q", c.body, eb.Error, c.field)
		}
	}
	s.mu.Lock()
	n := len(s.order)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("rejected requests created %d tasks", n)
	}
}

// TestServeOverlappingTraffic exercises submit, status, cancel, SSE and
// drain concurrently — the race-detector target the weekly tier runs with
// -race. Every submission must reach a terminal state and the daemon must
// drain cleanly.
func TestServeOverlappingTraffic(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.QueueDepth = 64; c.MaxPerClient = 64 })
	s.runJobs = func(ctx context.Context, jobs []runner.Job, fn func(runner.Progress)) ([]*runner.Result, error) {
		select {
		case <-time.After(2 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		res := make([]*runner.Result, len(jobs))
		for i, j := range jobs {
			res[i] = &runner.Result{Workload: j.Workload, System: j.System, Cycles: 1}
			if fn != nil {
				fn(runner.Progress{Job: j, Key: j.Key(), Done: i + 1, Total: len(jobs)})
			}
		}
		return res, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var ids []string
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := fmt.Sprintf("client-%d", g)
			for i := 0; i < 6; i++ {
				var st TaskStatus
				resp := postJSON(t, ts.Client(), ts.URL+"/api/v1/jobs", client,
					JobRequest{Workload: "histogram", System: "NS"}, &st)
				switch resp.StatusCode {
				case http.StatusAccepted:
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					continue // backpressure is a legal answer under load
				default:
					t.Errorf("submit = %d", resp.StatusCode)
					continue
				}
				mu.Lock()
				ids = append(ids, st.ID)
				mu.Unlock()
				switch i % 3 {
				case 0: // poll status
					getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID, &TaskStatus{})
				case 1: // cancel (racing completion — either terminal state is fine)
					req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+st.ID, nil)
					if resp, err := ts.Client().Do(req); err == nil {
						resp.Body.Close()
					}
				case 2: // stream a few events
					if resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/events"); err == nil {
						sc := bufio.NewScanner(resp.Body)
						for n := 0; n < 4 && sc.Scan(); n++ {
						}
						resp.Body.Close()
					}
				}
			}
		}(g)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, id := range ids {
		tk := s.lookup(id)
		if tk == nil {
			t.Fatalf("task %s vanished", id)
		}
		st := tk.snapshot()
		switch st.State {
		case StateDone, StateCanceled, StateFailed:
		default:
			t.Fatalf("task %s left in state %s after drain", id, st.State)
		}
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			t.Fatal("drain exceeded its deadline")
		}
	}
}
