package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// fastRetry keeps test-time backoff in the millisecond range.
var fastRetry = backoff.Policy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond, NoJitter: true}

// newWorker builds a real daemon worker over cacheDir ("" = memory-only)
// and serves it over HTTP.
func newWorker(t *testing.T, cacheDir string) (*serve.Server, *httptest.Server) {
	t.Helper()
	cfg := serve.Config{Harness: harness.DefaultConfig(), CacheDir: cacheDir}
	cfg.Harness.Jobs = 2
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func testJob(seed uint64) runner.Job {
	return runner.Job{Workload: "histogram", System: core.NS, Scale: workloads.ScaleCI, CoreType: "OOO8", Seed: seed}
}

func TestCoordinatorDispatch(t *testing.T) {
	ws, wts := newWorker(t, "")
	c := New(Options{Workers: []string{wts.URL}, Retry: fastRetry})
	j := testJob(1)
	res, err := c.Execute(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Cycles == 0 {
		t.Fatalf("result = %+v, want a simulated measurement", res)
	}
	if got := ws.Exp().Pool().Executed(); got != 1 {
		t.Fatalf("worker executed %d jobs, want 1", got)
	}
	top := c.Snapshot()
	if top.Live != 1 || top.Workers[0].Dispatched != 1 || top.Workers[0].Inflight != 0 {
		t.Fatalf("topology = %+v", top)
	}
}

// TestCoordinatorFailover kills one of two workers and checks every job
// still lands: dispatches to the dead worker fail, it is declared dead
// (ring rebalance), and the retry reaches the survivor.
func TestCoordinatorFailover(t *testing.T) {
	w1, t1 := newWorker(t, "")
	_, t2 := newWorker(t, "")
	c := New(Options{Workers: []string{t1.URL, t2.URL}, Retry: fastRetry, Attempts: 4})
	t2.Close() // worker 2 is gone before any dispatch

	n := 4
	if raceEnabled {
		n = 2
	}
	// Ring placement depends on the workers' (random) ports: pick seeds so
	// the dead worker owns the first job, or the failover never happens.
	dead := strings.TrimRight(t2.URL, "/")
	var seeds []uint64
	for seed := uint64(1); len(seeds) == 0; seed++ {
		if owner, _ := c.ring.Owner(testJob(seed).Key()); owner == dead {
			seeds = append(seeds, seed)
		}
	}
	for seed := uint64(1); len(seeds) < n; seed++ {
		if seed != seeds[0] {
			seeds = append(seeds, seed)
		}
	}
	for _, seed := range seeds {
		if _, err := c.Execute(context.Background(), testJob(seed)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if got := w1.Exp().Pool().Executed(); got != uint64(n) {
		t.Fatalf("survivor executed %d, want %d", got, n)
	}
	top := c.Snapshot()
	if top.Live != 1 {
		t.Fatalf("live = %d, want 1: %+v", top.Live, top)
	}
	// The dead worker was picked first: it must now be marked dead and
	// off the ring.
	for _, wi := range top.Workers {
		if wi.URL == dead && wi.Dispatched > 0 {
			if wi.State != WorkerDead || c.ring.Has(wi.URL) {
				t.Fatalf("failed worker not rebalanced away: %+v", wi)
			}
		}
	}
}

// TestCoordinatorStructuralError: a request every worker would refuse
// (unknown workload) errors immediately and does not kill the worker.
func TestCoordinatorStructuralError(t *testing.T) {
	_, wts := newWorker(t, "")
	c := New(Options{Workers: []string{wts.URL}, Retry: fastRetry})
	j := runner.Job{Workload: "no_such_kernel", System: core.NS, Scale: workloads.ScaleCI, CoreType: "OOO8", Seed: 1}
	_, err := c.Execute(context.Background(), j)
	if err == nil || serve.StatusCode(err) != http.StatusBadRequest {
		t.Fatalf("err = %v, want http 400", err)
	}
	top := c.Snapshot()
	if top.Live != 1 || top.Workers[0].State != WorkerLive {
		t.Fatalf("structural error killed the worker: %+v", top)
	}
}

// TestCoordinatorPermanentJobFailure: a worker reporting the task
// *failed* (the simulation itself erred) surfaces immediately — no
// cross-worker retry for a deterministic failure.
func TestCoordinatorPermanentJobFailure(t *testing.T) {
	j := testJob(1)
	var submits atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		submits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.TaskStatus{ID: "t000001", State: serve.StateQueued})
	})
	mux.HandleFunc("GET /api/v1/jobs/t000001/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		for _, ev := range []serve.Event{
			{Seq: 0, Type: "state", State: serve.StateRunning},
			{Seq: 1, Type: "state", State: serve.StateFailed, Error: "sim blew up"},
		} {
			buf, _ := json.Marshal(ev)
			fmt.Fprintf(w, "data: %s\n\n", buf)
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := New(Options{Workers: []string{ts.URL}, Retry: fastRetry, Attempts: 5})
	_, err := c.Execute(context.Background(), j)
	if err == nil || !strings.Contains(err.Error(), "sim blew up") {
		t.Fatalf("err = %v, want the worker's failure", err)
	}
	if got := submits.Load(); got != 1 {
		t.Fatalf("job submitted %d times, want 1 (no retry of a deterministic failure)", got)
	}
}

// TestHeartbeatStates drives the probe loop through the three worker
// states: live -> draining (readyz 503, immediate ring exit) -> live
// again, and live -> dead after the DeadAfter grace when unreachable.
func TestHeartbeatStates(t *testing.T) {
	var ready atomic.Int32 // 0 = 200 OK, 1 = 503 draining
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if ready.Load() == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := New(Options{Workers: []string{ts.URL}, Retry: fastRetry,
		HeartbeatEvery: 20 * time.Millisecond, DeadAfter: 60 * time.Millisecond})
	url := strings.TrimRight(ts.URL, "/")
	if !c.ring.Has(url) {
		t.Fatal("fresh worker not on the ring")
	}

	ready.Store(1)
	c.probeAll()
	if top := c.Snapshot(); top.Workers[0].State != WorkerDraining || c.ring.Has(url) {
		t.Fatalf("draining worker still on ring: %+v", top)
	}

	ready.Store(0)
	c.probeAll()
	if top := c.Snapshot(); top.Workers[0].State != WorkerLive || !c.ring.Has(url) {
		t.Fatalf("recovered worker not revived: %+v", top)
	}

	ts.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		c.probeAll()
		if top := c.Snapshot(); top.Workers[0].State == WorkerDead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never declared dead: %+v", c.Snapshot())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if c.ring.Has(url) {
		t.Fatal("dead worker still on the ring")
	}
}

// TestWrapRoutes exercises the fleet HTTP surface and its fallthrough.
func TestWrapRoutes(t *testing.T) {
	c := New(Options{Retry: fastRetry})
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	ts := httptest.NewServer(c.Wrap(next))
	defer ts.Close()

	// Fallthrough: anything non-fleet reaches the daemon handler.
	resp, err := http.Get(ts.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot {
		t.Fatalf("fallthrough status = %d", resp.StatusCode)
	}

	// Bad registrations.
	for _, body := range []string{"not json", `{"url": ""}`, `{"url": "not a url"}`} {
		resp, err := http.Post(ts.URL+"/api/v1/fleet/register", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("register %q status = %d, want 400", body, resp.StatusCode)
		}
	}

	// A good registration lands in the topology.
	if err := Register(context.Background(), ts.URL, "http://worker-9:8081", fastRetry); err != nil {
		t.Fatal(err)
	}
	var top Topology
	resp, err = http.Get(ts.URL + "/api/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&top); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if top.Live != 1 || len(top.Workers) != 1 || top.Workers[0].URL != "http://worker-9:8081" {
		t.Fatalf("topology after register = %+v", top)
	}
	if !c.ring.Has("http://worker-9:8081") {
		t.Fatal("registered worker not on the ring")
	}
}

// TestRegisterGivesUpOnCtx: registration against nothing honors ctx.
func TestRegisterGivesUpOnCtx(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := Register(ctx, "http://127.0.0.1:1", "http://self:1", fastRetry)
	if err == nil {
		t.Fatal("register against a dead coordinator succeeded")
	}
}
