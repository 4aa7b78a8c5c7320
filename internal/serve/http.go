package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/workloads"
)

// JobRequest is the POST /api/v1/jobs body. Unset fields inherit the
// daemon's base harness configuration, except Overrides: a request's
// overrides are the job's overrides (no daemon sets overrides on its base
// configuration).
type JobRequest struct {
	Workload  string            `json:"workload"`
	System    string            `json:"system"`
	Scale     string            `json:"scale,omitempty"` // "ci" or "paper"
	Core      string            `json:"core,omitempty"`  // "IO4", "OOO4", "OOO8"
	Seed      *uint64           `json:"seed,omitempty"`
	Overrides *runner.Overrides `json:"overrides,omitempty"`
}

// JobRequestFor renders a runner.Job as the wire request that rebuilds
// it exactly on another daemon: buildJob on the receiving side yields a
// Job with the identical Key() digest. This is what lets the fleet
// coordinator dispatch over the existing public API instead of a
// private RPC.
func JobRequestFor(j runner.Job) JobRequest {
	req := JobRequest{
		Workload: j.Workload,
		System:   j.System.String(),
		Scale:    j.Scale.String(),
		Core:     j.CoreType,
		Seed:     &j.Seed,
	}
	if req.Core == "" {
		// Name the default so the receiving daemon's own -core default
		// never leaks into a dispatched job.
		req.Core = runner.DefaultCoreType
	}
	if j.Overrides != (runner.Overrides{}) {
		req.Overrides = &j.Overrides
	}
	return req
}

// TaskStatus is the status JSON for both task kinds.
type TaskStatus struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	State    string `json:"state"`
	Key      string `json:"key,omitempty"`
	Figure   string `json:"figure,omitempty"`
	Source   string `json:"source,omitempty"`
	Done     int    `json:"done"`
	Total    int    `json:"total"`
	Error    string `json:"error,omitempty"`
	Created  string `json:"created,omitempty"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
}

// JobResult is the result JSON of a job task.
type JobResult struct {
	Key    string         `json:"key"`
	Source string         `json:"source"` // "sim", "memo" or "disk"
	Result *runner.Result `json:"result"`
}

// FigureResult is the result JSON of a figure task.
type FigureResult struct {
	Figure string `json:"figure"`
	SHA256 string `json:"sha256"` // digest of Text, byte-identical to nsexp output
	Text   string `json:"text"`
}

// errorBody is every non-2xx JSON payload.
type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("POST /api/v1/figures/{fig}", s.handleSubmitFigure)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /api/v1/report", s.handleReport)
	mux.HandleFunc("GET /api/v1/live", s.handleLive)
	// Go runtime profiling: /debug/pprof/ indexes the stock profiles
	// (heap, goroutine, block, mutex, …); profile and trace sample on
	// demand. Registered on this mux explicitly — the daemon never serves
	// http.DefaultServeMux.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.met.inc(s.met.requests)
		mux.ServeHTTP(w, r)
	})
}

// writeJSON renders v with a status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError renders a JSON error body.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// clientID identifies the submitting client for per-client limits: the
// X-Client-ID header when present, the remote host otherwise.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// rejectionCode maps an admission error to its HTTP response.
func rejection(w http.ResponseWriter, retryAfter int, err error) {
	if err == errDraining {
		writeError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeError(w, http.StatusTooManyRequests, "%v", err)
}

// handleHealthz is liveness: the process is up and serving. It stays OK
// through a drain — a draining daemon is alive, just not accepting work —
// so an orchestrator doesn't kill a daemon mid-drain.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: whether submissions are being admitted.
// SIGTERM (Shutdown) flips it to 503 immediately, so the fleet
// coordinator's heartbeat and any external load balancer stop routing
// new work to a draining daemon while its in-flight tasks finish.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// promMetric renders one hand-maintained metric with its # HELP and
// # TYPE headers (the interned registry metrics get theirs from
// obs.WritePrometheus).
func promMetric(w io.Writer, name, typ, help string, v any) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, v)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.writeTo(w)
	// Pool- and store-level gauges, scraped at request time.
	pool := s.exp.Pool()
	promMetric(w, "nsd_pool_executed_total", "counter", "Simulations the shared pool actually ran.", pool.Executed())
	promMetric(w, "nsd_pool_memo_hits_total", "counter", "Job requests served from the in-process memo cache.", pool.Hits())
	promMetric(w, "nsd_pool_disk_hits_total", "counter", "Job requests served from the persistent result store.", pool.DiskHits())
	promMetric(w, "nsd_pool_workers", "gauge", "Pool worker-goroutine bound.", pool.Workers())
	promMetric(w, "nsd_pool_shards", "gauge", "Per-job shard-engine count (1 = serial machines).", pool.Shards())
	if stalls := pool.ShardStalls(); len(stalls) > 0 {
		fmt.Fprintf(w, "# HELP nsd_shard_window_stall_seconds Cumulative wall time each shard spent stalled at window barriers.\n")
		fmt.Fprintf(w, "# TYPE nsd_shard_window_stall_seconds gauge\n")
		for i, n := range stalls {
			fmt.Fprintf(w, "nsd_shard_window_stall_seconds{shard=\"%d\"} %.6f\n", i, float64(n)/1e9)
		}
	}
	if s.store != nil {
		promMetric(w, "nsd_store_entries", "gauge", "Entries in the persistent result store.", s.store.Len())
		promMetric(w, "nsd_store_size_bytes", "gauge", "Persistent result store size on disk.", s.store.SizeBytes())
		loads, hits, puts, evictions, corrupt := s.store.Stats()
		promMetric(w, "nsd_store_loads_total", "counter", "Store lookups attempted.", loads)
		promMetric(w, "nsd_store_load_hits_total", "counter", "Store lookups that found a result.", hits)
		promMetric(w, "nsd_store_puts_total", "counter", "Results written to the store.", puts)
		promMetric(w, "nsd_store_evictions_total", "counter", "Store entries evicted by the size cap.", evictions)
		promMetric(w, "nsd_store_corrupt_total", "counter", "Store entries discarded as corrupt.", corrupt)
		la, lw, ls := s.store.LockStats()
		promMetric(w, "nsd_store_lock_acquired_total", "counter", "Advisory envelope locks acquired for simulation.", la)
		promMetric(w, "nsd_store_lock_waits_total", "counter", "Simulations that waited on a peer daemon's envelope lock.", lw)
		promMetric(w, "nsd_store_lock_stolen_total", "counter", "Stale envelope locks (dead or aged-out holder) stolen.", ls)
	}
	for _, fn := range s.extraMetrics {
		fn(w)
	}
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad job request: %v", err)
		return
	}
	job, err := s.buildJob(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	t := newTask(taskJob, clientID(r))
	t.job = job
	t.key = job.Key()
	if retryAfter, err := s.submit(t); err != nil {
		rejection(w, retryAfter, err)
		return
	}
	writeJSON(w, http.StatusAccepted, t.snapshot())
}

func (s *Server) handleSubmitFigure(w http.ResponseWriter, r *http.Request) {
	fig := r.PathValue("fig")
	known := false
	for _, id := range harness.FigureIDs() {
		if id == fig {
			known = true
		}
	}
	if !known {
		writeError(w, http.StatusBadRequest, "unknown figure %q (know %s)",
			fig, strings.Join(harness.FigureIDs(), " "))
		return
	}
	var subset []string
	if r.URL.Query().Get("quick") != "" {
		subset = harness.QuickSet()
	}
	if wl := r.URL.Query().Get("workloads"); wl != "" {
		subset = strings.Split(wl, ",")
	}
	if err := workloads.CheckNames(subset...); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	t := newTask(taskFigure, clientID(r))
	t.figure = fig
	t.subset = subset
	if retryAfter, err := s.submit(t); err != nil {
		rejection(w, retryAfter, err)
		return
	}
	writeJSON(w, http.StatusAccepted, t.snapshot())
}

// buildJob validates a request against the daemon's base configuration.
func (s *Server) buildJob(req JobRequest) (runner.Job, error) {
	cfg := s.cfg.Harness
	if err := workloads.CheckNames(req.Workload); err != nil {
		return runner.Job{}, err
	}
	sys, err := core.ParseSystem(req.System)
	if err != nil {
		return runner.Job{}, err
	}
	if req.Scale != "" {
		if cfg.Scale, err = workloads.ParseScale(req.Scale); err != nil {
			return runner.Job{}, err
		}
	}
	if req.Core != "" {
		ct, err := runner.ParseCoreType(req.Core)
		if err != nil {
			return runner.Job{}, err
		}
		cfg.CoreType = ct.Name
	}
	if req.Seed != nil {
		cfg.Seed = *req.Seed
	}
	if req.Overrides != nil {
		cfg.Overrides = *req.Overrides
	}
	return cfg.Job(req.Workload, sys), nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]TaskStatus, 0, len(ids))
	for _, id := range ids {
		if t := s.lookup(id); t != nil {
			out = append(out, t.snapshot())
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	t := s.lookup(r.PathValue("id"))
	if t == nil {
		writeError(w, http.StatusNotFound, "no task %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, t.snapshot())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	t := s.lookup(r.PathValue("id"))
	if t == nil {
		writeError(w, http.StatusNotFound, "no task %q", r.PathValue("id"))
		return
	}
	st := t.snapshot()
	switch st.State {
	case StateDone:
	case StateFailed, StateCanceled:
		writeError(w, http.StatusConflict, "task %s is %s: %s", t.id, st.State, st.Error)
		return
	default:
		writeError(w, http.StatusConflict, "task %s is still %s", t.id, st.State)
		return
	}
	t.mu.Lock()
	result, text, digest := t.result, t.tableText, t.digest
	t.mu.Unlock()
	switch t.kind {
	case taskJob:
		writeJSON(w, http.StatusOK, JobResult{Key: t.key, Source: st.Source, Result: result})
	case taskFigure:
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, text)
			return
		}
		writeJSON(w, http.StatusOK, FigureResult{Figure: t.figure, SHA256: digest, Text: text})
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.cancelTask(id) {
		writeError(w, http.StatusNotFound, "no task %q", id)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": "cancel requested"})
}

// handleEvents streams a task's progress as server-sent events: the full
// log so far replays first, then live events follow; the stream ends with
// the terminal state event. This is Pool.OnProgress adapted to the wire —
// each batch's callback appends to the task's log, and this handler tails
// the log.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	t := s.lookup(r.PathValue("id"))
	if t == nil {
		writeError(w, http.StatusNotFound, "no task %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	s.met.inc(s.met.sseClients)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	next := 0
	for {
		evs, notify, closed := t.eventsSince(next)
		for _, ev := range evs {
			buf, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, buf)
		}
		next += len(evs)
		flusher.Flush()
		if closed && len(evs) == 0 {
			return
		}
		if closed {
			// Drain the remainder (if any) on the next loop; when the log
			// is complete and consumed, the loop above exits.
			continue
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		case <-time.After(15 * time.Second):
			// Heartbeat comment keeps proxies from timing the stream out.
			fmt.Fprint(w, ": heartbeat\n\n")
			flusher.Flush()
		}
	}
}

// handleReport serves the daemon's cumulative obs run report: one
// JobReport per distinct job ever executed, with memo/disk hit counts.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	pool := s.exp.Pool()
	rep := s.col.Report()
	rep.Executed, rep.CacheHits = pool.Executed(), pool.Hits()
	rep.Env = obs.RunEnv{
		Command:   "nsd",
		GoVersion: runtime.Version(),
		Workers:   pool.Workers(),
		Shards:    pool.Shards(),
	}
	if s.fleetEnv != nil {
		rep.Env.Fleet = s.fleetEnv()
	}
	w.Header().Set("Content-Type", "application/json")
	rep.WriteJSON(w)
}

// liveSnapshot is one /api/v1/live SSE payload: the gauges a dashboard
// would poll from /metrics, pushed instead.
type liveSnapshot struct {
	Time              string    `json:"time"`
	Executed          uint64    `json:"executed"`
	MemoHits          uint64    `json:"memo_hits"`
	DiskHits          uint64    `json:"disk_hits"`
	Workers           int       `json:"workers"`
	Shards            int       `json:"shards"`
	Tasks             int       `json:"tasks"`
	InFlight          int       `json:"in_flight"`
	ShardStallSeconds []float64 `json:"shard_stall_seconds,omitempty"`
}

// live builds the current snapshot.
func (s *Server) live() liveSnapshot {
	pool := s.exp.Pool()
	snap := liveSnapshot{
		Time:     now().UTC().Format(time.RFC3339Nano),
		Executed: pool.Executed(),
		MemoHits: pool.Hits(),
		DiskHits: pool.DiskHits(),
		Workers:  pool.Workers(),
		Shards:   pool.Shards(),
	}
	for _, n := range pool.ShardStalls() {
		snap.ShardStallSeconds = append(snap.ShardStallSeconds, float64(n)/1e9)
	}
	s.mu.Lock()
	snap.Tasks = len(s.order)
	snap.InFlight = s.admitted
	s.mu.Unlock()
	return snap
}

// handleLive streams daemon-wide metrics snapshots as server-sent events
// (event: metrics), one immediately and then one per interval
// (?interval_ms=, default 1000, floor 100) until the client disconnects
// or the daemon drains.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	interval := time.Second
	if v := r.URL.Query().Get("interval_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms <= 0 {
			writeError(w, http.StatusBadRequest, "bad interval_ms %q", v)
			return
		}
		if ms < 100 {
			ms = 100
		}
		interval = time.Duration(ms) * time.Millisecond
	}
	s.met.inc(s.met.sseClients)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		buf, err := json.Marshal(s.live())
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: metrics\ndata: %s\n\n", buf)
		flusher.Flush()
		select {
		case <-ticker.C:
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			return
		}
	}
}
