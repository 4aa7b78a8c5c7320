package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// The serve workload's fixed traffic: an open loop of seeded Poisson
// arrivals at offeredRPS, split into three request classes. The shares
// keep every named percentile inside one class (memo holds the overall
// p50, disk the p90, fresh the p99). Fresh jobs are kept to 6% because
// their simulations share the CPUs with the HTTP path.
//
// offeredRPS is the lowest rate at which a 40 s window (the benchmark's
// run length) meets the ten-beyond rule for every class percentile:
// fresh_p90 needs 100 fresh requests, i.e. 100 / 0.06 / 40 s = 41.7
// requests/s. Measured with --offered-rps on a 2-vCPU Xeon, goodput
// tracks the offered rate up to about 150 requests/s and collapses by
// 190, so 42 is under a third of that knee.
const (
	offeredRPS = 42.0
	diskShare  = 0.06
	freshShare = 0.06
	// warmKeys are pre-filled keys requested once before the window, one
	// per user, so memo requests repeat keys already served in this run.
	warmKeys = users
	// Status polls back off from pollFirst to pollMax while a request
	// waits for its task; polling, unlike an SSE stream, frees the
	// connection between polls, and the backoff keeps poll traffic well
	// below what the nproc connections carry.
	pollFirst = 250 * time.Microsecond
	pollMax   = 8 * time.Millisecond
	// users is how many client identities the generator stands for;
	// requests take them in turn. The daemon runs at its default
	// admission limits (64 tasks in all, 8 per client), so refusals the
	// shipped daemon would send count as failures. With nproc
	// connections the client saturates first (no 429 up to 190
	// requests/s), so a refusal means tasks are lingering in the daemon.
	users = 16
	// maxInFlight bounds the generator's outstanding requests, above the
	// daemon's queue depth so that its admission control, not the
	// generator, is what acts first; a stall past it shows as generator
	// lateness.
	maxInFlight = 512
)

// Request classes.
type class int

const (
	memo class = iota
	disk
	fresh
	numClasses
)

var classNames = [numClasses]string{"memo", "disk", "fresh"}

// limits are the per-class latency limits goodput counts against.
var limits = [numClasses]time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 2 * time.Second}

// classSource is the result source the daemon must report per class.
var classSource = [numClasses]string{"memo", "disk", "sim"}

// freshMenu are the cheap (well under 1 s) NS-family jobs fresh requests
// draw from, in rotation.
var freshMenu = []struct {
	workload string
	system   core.System
}{{"bin_tree", core.NS}, {"bin_tree", core.NSDecouple}}

// serveConfig is the daemon's base configuration.
func serveConfig(seed uint64) harness.Config {
	return harness.Config{Scale: workloads.ScaleCI, CoreType: "OOO8", Seed: seed, Jobs: nproc(), Shards: 1}
}

// serveKeys are the job sets of one seed: warm and disk keys (pre-filled
// into the store) and, per window, fresh keys no store or memo holds.
type serveKeys struct {
	warm, disk []runner.Job
	fresh      [][]runner.Job
}

// classCounts splits n requests into memo, disk and fresh counts.
func classCounts(n int) [numClasses]int {
	d := int(float64(n)*diskShare + 0.5)
	f := int(float64(n)*freshShare + 0.5)
	return [numClasses]int{n - d - f, d, f}
}

func requestsFor(rps float64, seconds time.Duration) int {
	return int(rps*seconds.Seconds() + 0.5)
}

func newServeKeys(seed uint64, counts [numClasses]int, windows int) serveKeys {
	cfg := serveConfig(seed)
	// Job seeds are derived from the run seed so different runs use
	// different keys; the offsets keep the classes disjoint.
	base := seed * 1_000_003
	job := func(w string, s core.System, off uint64) runner.Job {
		c := cfg
		c.Seed = base + off
		return c.Job(w, s)
	}
	var k serveKeys
	for i := 0; i < warmKeys; i++ {
		k.warm = append(k.warm, job("bin_tree", core.NSDecouple, uint64(i)))
	}
	for i := 0; i < counts[disk]; i++ {
		k.disk = append(k.disk, job("bin_tree", core.NSDecouple, 10_000+uint64(i)))
	}
	for w := 0; w < windows; w++ {
		var f []runner.Job
		for i := 0; i < counts[fresh]; i++ {
			m := freshMenu[i%len(freshMenu)]
			f = append(f, job(m.workload, m.system, 20_000+uint64(w)*10_000+uint64(i)))
		}
		k.fresh = append(k.fresh, f)
	}
	return k
}

// arrival is one scheduled request: when it is due (offset from the
// window start), its class and its job.
type arrival struct {
	due   time.Duration
	class class
	job   runner.Job
}

// schedule draws the window's open-loop arrivals: a Poisson process
// conditioned on its count, i.e. the sorted draws of n uniform times in
// the window, so every run offers the same rate over the same length;
// the exact class counts in a seeded random order; memo requests drawing
// uniformly from the warm keys, disk and fresh requests each taking the
// next unused key.
func schedule(seed uint64, window time.Duration, counts [numClasses]int, warm, diskJobs, freshJobs []runner.Job) []arrival {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	var classes []class
	for c := class(0); c < numClasses; c++ {
		for i := 0; i < counts[c]; i++ {
			classes = append(classes, c)
		}
	}
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	due := make([]time.Duration, len(classes))
	for i := range due {
		due[i] = time.Duration(rng.Int64N(int64(window)))
	}
	slices.Sort(due)
	out := make([]arrival, len(classes))
	nd, nf := 0, 0
	for i, c := range classes {
		a := arrival{due: due[i], class: c}
		switch c {
		case memo:
			a.job = warm[rng.IntN(len(warm))]
		case disk:
			a.job = diskJobs[nd]
			nd++
		case fresh:
			a.job = freshJobs[nf]
			nf++
		}
		out[i] = a
	}
	return out
}

// prefillStore simulates the warm and disk keys and every window's fresh
// keys on a reference pool, writes the warm and disk results into the
// store at dir, and returns the reference digests of all of them.
func prefillStore(dir string, keys serveKeys) (digests, error) {
	st, err := runner.OpenStore(dir, 0)
	if err != nil {
		return nil, err
	}
	stored := append(append([]runner.Job(nil), keys.warm...), keys.disk...)
	jobs := stored
	for _, f := range keys.fresh {
		jobs = append(jobs, f...)
	}
	res, err := referenceResults(jobs)
	if err != nil {
		return nil, err
	}
	for i := range stored {
		if err := st.Put(stored[i].Key(), res[i]); err != nil {
			return nil, err
		}
	}
	return digestsOf(jobs, res), nil
}

// daemon is one in-process serve.Server behind a loopback listener.
type daemon struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan struct{}
}

// startDaemon builds the daemon — the timed set-up: serve.New opening
// and scanning the pre-filled store, plus the listener — and serves it.
func startDaemon(storeDir string, seed uint64) (*daemon, time.Duration, error) {
	t := time.Now()
	// QueueDepth and MaxPerClient stay 0: the daemon's defaults, which
	// are nsd's (-queue 64, -max-client 8).
	srv, err := serve.New(serve.Config{Harness: serveConfig(seed), CacheDir: storeDir})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	setup := time.Since(t)
	d := &daemon{srv: srv, http: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.http.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return d, setup, nil
}

// stop shuts the listener and drains the daemon, waiting for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.http.Shutdown(ctx)
	<-d.done
	d.srv.Shutdown(ctx)
}

// reqResult is the client's record of one request.
type reqResult struct {
	class      class
	due        time.Time
	sent       time.Time
	done       time.Time
	ok         bool
	status     serve.TaskStatus
	digest     string
	res        *runner.Result
	key        string
	err        error
	httpStatus int // HTTP status of an error answer (429 = refused), 0 otherwise
}

// latency is measured from when the request was due, so a stalled
// generator or daemon charges its delay to every request behind it.
func (r reqResult) latency() time.Duration { return r.done.Sub(r.due) }

// lateness is how far behind schedule the generator sent the request.
func (r reqResult) lateness() time.Duration { return r.sent.Sub(r.due) }

// newClients are the generator's users: one serve.Client per identity
// (X-Client-ID, so the daemon's per-client limit applies per user), all
// sharing one transport of at most nproc connections, none retrying (a
// refusal is a failure, not something to hide).
func newClients(url string) ([]*serve.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: nproc(), MaxIdleConnsPerHost: nproc(), DisableCompression: true}
	hc := &http.Client{Transport: tr, Timeout: time.Minute}
	cs := make([]*serve.Client, users)
	for i := range cs {
		cs[i] = &serve.Client{Base: url, HTTP: hc, Attempts: 1, ClientID: fmt.Sprintf("user-%02d", i)}
	}
	return cs, tr
}

// doRequest submits one job, polls until its task is terminal, and
// fetches the result, recording a span per HTTP exchange under one
// request span.
func doRequest(ctx context.Context, c *serve.Client, a arrival, due, sent time.Time, log *spanLog, id int) reqResult {
	r := reqResult{class: a.class, due: due, sent: sent, key: a.job.Key()}
	type ex struct {
		name       string
		start, end time.Time
	}
	var exs []ex
	call := func(name string, fn func() error) error {
		s := time.Now()
		err := fn()
		exs = append(exs, ex{name, s, time.Now()})
		return err
	}
	err := call("submit", func() (err error) {
		r.status, err = c.SubmitJob(ctx, serve.JobRequestFor(a.job))
		return err
	})
	wait := pollFirst
	for err == nil && !serve.TerminalState(r.status.State) {
		if len(exs) > 1 {
			time.Sleep(wait)
			wait = min(2*wait, pollMax)
		}
		err = call("status", func() (err error) {
			r.status, err = c.Status(ctx, r.status.ID)
			return err
		})
	}
	if err == nil && r.status.State != serve.StateDone {
		err = fmt.Errorf("task %s %s: %s", r.status.ID, r.status.State, r.status.Error)
	}
	var jr serve.JobResult
	if err == nil {
		err = call("result", func() (err error) {
			jr, err = c.JobResult(ctx, r.status.ID)
			return err
		})
	}
	r.done = time.Now()
	r.err = err
	r.httpStatus = serve.StatusCode(err)
	if err == nil && jr.Result != nil {
		r.digest = resultDigest(jr.Result)
		r.res = jr.Result
		r.ok = true
	}
	trace := fmt.Sprintf("req-%d", id)
	parent := log.add(0, trace, "request "+classNames[a.class], due, r.done)
	for _, e := range exs {
		log.add(parent, trace, "http "+e.name, e.start, e.end)
	}
	return r
}

// runWindow drives one open-loop window: a single generator goroutine
// sleeps until each arrival is due and hands it to its own goroutine, so
// a slow response never delays a later send; only more than inFlight
// outstanding requests hold the generator back, and that shows as
// lateness (sent after due).
func runWindow(arrivals []arrival, inFlight int, do func(i int, a arrival, due, sent time.Time) reqResult) (time.Time, []reqResult) {
	results := make([]reqResult, len(arrivals))
	sem := make(chan struct{}, inFlight)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, a := range arrivals {
		due := t0.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		sent := time.Now()
		wg.Add(1)
		go func(i int, a arrival, due, sent time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i] = do(i, a, due, sent)
		}(i, a, due, sent)
	}
	wg.Wait()
	return t0, results
}

// windowStats summarises one window against the reference digests.
type windowStats struct {
	wall     time.Duration // first due time to last result
	failed   int
	good     int
	rejected int
	lat      [numClasses][]float64
	all      []float64
	late     []float64
	problems []string
}

func summarize(t0 time.Time, results []reqResult, ref digests) windowStats {
	var s windowStats
	for _, r := range results {
		if d := r.done.Sub(t0); d > s.wall {
			s.wall = d
		}
		ms := float64(r.latency()) / 1e6
		s.lat[r.class] = append(s.lat[r.class], ms)
		s.all = append(s.all, ms)
		s.late = append(s.late, float64(r.lateness())/1e6)
		if r.httpStatus == http.StatusTooManyRequests {
			s.rejected++
		}
		switch {
		case !r.ok:
			s.problems = append(s.problems, fmt.Sprintf("%s %s: %v", classNames[r.class], r.key, r.err))
		case r.digest != ref[r.key]:
			s.problems = append(s.problems, fmt.Sprintf("%s %s: result MISMATCH", classNames[r.class], r.key))
		case r.status.Source != classSource[r.class]:
			s.problems = append(s.problems, fmt.Sprintf("%s %s: served from %q, want %q",
				classNames[r.class], r.key, r.status.Source, classSource[r.class]))
		default:
			if r.latency() <= limits[r.class] {
				s.good++
			}
			continue
		}
		s.failed++
	}
	return s
}

// pct formats a class percentile with its sample support.
func pct(w io.Writer, name string, xs []float64, p float64) float64 {
	v, beyond := percentile(xs, p)
	note := ""
	if !supported(len(xs), p) {
		note = " (below the ten-beyond rule)"
	}
	fmt.Fprintf(w, "  %-14s %9.3f ms  n=%d, %d beyond%s\n", name, v, len(xs), beyond, note)
	return v
}

// classMetrics prints the per-class latencies and returns them keyed by
// their per-layer names.
func classMetrics(w io.Writer, s windowStats) map[string]float64 {
	fmt.Fprintln(w, "request latency from due time, per class:")
	m := map[string]float64{
		"serve.memo_p50_ms":  pct(w, "memo_p50_ms", s.lat[memo], 0.50),
		"serve.memo_p99_ms":  pct(w, "memo_p99_ms", s.lat[memo], 0.99),
		"serve.disk_p50_ms":  pct(w, "disk_p50_ms", s.lat[disk], 0.50),
		"serve.disk_p90_ms":  pct(w, "disk_p90_ms", s.lat[disk], 0.90),
		"serve.fresh_p50_ms": pct(w, "fresh_p50_ms", s.lat[fresh], 0.50),
		"serve.fresh_p90_ms": pct(w, "fresh_p90_ms", s.lat[fresh], 0.90),
		"serve.p99_ms":       pct(w, "all_p99_ms", s.all, 0.99),
	}
	late, _ := percentile(s.late, 0.99)
	m["gen.sent"] = float64(len(s.all))
	m["gen.late_p99_ms"] = late
	fmt.Fprintf(w, "generator: %d sent, lateness p99 %.3f ms, max %.3f ms\n", len(s.all), late, maxOf(s.late))
	return m
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// serveWindow starts a daemon on the store, warms the memo with the warm
// keys, and runs one window. col, when non-nil, replaces the daemon
// pool's collector (attribution for the traced run).
func serveWindow(storeDir string, seed uint64, arrivals []arrival, warm []runner.Job, col *obs.Collector, log *spanLog) (*daemon, time.Time, []reqResult, error) {
	d, _, err := startDaemon(storeDir, seed)
	if err != nil {
		return nil, time.Time{}, nil, err
	}
	if col != nil {
		d.srv.Exp().Pool().Obs = col
	}
	cs, tr := newClients(d.url)
	defer tr.CloseIdleConnections()
	ctx := context.Background()
	for i, j := range warm {
		r := doRequest(ctx, cs[i%users], arrival{class: disk, job: j}, time.Now(), time.Now(), nil, i)
		if !r.ok {
			d.stop()
			return nil, time.Time{}, nil, fmt.Errorf("warm-up %s: %v", r.key, r.err)
		}
	}
	t0, results := runWindow(arrivals, maxInFlight, func(i int, a arrival, due, sent time.Time) reqResult {
		return doRequest(ctx, cs[i%users], a, due, sent, log, i)
	})
	return d, t0, results, nil
}

// runServeWorkload measures the serve workload.
func runServeWorkload(w io.Writer, o opts) (outcome, error) {
	n := requestsFor(o.rps, o.seconds)
	counts := classCounts(n)
	windows := 1
	if o.trace {
		windows = 2
	}
	keys := newServeKeys(o.seed, counts, windows)
	host := newHostRecord(nproc(), 1)
	host.OfferedRPS = o.rps
	host.MaxConnections = nproc()
	host.LimitsMS = map[string]float64{}
	for c := class(0); c < numClasses; c++ {
		host.LimitsMS[classNames[c]] = float64(limits[c]) / 1e6
	}
	printJSON(w, "host", host)
	fmt.Fprintf(w, "traffic: %d requests at %.0f/s open loop: memo %d, disk %d, fresh %d (%v)\n",
		n, o.rps, counts[memo], counts[disk], counts[fresh], freshMenu)
	for c, p := range map[class]float64{memo: 0.99, disk: 0.90, fresh: 0.90} {
		if counts[c] < minSamples(p) {
			fmt.Fprintf(w, "note: %d %s requests do not support p%.0f (needs %d)\n", counts[c], classNames[c], p*100, minSamples(p))
		}
	}

	tmp, err := os.MkdirTemp(o.workdir, "serve-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(tmp)
	storeDir := filepath.Join(tmp, "store")
	t := time.Now()
	ref, err := prefillStore(storeDir, keys)
	if err != nil {
		return outcome{}, fmt.Errorf("prefill: %w", err)
	}
	fmt.Fprintf(w, "store pre-fill and references (shards=1, reuse off, untimed): %.3f s\n", time.Since(t).Seconds())

	setups, err := timeSetups(func() (time.Duration, error) {
		d, setup, err := startDaemon(storeDir, o.seed)
		if err == nil {
			d.stop()
		}
		return setup, err
	})
	if err != nil {
		return outcome{}, err
	}

	arrivals := schedule(o.seed, o.seconds, counts, keys.warm, keys.disk, keys.fresh[0])
	peak := startRSSPeak()
	d, t0, results, err := serveWindow(storeDir, o.seed, arrivals, keys.warm, nil, nil)
	rss := peak.mb()
	if err != nil {
		return outcome{}, err
	}
	d.stop()
	s := summarize(t0, results, ref)
	out := outcome{Attempted: len(results), Failed: s.failed}
	cm := classMetrics(w, s)
	m := layerMetrics{}

	if o.trace {
		// The traced window: a new daemon (empty memo) on the same store
		// with its own fresh keys, under the CPU profile, with an
		// attribution collector and spans.
		col := obs.NewCollector(0, 0)
		col.Attribution = true
		log := newSpanLog()
		arrivals2 := schedule(o.seed+1, o.seconds, counts, keys.warm, keys.disk, keys.fresh[1])
		type win struct {
			d       *daemon
			t0      time.Time
			results []reqResult
			err     error
		}
		tw, err := tracedSection(w, o, m, func() win {
			d, t0, r, err := serveWindow(storeDir, o.seed, arrivals2, keys.warm, col, log)
			return win{d, t0, r, err}
		})
		if tw.d != nil {
			tw.d.stop()
		}
		if err == nil {
			err = tw.err
		}
		if err != nil {
			return outcome{}, err
		}
		s2 := summarize(tw.t0, tw.results, ref)
		out.Attempted += len(tw.results)
		out.Failed += s2.failed
		s.problems = append(s.problems, s2.problems...)
		for k, v := range cm {
			m[k] = v
		}
		m["trace.overhead"] = frac(s2.wall.Seconds(), s.wall.Seconds())
		m["serve.rejected"] = float64(s2.rejected)
		serveLayers(m, tw.results, col, log)
		var simulated []*runner.Result
		for _, r := range tw.results {
			if r.ok && r.class == fresh {
				simulated = append(simulated, r.res)
			}
		}
		m.addSimulated(simulated, col.Report())
		m.addPool(tw.d.srv.Exp().Pool(), tw.d.srv.Store())
		if err := log.write(filepath.Join(o.workdir, fmt.Sprintf("spans-serve-%d.json", o.seed))); err != nil {
			return outcome{}, err
		}
	}
	for _, p := range s.problems {
		fmt.Fprintln(w, "FAILED", p)
	}
	out.Correct = out.Failed == 0
	fmt.Fprintf(w, "output check: %d/%d results match the reference computed outside timing\n",
		out.Attempted-out.Failed, out.Attempted)
	if o.trace {
		return out, finishLayers(m, &out)
	}
	out.Metrics = map[string]metric{
		"setup_s":     {median(setups), "s"},
		"peak_rss_mb": {rss, "MB"},
		"wall_s":      {s.wall.Seconds(), "s"},
		"p50_ms":      {median(s.all), "ms"},
		"goodput_rps": {float64(s.good) / s.wall.Seconds(), "1/s"},
	}
	return out, nil
}

// serveLayers derives the daemon-side figures of the traced window:
// queue wait (task time not spent simulating) over the requests that
// needed a worker slot, simulation time, and HTTP exchange time.
func serveLayers(m layerMetrics, results []reqResult, col *obs.Collector, log *spanLog) {
	wall := map[string]float64{}
	for _, r := range col.Records() {
		wall[r.Key] = r.Timing.WallSeconds * 1e3
	}
	var queue, run []float64
	for _, r := range results {
		if !r.ok || r.class == memo {
			continue
		}
		started, err1 := time.Parse(time.RFC3339Nano, r.status.Started)
		finished, err2 := time.Parse(time.RFC3339Nano, r.status.Finished)
		if err := errors.Join(err1, err2); err != nil {
			continue
		}
		task := float64(finished.Sub(started)) / 1e6
		sim := 0.0
		if r.class == fresh {
			sim = wall[r.key]
			run = append(run, sim)
		}
		queue = append(queue, max(task-sim, 0))
	}
	m["serve.queue_wait_p50_ms"], _ = percentile(queue, 0.50)
	m["serve.queue_wait_p90_ms"], _ = percentile(queue, 0.90)
	m["serve.run_p50_ms"] = median(run)
	m["serve.http_p50_ms"] = median(log.durationsMS("http "))
}
