package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// Progress describes one finished distinct job of a Run batch, for per-job
// reporting.
type Progress struct {
	Job Job
	Key string
	// Cached marks a job served from the in-process memo (including a job
	// another concurrent batch was already executing).
	Cached bool
	// Disk marks a job served from the persistent result store (Pool.Disk)
	// instead of being simulated.
	Disk bool
	// Remote marks a job delegated to Pool.Remote (a fleet coordinator
	// dispatching to a worker daemon) instead of simulating locally.
	Remote bool
	Err    error
	// Done/Total count distinct jobs within the current Run batch:
	// duplicate submissions of one key collapse into a single progress
	// line, reported only once the underlying measurement is final.
	Done, Total int
}

// Pool executes jobs across worker goroutines with a memo cache keyed by
// Job.Key(), so each distinct measurement simulates exactly once per Pool
// lifetime no matter how many figures request it. Results are never
// mutated after publication; callers treat them as read-only. A Pool is
// safe for concurrent use: the worker bound applies across every
// concurrent Run/RunCtx batch, not per batch.
type Pool struct {
	workers int
	// OnProgress, when non-nil, is called after each distinct job of a Run
	// batch completes (serialized per batch; set before the first Run).
	OnProgress func(Progress)
	// Obs, when non-nil, collects per-job observability (trace, samples,
	// report fields). Job records are classified during the batch scan —
	// fresh jobs get a record, cached requests count as memo hits — so the
	// collected report is identical at any worker count.
	Obs *obs.Collector
	// Disk, when non-nil, is the persistent result store consulted before
	// executing a fresh job and written after each successful simulation,
	// so measurements survive across processes (CLI runs and the nsd
	// daemon share one store).
	Disk *Store
	// Remote, when non-nil, replaces local simulation: a fresh job that
	// missed the memo and the store is delegated to it (the fleet
	// coordinator dispatches to a worker daemon here). The memo map and
	// store still dedupe in front of it, so each distinct job is
	// dispatched at most once concurrently per pool; successful remote
	// results are written through Disk like local ones. Set before the
	// first Run.
	Remote func(ctx context.Context, j Job) (*Result, error)

	sem chan struct{} // pool-wide worker slots

	mu       sync.Mutex
	memo     map[string]*memoEntry
	executed uint64
	hits     uint64
	diskHits uint64
	remote   uint64
}

// memoEntry is one cached measurement; done closes once res/err are final.
// canceled marks an entry whose owning batch was canceled before the job
// started: it has been removed from the memo map, and waiters re-acquire
// the key (becoming the executor if nobody else has).
type memoEntry struct {
	done     chan struct{}
	res      *Result
	err      error
	canceled bool
}

// NewPool returns a pool running at most workers jobs concurrently;
// workers <= 0 means GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		workers: workers,
		sem:     make(chan struct{}, workers),
		memo:    make(map[string]*memoEntry),
	}
}

// The four methods below are kept only for perfbench/, the repo
// benchmark, which is their one caller; the next change to the benchmark
// removes them. Every job builds its machine and dataset fresh, so there
// is no reuse left to switch or report, and every machine runs on one
// engine, so there is no shard count to set.

// Deprecated: SetShards does nothing.
func (p *Pool) SetShards(n int) {}

// Deprecated: SetReuse does nothing.
func (p *Pool) SetReuse(on bool) {}

// Deprecated: MachineReuse reports no hits and every executed job as a
// miss.
func (p *Pool) MachineReuse() (hits, misses uint64) { return 0, p.Executed() }

// Deprecated: DatasetCacheStats reports no hits, every executed job as a
// miss, and nothing evicted or resident.
func (p *Pool) DatasetCacheStats() (hits, misses, evictions uint64, bytes int64) {
	return 0, p.Executed(), 0, 0
}

// Workers reports the concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Executed reports how many simulations actually ran.
func (p *Pool) Executed() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.executed
}

// Hits reports how many requested jobs were served from the in-process
// memo cache (including duplicates within one batch).
func (p *Pool) Hits() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits
}

// DiskHits reports how many jobs were served from the persistent store
// instead of simulating.
func (p *Pool) DiskHits() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.diskHits
}

// RemoteJobs reports how many jobs were delegated to Pool.Remote.
func (p *Pool) RemoteJobs() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.remote
}

// distinctJob is one deduplicated key of a batch: the entry to wait on or
// execute, plus the first submission index it answers for.
type distinctJob struct {
	key   string
	first int // first job index with this key
	e     *memoEntry
	fresh bool // this batch owns execution of e
	rec   *obs.JobRecord
	turn  slotTurn
}

// slotTurn hands a batch's worker slots out in declaration order: a
// distinct job queues for a slot only once its predecessor holds one or
// needs none, and blocked slot requests are served first-come first-served.
// Goroutines racing for the slots would start in scheduler order instead.
type slotTurn struct {
	mine   <-chan struct{} // closed when the predecessor passed its turn
	next   chan struct{}   // closed by pass
	passed bool
}

// wait blocks until it is this job's turn to request a slot (or ctx ends).
func (t *slotTurn) wait(ctx context.Context) error {
	if t.passed {
		return nil
	}
	select {
	case <-t.mine:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// pass lets the next job request a slot; only the first call counts.
func (t *slotTurn) pass() {
	if !t.passed {
		t.passed = true
		close(t.next)
	}
}

// handOn passes the turn on, in order, for a job that needs no slot.
func (t *slotTurn) handOn(ctx context.Context) {
	_ = t.wait(ctx) // canceled: the order no longer matters
	t.pass()
}

// Run executes jobs and returns their results in job order. Duplicate and
// previously-run jobs are served from the memo cache (and, with Disk set,
// from the persistent store). On failure the error of the earliest failing
// job (in declared order) is returned, making error reporting independent
// of goroutine scheduling; results of successful jobs are still filled in.
func (p *Pool) Run(jobs []Job) ([]*Result, error) {
	return p.run(context.Background(), jobs, p.OnProgress)
}

// RunCtx is Run with cancellation: when ctx is canceled, queued jobs of
// this batch stop before consuming a worker slot and RunCtx returns
// ctx.Err(). Jobs already simulating run to completion (a simulation is a
// single-threaded engine with no preemption points), and entries this
// batch had claimed but not started are released so other batches can
// execute them.
func (p *Pool) RunCtx(ctx context.Context, jobs []Job) ([]*Result, error) {
	return p.run(ctx, jobs, p.OnProgress)
}

// RunCtxFunc is RunCtx with a per-batch progress callback, for callers
// multiplexing several concurrent batches over one pool (the serve
// daemon); a nil fn falls back to Pool.OnProgress.
func (p *Pool) RunCtxFunc(ctx context.Context, jobs []Job, fn func(Progress)) ([]*Result, error) {
	if fn == nil {
		fn = p.OnProgress
	}
	return p.run(ctx, jobs, fn)
}

func (p *Pool) run(ctx context.Context, jobs []Job, onProgress func(Progress)) ([]*Result, error) {
	// Scan phase: collapse duplicate keys and classify each distinct job
	// as fresh (this batch executes it) or cached (wait on the published
	// entry) under one lock, so obs classification is deterministic at any
	// worker count.
	slot := make([]int, len(jobs)) // job index -> distinct slot
	index := make(map[string]int, len(jobs))
	var dist []*distinctJob

	p.mu.Lock()
	for i, j := range jobs {
		k := j.Key()
		if s, ok := index[k]; ok {
			// Duplicate within the batch: counted as a memo hit but not a
			// separate progress line.
			slot[i] = s
			p.hits++
			if p.Obs != nil {
				p.Obs.Hit(k)
			}
			continue
		}
		s := len(dist)
		index[k] = s
		slot[i] = s
		d := &distinctJob{key: k, first: i}
		if e, ok := p.memo[k]; ok {
			d.e = e
		} else {
			e := &memoEntry{done: make(chan struct{})}
			p.memo[k] = e
			d.e, d.fresh = e, true
			if p.Obs != nil {
				d.rec = p.Obs.Job(k)
			}
		}
		dist = append(dist, d)
	}
	p.mu.Unlock()

	// Progress is reported per distinct job as it completes. Completion
	// order is scheduling-dependent; only the reporting order varies,
	// never a result (each job is a self-contained single-threaded
	// simulation).
	var progressMu sync.Mutex
	done := 0
	report := func(d *distinctJob, src jobSource, err error) {
		if onProgress == nil {
			return
		}
		progressMu.Lock()
		done++
		onProgress(Progress{Job: jobs[d.first], Key: d.key, Cached: src == srcMemo,
			Disk: src == srcDisk, Remote: src == srcRemote,
			Err: err, Done: done, Total: len(dist)})
		progressMu.Unlock()
	}

	results := make([]*Result, len(dist))
	errs := make([]error, len(dist))
	prev := make(chan struct{})
	close(prev) // the first job's turn
	for _, d := range dist {
		d.turn = slotTurn{mine: prev, next: make(chan struct{})}
		prev = d.turn.next
	}
	var wg sync.WaitGroup
	for s, d := range dist {
		wg.Add(1)
		go func(s int, d *distinctJob) {
			defer wg.Done()
			defer d.turn.handOn(ctx)
			res, err, src := p.resolve(ctx, jobs[d.first], d)
			results[s], errs[s] = res, err
			report(d, src, err)
		}(s, d)
	}
	wg.Wait()

	out := make([]*Result, len(jobs))
	var firstErr error
	for i := range jobs {
		out[i] = results[slot[i]]
		if err := errs[slot[i]]; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return out, firstErr
}

// jobSource classifies where a distinct job's result came from, for
// progress reporting.
type jobSource int

const (
	srcSim jobSource = iota
	srcMemo
	srcDisk
	srcRemote
)

// resolve drives one distinct job to a final result: execute it if this
// batch owns the entry, otherwise wait on the owner — re-acquiring the key
// if the owner's batch was canceled before the job started.
func (p *Pool) resolve(ctx context.Context, j Job, d *distinctJob) (res *Result, err error, src jobSource) {
	e, fresh := d.e, d.fresh
	for {
		if fresh {
			return p.executeEntry(ctx, j, d.key, e, d.rec, &d.turn)
		}
		d.turn.handOn(ctx) // a waiter needs no slot
		select {
		case <-e.done:
		case <-ctx.Done():
			// Abandoned while waiting on another batch's execution; the
			// owner (if still live) completes the entry for everyone else.
			return nil, ctx.Err(), srcSim
		}
		if !e.canceled {
			p.mu.Lock()
			p.hits++
			p.mu.Unlock()
			if p.Obs != nil {
				p.Obs.Hit(d.key)
			}
			return e.res, e.err, srcMemo
		}
		// The owning batch was canceled before the job started. The entry
		// was removed from the memo map; take over (or chase whichever
		// batch re-registered first).
		p.mu.Lock()
		if cur, ok := p.memo[d.key]; ok {
			e, fresh = cur, false
		} else {
			e = &memoEntry{done: make(chan struct{})}
			p.memo[d.key] = e
			fresh = true
			if p.Obs != nil && d.rec == nil {
				d.rec = p.Obs.Job(d.key)
			}
		}
		p.mu.Unlock()
	}
}

// executeEntry fills e for key: from the persistent store when possible
// (checked before taking a worker slot), by delegating to Pool.Remote
// when set, otherwise by simulating under the pool-wide worker bound —
// holding the store's advisory per-envelope lock so two processes sharing
// one cache directory never compute the same job concurrently.
// Slots are requested in turn (see slotTurn). Cancellation before a
// worker slot is acquired releases the entry for other batches.
func (p *Pool) executeEntry(ctx context.Context, j Job, key string, e *memoEntry, rec *obs.JobRecord, turn *slotTurn) (res *Result, err error, src jobSource) {
	diskLoad := func() (*Result, bool) {
		if p.Disk == nil {
			return nil, false
		}
		dres, ok := p.Disk.Load(key)
		if !ok {
			return nil, false
		}
		e.res = dres
		if rec != nil {
			rec.Workload = j.Workload
			rec.System = j.System.String()
			rec.SimCycles = dres.Cycles
			rec.Events = dres.Events
		}
		p.mu.Lock()
		p.diskHits++
		p.mu.Unlock()
		if p.Obs != nil {
			p.Obs.DiskHit(key)
		}
		return dres, true
	}
	if cerr := ctx.Err(); cerr != nil {
		p.cancelEntry(key, e)
		return nil, cerr, srcSim
	}
	// A store read is cheap next to a simulation, so it runs before the
	// worker slot: a disk hit never queues behind running jobs.
	if dres, ok := diskLoad(); ok {
		close(e.done)
		return dres, nil, srcDisk
	}

	if werr := turn.wait(ctx); werr != nil {
		p.cancelEntry(key, e)
		return nil, werr, srcSim
	}
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		p.cancelEntry(key, e)
		return nil, ctx.Err(), srcSim
	}
	turn.pass()
	defer func() { <-p.sem }()
	if cerr := ctx.Err(); cerr != nil {
		// Canceled in the same instant the slot freed up: still abandon.
		p.cancelEntry(key, e)
		return nil, cerr, srcSim
	}

	if p.Remote != nil {
		// Fleet delegation: a worker daemon simulates; dedupe in front of
		// the dispatch (memo above, store lock on the workers' side) keeps
		// the job exactly-once fleet-wide.
		start := time.Now()
		e.res, e.err = p.Remote(ctx, j)
		if rec != nil {
			rec.Timing.WallSeconds = time.Since(start).Seconds()
			if e.err != nil {
				rec.Err = e.err.Error()
			} else {
				rec.Workload = j.Workload
				rec.System = j.System.String()
				rec.SimCycles = e.res.Cycles
				rec.Events = e.res.Events
			}
		}
		if e.err != nil && ctx.Err() != nil {
			// A dispatch cut short by cancellation must not poison the
			// memo: release the entry so a later batch re-dispatches.
			p.cancelEntry(key, e)
			return nil, e.err, srcRemote
		}
		p.mu.Lock()
		p.remote++
		p.mu.Unlock()
		if e.err == nil && p.Disk != nil {
			p.Disk.Put(key, e.res)
		}
		close(e.done)
		return e.res, e.err, srcRemote
	}

	if p.Disk != nil {
		// Cross-process single-flight: hold the envelope's advisory lock
		// while simulating, so peer daemons sharing this cache directory
		// wait (then load our Put) instead of duplicating the work. A nil
		// lock means the filesystem refused lock files; compute anyway.
		lk, lerr := p.Disk.AcquireLock(ctx, key)
		if lerr != nil {
			p.cancelEntry(key, e)
			return nil, lerr, srcSim
		}
		defer lk.Release()
		if lk != nil {
			// The lock's usual holder was a peer computing this very key:
			// its release means the entry likely exists now.
			if dres, ok := diskLoad(); ok {
				close(e.done)
				return dres, nil, srcDisk
			}
		}
	}

	start := time.Now()
	e.res, e.err = execute(j, rec)
	if rec != nil {
		wall := time.Since(start).Seconds()
		rec.Timing.WallSeconds = wall
		if wall > 0 {
			rec.Timing.SimCyclesPerSec = float64(rec.SimCycles) / wall
		}
		if e.err != nil {
			rec.Err = e.err.Error()
		}
	}
	p.mu.Lock()
	p.executed++
	p.mu.Unlock()
	if e.err == nil && p.Disk != nil {
		p.Disk.Put(key, e.res)
	}
	close(e.done)
	return e.res, e.err, srcSim
}

// cancelEntry abandons an entry this batch claimed but never started:
// removes it from the memo map (so another batch can execute the key) and
// wakes waiters, who observe canceled and re-acquire.
func (p *Pool) cancelEntry(key string, e *memoEntry) {
	p.mu.Lock()
	if p.memo[key] == e {
		delete(p.memo, key)
	}
	e.canceled = true
	e.err = context.Canceled
	p.mu.Unlock()
	close(e.done)
}

// execute wraps ExecuteObs, converting a panicking job (a model
// invariant broken mid-simulation) into an error: inside the pool, one
// bad job must fail that job, not crash the process from a worker
// goroutine.
func execute(j Job, rec *obs.JobRecord) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("runner: job %s panicked: %v", j.Key(), r)
		}
	}()
	return ExecuteObs(j, rec)
}

// RunOne executes (or recalls) a single job.
func (p *Pool) RunOne(j Job) (*Result, error) {
	res, err := p.Run([]Job{j})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}
