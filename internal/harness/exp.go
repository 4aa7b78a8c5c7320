package harness

import (
	"context"

	"repro/internal/core"
	"repro/internal/runner"
)

// Exp renders figures against one shared memoizing runner.Pool, so a
// measurement requested by several figures (every figure's
// (workload, Base) denominator, the default point of each sensitivity
// sweep) simulates exactly once per Exp. Rendering the whole evaluation
// through a single Exp is what makes `nsexp -all` both parallel and
// strictly cheaper than the old serial per-figure loops.
type Exp struct {
	cfg  Config
	pool *runner.Pool
	// ctx cancels this view's job batches (nil = background); progress,
	// when non-nil, overrides the pool's global OnProgress for this view's
	// batches. Both are set by With* on a copy, so several views — the
	// serve daemon runs one per in-flight figure request — share the pool
	// and its memo cache while keeping independent cancellation.
	ctx      context.Context
	progress func(runner.Progress)
}

// NewExp builds an experiment context for a configuration; the worker
// count comes from cfg.Jobs (0 = GOMAXPROCS).
func NewExp(cfg Config) *Exp {
	return &Exp{cfg: cfg, pool: runner.NewPool(cfg.Jobs)}
}

// WithContext returns a view of the experiment whose job batches are
// canceled with ctx: queued jobs stop before consuming a worker and
// figure rendering returns ctx.Err(). The view shares the pool (and so
// the memo cache) with its parent.
func (e *Exp) WithContext(ctx context.Context) *Exp {
	c := *e
	c.ctx = ctx
	return &c
}

// WithProgress returns a view of the experiment whose job batches report
// to fn instead of the pool's global OnProgress, sharing the pool with
// its parent.
func (e *Exp) WithProgress(fn func(runner.Progress)) *Exp {
	c := *e
	c.progress = fn
	return &c
}

// Config returns the experiment's base configuration.
func (e *Exp) Config() Config { return e.cfg }

// Pool exposes the underlying pool (progress callbacks, cache stats).
func (e *Exp) Pool() *runner.Pool { return e.pool }

// job describes one measurement under the base configuration.
func (e *Exp) job(wname string, sys core.System) runner.Job {
	return e.cfg.Job(wname, sys)
}

// run executes a declared job set and returns results in job order.
func (e *Exp) run(jobs []runner.Job) ([]*Result, error) {
	ctx := e.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return e.pool.RunCtxFunc(ctx, jobs, e.progress)
}
