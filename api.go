// Package nearstream is the public API of this reproduction of
// "Near-Stream Computing: General and Transparent Near-Cache Acceleration"
// (Wang, Weng, Liu, Nowatzki — HPCA 2022).
//
// The package re-exports the pieces a downstream user needs:
//
//   - authoring kernels in the loop-nest IR (Kernel, via the ir builder)
//   - compiling them to streams (Compile)
//   - building a simulated machine (NewMachine) and running a kernel on
//     any of the paper's eight design points (Run, Systems)
//   - the 14 Table VI workloads (Workloads, Workload)
//   - the experiment harness that regenerates every figure and table of
//     the evaluation (Figure, StaticTable)
//
// See examples/quickstart for a complete walkthrough, DESIGN.md for the
// system inventory, and EXPERIMENTS.md for measured-vs-paper results.
package nearstream

import (
	"context"
	"fmt"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// System is an evaluated design point (§VI): Base, INST, SINGLE, NSCore,
// NSNoComp, NS, NSNoSync, NSDecouple.
type System = core.System

// Re-exported design points.
const (
	Base       = core.Base
	INST       = core.INST
	SINGLE     = core.SINGLE
	NSCore     = core.NSCore
	NSNoComp   = core.NSNoComp
	NS         = core.NS
	NSNoSync   = core.NSNoSync
	NSDecouple = core.NSDecouple
)

// Systems lists every design point in figure order.
func Systems() []System { return core.AllSystems() }

// Scale selects workload/machine sizing.
type Scale = workloads.Scale

// Scales.
const (
	ScaleCI    = workloads.ScaleCI
	ScalePaper = workloads.ScalePaper
)

// Kernel is a loop-nest IR kernel; author one with NewKernelBuilder.
type Kernel = ir.Kernel

// NewKernelBuilder starts a kernel definition (see package ir for the
// full builder API).
func NewKernelBuilder(name string) *ir.Builder { return ir.NewKernel(name) }

// Plan is a compiled stream plan.
type Plan = compiler.Plan

// Compile runs the §III-B compiler passes over a kernel.
func Compile(k *Kernel) (*Plan, error) { return compiler.Compile(k) }

// Machine is the simulated system of Table V.
type Machine = machine.Machine

// Params are the runtime tunables (range window, SCM latency, SCC ROB,
// lock type, …).
type Params = core.Params

// Config selects scale, core type, parameter overrides and parallelism
// (Jobs) for harness runs.
type Config = harness.Config

// Overrides declaratively adjusts runtime parameters for sensitivity
// studies (see runner.Int/U64/Bool for setting fields).
type Overrides = runner.Overrides

// Job canonically describes one (workload, system, config) measurement.
type Job = runner.Job

// Result is one (workload, system) measurement.
type Result = harness.Result

// Table is a rendered figure/table.
type Table = harness.Table

// Workload is one Table VI benchmark.
type Workload = workloads.Workload

// Workloads lists the 14 Table VI benchmark names.
func Workloads() []string { return workloads.Names() }

// GetWorkload builds one workload at a scale.
func GetWorkload(name string, scale Scale) *Workload { return workloads.Get(name, scale) }

// DefaultConfig returns the CI-scale OOO8 harness configuration.
func DefaultConfig() Config { return harness.DefaultConfig() }

// NewMachine builds a machine for a configuration; prefetchers must be
// enabled exactly for the Base system. An unknown core type is an error.
func NewMachine(cfg Config, prefetchers bool) (*Machine, error) {
	mc, err := harness.MachineConfig(cfg, prefetchers)
	if err != nil {
		return nil, err
	}
	return machine.New(mc), nil
}

// RunWorkload simulates one workload on one system.
func RunWorkload(name string, sys System, cfg Config) (*Result, error) {
	return harness.RunOne(name, sys, cfg)
}

// RunKernel simulates a user-authored kernel on a fresh machine, returning
// the cycle count and the run result. Data arrays are allocated and handed
// to init for filling.
func RunKernel(k *Kernel, sys System, cfg Config, kparams map[string]uint64, init func(*ir.Data)) (*core.RunResult, error) {
	m, err := NewMachine(cfg, sys == core.Base)
	if err != nil {
		return nil, err
	}
	d := ir.NewData(m.AS)
	d.AllocArrays(k)
	if init != nil {
		init(d)
	}
	return core.Run(m, k, sys, core.DefaultParams(m.Tiles()), kparams, d)
}

// Experiment renders figures against one shared, parallel, memoizing
// runner pool: a measurement requested by several figures (every figure's
// (workload, Base) denominator, the default point of each sensitivity
// sweep) simulates exactly once per Experiment. cfg.Jobs bounds the
// concurrency (0 = GOMAXPROCS); output is byte-identical at any value.
type Experiment struct {
	exp *harness.Exp
}

// NewExperiment builds an experiment context for a configuration.
func NewExperiment(cfg Config) *Experiment {
	return &Experiment{exp: harness.NewExp(cfg)}
}

// WithContext returns a view of the experiment whose job batches cancel
// with ctx: queued simulations stop before consuming a worker and Figure
// returns ctx.Err(). The view shares the pool (and so the memo cache and
// persistent store) with its parent.
func (e *Experiment) WithContext(ctx context.Context) *Experiment {
	return &Experiment{exp: e.exp.WithContext(ctx)}
}

// Store is the persistent content-addressed result store shared by CLI
// runs and the nsd daemon (see runner.OpenStore).
type Store = runner.Store

// OpenStore opens (creating if needed) a result store rooted at dir;
// maxBytes caps its size (0 = unlimited).
func OpenStore(dir string, maxBytes int64) (*Store, error) {
	return runner.OpenStore(dir, maxBytes)
}

// UseStore attaches a persistent store to the experiment's pool: fresh
// jobs are looked up on disk before simulating, and every simulated
// result is written back (set before the first Figure call).
func (e *Experiment) UseStore(s *Store) {
	e.exp.Pool().Disk = s
}

// DiskHits reports how many jobs were served from the persistent store.
func (e *Experiment) DiskHits() uint64 { return e.exp.Pool().DiskHits() }

// UseRemote installs a remote executor on the experiment's pool: fresh
// jobs that miss the memo cache (and the persistent store, if attached)
// are delegated to fn instead of simulating locally. This is the hook
// behind nsd's fleet coordinator mode (internal/fleet dispatches through
// it to worker daemons); any custom distribution layer can plug in the
// same way. Set before the first Figure call. Figure output remains
// byte-identical — only where each simulation runs changes.
func (e *Experiment) UseRemote(fn func(ctx context.Context, j Job) (*Result, error)) {
	e.exp.Pool().Remote = fn
}

// RemoteJobs reports how many jobs the remote executor resolved.
func (e *Experiment) RemoteJobs() uint64 { return e.exp.Pool().RemoteJobs() }

// QuickWorkloads is the taxonomy-spanning 4-workload subset behind the
// CLIs' -quick flag and the daemon's ?quick= figure submissions.
func QuickWorkloads() []string { return harness.QuickSet() }

// OnProgress registers a per-job progress callback (set before the first
// Figure call; invoked serially as jobs finish).
func (e *Experiment) OnProgress(fn func(runner.Progress)) {
	e.exp.Pool().OnProgress = fn
}

// CacheStats reports how many simulations actually ran and how many job
// requests were served from the memo cache.
func (e *Experiment) CacheStats() (executed, hits uint64) {
	return e.exp.Pool().Executed(), e.exp.Pool().Hits()
}

// Collector gathers per-job observability (event traces, time-series
// samples, machine-readable run reports) across an Experiment's jobs.
type Collector = obs.Collector

// NewCollector builds a collector; traceEvents sizes each job's trace ring
// (0 = tracing off) and samplePeriod is the sampling epoch in cycles
// (0 = sampling off). A collector with both zero still gathers run
// reports.
func NewCollector(traceEvents int, samplePeriod uint64) *Collector {
	return obs.NewCollector(traceEvents, samplePeriod)
}

// Observe attaches a collector to the experiment's job pool (set before
// the first Figure call). Collection never perturbs simulated behavior:
// figure output is byte-identical with or without it.
func (e *Experiment) Observe(c *Collector) {
	e.exp.Pool().Obs = c
}

// Workers reports the experiment pool's concurrency bound.
func (e *Experiment) Workers() int { return e.exp.Pool().Workers() }

// Figure regenerates one paper figure by number ("1a", "1b", "9" … "17").
// subset restricts the workloads (nil = all 14).
func (e *Experiment) Figure(id string, subset []string) (*Table, error) {
	return e.exp.Figure(id, subset)
}

// Figure regenerates one paper figure with a fresh single-figure
// Experiment. Rendering several figures? Share an Experiment so common
// measurements are memoized across them.
func Figure(id string, cfg Config, subset []string) (*Table, error) {
	return NewExperiment(cfg).Figure(id, subset)
}

// FigureIDs lists every figure id Figure accepts, in paper order.
func FigureIDs() []string { return harness.FigureIDs() }

// StaticTable renders the qualitative tables ("1", "2", "4", "5", "area").
func StaticTable(id string) (*Table, error) {
	switch id {
	case "1":
		return harness.TableI(), nil
	case "2":
		return harness.TableII(), nil
	case "4":
		return harness.TableIV(), nil
	case "5":
		cfg := harness.DefaultConfig()
		cfg.Scale = ScalePaper
		return harness.TableV(cfg)
	case "area":
		return harness.AreaReport(), nil
	default:
		return nil, fmt.Errorf("nearstream: unknown static table %q", id)
	}
}

// NewRand exposes the deterministic RNG used throughout (for example
// programs that generate inputs).
func NewRand(seed uint64) *sim.Rand { return sim.NewRand(seed) }
