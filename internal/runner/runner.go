// Package runner decouples experiment specification from execution. A Job
// canonically describes one measurement — (workload, system, scale, core
// type, seed, parameter overrides) — and a Pool executes batches of jobs
// across worker goroutines with an in-process memo cache keyed by the job
// digest, so a measurement shared by several figures (every figure's
// (workload, Base) denominator, for instance) simulates exactly once per
// process. Each simulation is a self-contained sim.ShardGroup of
// deterministic engines, so results are bit-for-bit identical at any
// worker count and any shard count.
package runner

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Job canonically describes one measurement.
type Job struct {
	Workload string
	System   core.System
	// Scale selects workload/machine sizing (CI or paper).
	Scale workloads.Scale
	// CoreType is "IO4", "OOO4" or "OOO8" ("" defaults to OOO8).
	CoreType string
	// Seed feeds workload initialization.
	Seed uint64
	// Overrides are the declarative parameter tweaks (sensitivity
	// sweeps); the zero value means paper defaults.
	Overrides Overrides
}

// Key returns the job's deterministic digest: the memo-cache key. Override
// fields set to their default value are canonicalized away, so a sweep's
// default point shares its cache entry with plain runs.
func (j Job) Key() string {
	mc := MachineConfig(j, j.System == core.Base)
	def := core.DefaultParams(mc.MeshWidth * mc.MeshHeight)
	ov := j.Overrides.canon(def)
	k := fmt.Sprintf("%s|%s|%s|%s|seed=%d",
		j.Workload, j.System, j.Scale, coreTypeName(j.CoreType), j.Seed)
	if d := ov.digest(); d != "" {
		k += "|" + d
	}
	return k
}

// coreTypeName canonicalizes the default core type.
func coreTypeName(name string) string {
	if name == "IO4" || name == "OOO4" {
		return name
	}
	return "OOO8"
}

// CoreConfigFor maps a core-type name to a cpu configuration.
func CoreConfigFor(name string) cpu.Config {
	switch name {
	case "IO4":
		return cpu.IO4()
	case "OOO4":
		return cpu.OOO4()
	default:
		return cpu.OOO8()
	}
}

// MachineConfig builds the machine for a job's scale: the paper's 8×8
// Table V system, or the CI system (4×4 mesh with caches scaled 1/16 so
// the footprint ratios — and therefore the §IV-B offload decisions — match
// the paper's at the reduced workload sizes).
func MachineConfig(j Job, prefetchers bool) machine.Config {
	var mc machine.Config
	if j.Scale == workloads.ScalePaper {
		mc = machine.Default()
	} else {
		mc = machine.CI()
		mc.Cache.L1.SizeBytes = 2 << 10
		mc.Cache.L2.SizeBytes = 16 << 10
		mc.Cache.L3Bank.SizeBytes = 64 << 10
	}
	mc.CoreType = CoreConfigFor(j.CoreType)
	mc.EnablePrefetchers = prefetchers
	mc.Seed = j.Seed
	return mc
}

// Result is one (workload, system) measurement.
type Result struct {
	Workload string
	System   core.System
	Cycles   uint64
	// Events is the count of simulation events fired.
	Events uint64
	// TotalOps is the dynamic micro-op count (all categories).
	TotalOps uint64
	// StreamableOps and OffloadedOps drive Figure 11.
	StreamableOps, OffloadedOps uint64
	// Traffic in bytes×hops by class (Figure 12).
	TrafficData, TrafficControl, TrafficOffload uint64
	// Energy for Figure 10.
	Energy energy.Breakdown
	// LockAcquires/LockConflicts for Figure 16.
	LockAcquires, LockConflicts uint64
}

// TotalTraffic sums all classes.
func (r *Result) TotalTraffic() uint64 {
	return r.TrafficData + r.TrafficControl + r.TrafficOffload
}

// Execute simulates one job: the kernel runs Iters times on one machine
// (so iterations past the first observe a warm LLC, as in the paper's
// simulate-to-completion runs). Every Execute call builds a private
// machine and data image, so concurrent calls are independent.
func Execute(j Job) (*Result, error) { return ExecuteObs(j, nil) }

// ExecuteObs is Execute with an optional observability record: when rec is
// non-nil its tracer and sampler (either may be nil) attach to the job's
// machine, and the record's deterministic report fields are filled in.
// Tracing and sampling observe the run without perturbing it, so the
// Result is identical either way.
func ExecuteObs(j Job, rec *obs.JobRecord) (*Result, error) {
	res, _, err := ExecuteShardsObs(j, rec, 1)
	return res, err
}

// ExecuteShardsObs is ExecuteObs with the machine partitioned into shards
// parallel DES engines. Shards is an execution knob like the pool's worker
// count — the Result and report are bit-identical at any value — so it is
// not part of Job or its memo key. Stream systems (whose per-bank engines
// assume a single clock domain for SCM scheduling) are clamped to one
// shard; only Base fans out. The second return value is the per-shard
// wall-clock nanoseconds spent stalled at window barriers (nil when the
// machine ran serially) — a load-balance diagnostic, not a result.
func ExecuteShardsObs(j Job, rec *obs.JobRecord, shards int) (*Result, []uint64, error) {
	mc := MachineConfig(j, j.System == core.Base)
	if j.System == core.Base {
		mc.Shards = shards
	}
	m := machine.New(mc)
	defer m.Close()
	return simulate(m, j, rec)
}

// simulate runs job j on the freshly built machine m: it allocates and
// initializes the workload's data, runs the kernel w.Iters times and
// assembles the Result.
func simulate(m *machine.Machine, j Job, rec *obs.JobRecord) (*Result, []uint64, error) {
	w := workloads.Get(j.Workload, j.Scale)
	if rec != nil {
		if rec.Trace != nil {
			m.SetTracer(rec.Trace)
		}
		if rec.Attrib != nil {
			m.SetAttribution(rec.Attrib)
		}
		m.Sampler = rec.Sampler
	}
	d := ir.NewData(m.AS)
	d.AllocArrays(w.Kernel)
	w.Init(d, sim.NewRand(j.Seed^0x9e37))
	params := core.DefaultParams(m.Tiles())
	j.Overrides.Apply(&params)
	out := &Result{Workload: j.Workload, System: j.System}
	// counters is the last invocation's snapshot: machine counters
	// accumulate across iterations, so it covers the whole job.
	var counters map[string]uint64
	for it := 0; it < w.Iters; it++ {
		res, err := core.Run(m, w.Kernel, j.System, params, w.Params, d)
		if err != nil {
			return nil, nil, fmt.Errorf("%s/%v: %w", j.Workload, j.System, err)
		}
		for _, n := range res.DynOps {
			out.TotalOps += n
		}
		out.StreamableOps += res.DynOps[1] + res.DynOps[2] // mem + compute
		out.OffloadedOps += res.OffloadedOps
		counters = res.Stats
	}
	m.FinishTrace()
	m.FinishAttribution()
	if rec != nil && rec.Attrib != nil {
		rec.Exec = m.ExecProfile()
	}
	out.Cycles = uint64(m.Now())
	out.Events = m.ExecutedEvents()
	if rec != nil {
		rec.Workload = j.Workload
		rec.System = j.System.String()
		rec.SimCycles = out.Cycles
		rec.Events = out.Events
	}
	out.TrafficData = counters["noc.bytehops.data"]
	out.TrafficControl = counters["noc.bytehops.control"]
	out.TrafficOffload = counters["noc.bytehops.offloaded"]
	out.LockAcquires = counters["lock.acquires"]
	out.LockConflicts = counters["lock.conflicts"]
	out.Energy = energy.Estimate(energy.ForCore(coreTypeName(j.CoreType)), counters, out.TotalOps, out.Cycles)
	var stalls []uint64
	if m.Shards() > 1 {
		stalls = append(stalls, m.Group.StallNanos()...)
	}
	return out, stalls, nil
}
