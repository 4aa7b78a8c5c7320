package main

import (
	"encoding/json"
	"os"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
)

// span is one timed interval recorded by the benchmark around a call
// into the program: a Pool.Run batch, a job inside it, a client request
// or one HTTP exchange of that request. Spans of one request or batch
// share Trace; Parent is the id of the enclosing span (0 = none).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Trace   string  `json:"trace"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog is
// the untraced configuration: add is a no-op.
type spanLog struct {
	t0   time.Time
	mu   sync.Mutex
	list []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a span and returns its id (0 when tracing is off).
func (l *spanLog) add(parent int, trace, name string, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.list) + 1
	l.list = append(l.list, span{ID: id, Parent: parent, Trace: trace, Name: name,
		StartMS: msSince(l.t0, start), EndMS: msSince(l.t0, end)})
	return id
}

func msSince(t0, t time.Time) float64 { return float64(t.Sub(t0)) / 1e6 }

// write dumps the spans as JSON.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	buf, err := json.MarshalIndent(l.list, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// durationsMS returns the durations of the spans whose name starts with
// prefix.
func (l *spanLog) durationsMS(prefix string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.list {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, s.EndMS-s.StartMS)
		}
	}
	return out
}

// selfMS sums, over every span named name, its duration minus the part
// of it that its child spans cover.
func (l *spanLog) selfMS(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[int][]span{}
	for _, s := range l.list {
		children[s.Parent] = append(children[s.Parent], s)
	}
	total := 0.0
	for _, s := range l.list {
		if s.Name == name {
			total += (s.EndMS - s.StartMS) - coveredMS(s, children[s.ID])
		}
	}
	return total
}

// coveredMS is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredMS(parent span, kids []span) float64 {
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartMS, parent.StartMS), min(k.EndMS, parent.EndMS)
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// rtSnapshot is the Go runtime's cumulative GC and allocation counters.
type rtSnapshot struct {
	gcCPU, totalCPU, allocBytes, gcCycles float64
}

func readRuntime() rtSnapshot {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case rtmetrics.KindFloat64:
			return s[i].Value.Float64()
		case rtmetrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return rtSnapshot{v(0), v(1), v(2), v(3)}
}

// layerMetrics accumulates the per-layer figures of one traced section.
type layerMetrics map[string]float64

// addProfile records self seconds per layer from a folded profile.
func (m layerMetrics) addProfile(layerMS map[string]float64) {
	for _, l := range allLayers {
		m[l+".self_s"] = layerMS[l] / 1e3
	}
}

// addRuntime records GC share, allocation and GC cycles between two
// snapshots.
func (m layerMetrics) addRuntime(before, after rtSnapshot) {
	m["runtime.gc_cpu_frac"] = frac(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	m["runtime.alloc_mb"] = (after.allocBytes - before.allocBytes) / (1 << 20)
	m["runtime.gc_cycles"] = after.gcCycles - before.gcCycles
}

// addSimulated records the model-side counts of the simulated jobs: the
// results they returned and their collector records (attribution and
// timing). Jobs served from a memo or the store carry no record and must
// not be passed in results.
func (m layerMetrics) addSimulated(results []*runner.Result, rep *obs.RunReport) {
	var ops, cycles, off, streamable, traffic, lockAcq, lockConf, events float64
	for _, r := range results {
		ops += float64(r.TotalOps)
		cycles += float64(r.Cycles)
		off += float64(r.OffloadedOps)
		streamable += float64(r.StreamableOps)
		traffic += float64(r.TotalTraffic())
		lockAcq += float64(r.LockAcquires)
		lockConf += float64(r.LockConflicts)
	}
	var hostS, stallS, idle float64
	stalls := map[string]float64{}
	waits := map[string]float64{}
	for _, j := range rep.Jobs {
		if j.Err != "" || j.SimCycles == 0 {
			continue
		}
		events += float64(j.Events)
		hostS += j.Timing.WallSeconds
		stallS += j.Timing.ShardStallSeconds
		if a := j.Attribution; a != nil {
			for _, s := range a.Stalls {
				stalls[s.Component] += float64(s.Count)
				waits[s.Component] += float64(s.Cycles)
			}
			if a.Exec != nil {
				idle += float64(a.Exec.IdleElidedCycles)
			}
		}
	}
	m["sim.events"] = events
	m["sim.host_ns_per_event"] = frac(hostS*1e9, events)
	m["sim.idle_elided"] = idle
	m["sim.shard_stall_s"] = stallS
	m["cpu.ops"] = ops
	m["cpu.ipc"] = frac(ops, cycles)
	m["cpu.stalls"] = stalls["cpu"]
	m["core.offloaded_ops"] = off
	m["core.offload_frac"] = frac(off, streamable)
	m["core.stalls"] = stalls["core"]
	m["cache.stalls"] = stalls["cache"]
	m["cache.lock_conflict_frac"] = frac(lockConf, lockAcq)
	m["noc.bytehops"] = traffic
	m["noc.wait_cycles"] = waits["noc"]
	m["mem.wait_cycles"] = waits["mem"]
}

// addPool records the runner's reuse and store counters. The pool (and
// store) must be fresh for the traced section so the counts are its own.
func (m layerMetrics) addPool(p *runner.Pool, st *runner.Store) {
	mh, mm := p.MachineReuse()
	dh, dm, dev, _ := p.DatasetCacheStats()
	m["machine.reuse_frac"] = frac(float64(mh), float64(mh+mm))
	m["workloads.generated"] = float64(dm)
	m["runner.executed"] = float64(p.Executed())
	m["runner.memo_hits"] = float64(p.Hits())
	m["runner.dataset_hit_frac"] = frac(float64(dh), float64(dh+dm))
	m["runner.dataset_evictions"] = float64(dev)
	if st != nil {
		loads, hits, puts, _, _ := st.Stats()
		m["runner.store_loads"] = float64(loads)
		m["runner.store_hits"] = float64(hits)
		m["runner.store_puts"] = float64(puts)
	}
}
