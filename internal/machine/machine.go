// Package machine assembles the full simulated system of Table V: the
// event engine, the W×H mesh, the DRAM controllers, the three-level cache
// hierarchy with directory coherence, and the address space with
// huge-page support. The near-stream runtime (internal/core) and the
// experiment harness build on a Machine.
package machine

import (
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/tlb"
)

// Config sizes a machine.
type Config struct {
	// MeshWidth/MeshHeight give the tile grid (8×8 in the paper; tests
	// and CI-scale experiments use 4×4).
	MeshWidth, MeshHeight int
	// Cores is how many tiles run worker threads (≤ tiles; the rest only
	// contribute L3 banks). 0 means all.
	Cores int
	// CoreType selects the core model.
	CoreType cpu.Config
	// Cache configures the hierarchy (DefaultConfig for Table V).
	Cache cache.Config
	// NoC configures the mesh.
	NoC noc.Config
	// Mem configures DRAM.
	Mem mem.Config
	// UseHugePages backs allocations with physically contiguous huge
	// pages (the §IV-A assumption range-sync relies on).
	UseHugePages bool
	// EnablePrefetchers turns on the Bingo + stride prefetchers (the
	// Base system only, §VI).
	EnablePrefetchers bool
	// Seed feeds the address space's base-page scatter RNG, the only
	// seeded machine state; a pooled machine changes seed with Reseed.
	Seed uint64
	// Shards partitions the mesh into that many row bands, each simulated
	// by its own engine in barrier-synchronized windows (conservative
	// parallel DES; lookahead from the NoC's minimum cross-node latency).
	// 0 or 1 runs serially — through the same windowed code path, not a
	// fork. Shards is an execution knob: results are bit-identical at any
	// value. Clamped to MeshHeight.
	Shards int
}

// Default returns the paper's 8×8 OOO8 machine.
func Default() Config {
	ncfg := noc.DefaultConfig()
	return Config{
		MeshWidth: 8, MeshHeight: 8,
		CoreType:     cpu.OOO8(),
		Cache:        cache.DefaultConfig(),
		NoC:          ncfg,
		Mem:          mem.DefaultConfig(),
		UseHugePages: true,
		Seed:         1,
	}
}

// CI returns a reduced 4×4 machine for tests and CI-scale experiments.
func CI() Config {
	cfg := Default()
	cfg.MeshWidth, cfg.MeshHeight = 4, 4
	cfg.NoC.Width, cfg.NoC.Height = 4, 4
	return cfg
}

// Machine is an assembled system.
//
// Every clocked component hangs off one sim.Engine and follows its
// eventless-idle contract: cores park their pipeline ticker when
// stalled, cache banks and the NoC schedule work only when traffic is
// in flight, and DRAM is pure state between bursts. Idle tiles
// therefore cost nothing — the engine's time wheel pops only cycles
// that actually hold events.
type Machine struct {
	Cfg Config
	// Group coordinates the per-shard engines; Engine is shard 0's (the
	// engine of every component in a 1-shard machine, and the scheduling
	// home for shard-agnostic bookkeeping otherwise). ShardOf maps mesh
	// node -> owning shard.
	Group   *sim.ShardGroup
	Engine  *sim.Engine
	ShardOf []int32
	Net     *noc.Network
	Dram    *mem.Memory
	Hier    *cache.Hierarchy
	AS      *tlb.AddressSpace
	PFUnits []*prefetch.Unit
	// Obs interns runtime counters (the core layer's registry); Tracer and
	// Sampler are the machine-wide observability hooks, nil unless a run
	// opts in via SetTracer / an attached sampler.
	Obs     *obs.Registry
	Tracer  *obs.Tracer
	Sampler *obs.Sampler
	// laneTracers are the per-shard trace rings behind Tracer on parallel
	// machines; FinishTrace merges them deterministically.
	laneTracers []*obs.Tracer
	// Attrib is the run's cycle-attribution sink, nil unless a run opts in
	// via SetAttribution; laneAttribs are the per-shard single-writer lanes
	// behind it, folded in by FinishAttribution.
	Attrib      *obs.Attribution
	laneAttribs []*obs.Attribution
}

// Normalize canonicalizes a config the way New does: NoC dimensions
// follow the mesh, zero Cores means every tile, Shards clamps to
// [1, MeshHeight]. Two configs that normalize equal build byte-identical
// machines, so the normalized value (a comparable struct) is the digest
// the runner's machine pool keys its free lists by.
func Normalize(cfg Config) Config {
	if cfg.MeshWidth <= 0 || cfg.MeshHeight <= 0 {
		panic("machine: bad mesh")
	}
	cfg.NoC.Width, cfg.NoC.Height = cfg.MeshWidth, cfg.MeshHeight
	if cfg.Cores == 0 {
		cfg.Cores = cfg.MeshWidth * cfg.MeshHeight
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Shards > cfg.MeshHeight {
		cfg.Shards = cfg.MeshHeight
	}
	return cfg
}

// New assembles a machine.
func New(cfg Config) *Machine {
	cfg = Normalize(cfg)
	// Row-band partition: contiguous rows share a shard, so every
	// cross-shard message crosses at least one full link (the lookahead).
	group := sim.NewShardGroup(cfg.Shards, noc.Lookahead(cfg.NoC))
	engine := group.Engine(0)
	shardOf := make([]int32, cfg.MeshWidth*cfg.MeshHeight)
	for node := range shardOf {
		shardOf[node] = int32((node / cfg.MeshWidth) * cfg.Shards / cfg.MeshHeight)
	}
	net := noc.New(engine, cfg.NoC)
	net.AttachShards(group, shardOf)
	dram := mem.New(engine, cfg.Mem)
	hier := cache.New(engine, net, dram, cfg.Cache)
	hier.AttachShards(group, shardOf)
	ctrlEngines := make([]*sim.Engine, 0, cfg.Mem.Controllers)
	for _, node := range mem.CornerNodes(cfg.MeshWidth, cfg.MeshHeight, cfg.Mem.Controllers) {
		ctrlEngines = append(ctrlEngines, group.Engine(int(shardOf[node])))
	}
	dram.AttachShards(ctrlEngines)
	m := &Machine{
		Cfg:     cfg,
		Group:   group,
		Engine:  engine,
		ShardOf: shardOf,
		Net:     net,
		Dram:    dram,
		Hier:    hier,
		AS:      tlb.NewAddressSpace(cfg.UseHugePages, cfg.Seed),
		Obs:     obs.NewRegistry(),
	}
	if cfg.EnablePrefetchers {
		for i := 0; i < net.Nodes(); i++ {
			m.PFUnits = append(m.PFUnits, prefetch.NewUnit(hier.Tile(i)))
		}
		hier.PrefetchHook = func(tile int, addr uint64, pc uint64, hit bool) {
			m.PFUnits[tile].Observe(addr, pc)
		}
	}
	return m
}

// Reset returns the machine to its just-built state so a pooled machine
// can run another job: engines rewound, links and buses idle, caches
// cold, the address space forgetting every mapping and replaying its
// seed, all counters zeroed, tracers and sampler detached. The Reset
// contract is observational equivalence to New(m.Cfg) — a job run on a
// Reset machine must produce bit-identical results — which holds because
// every piece of run state is either cleared here or rebuilt per run
// (cores and SE state live in core.Run, not on the Machine). Shard structure, precomputed routes and interned
// counter ids survive: they are functions of Cfg alone.
func (m *Machine) Reset() {
	m.SetTracer(nil)
	m.SetAttribution(nil)
	m.Sampler = nil
	m.Group.Reset()
	m.Net.Reset()
	m.Dram.Reset()
	m.Hier.Reset()
	m.AS.Reset()
	m.Obs.Reset()
	for _, u := range m.PFUnits {
		u.Reset()
	}
	if m.Cfg.EnablePrefetchers {
		// Hier.Reset clears the hook along with the rest of the run state.
		m.Hier.PrefetchHook = func(tile int, addr uint64, pc uint64, hit bool) {
			m.PFUnits[tile].Observe(addr, pc)
		}
	}
}

// Reseed switches a just-Reset machine to another seed: afterwards it is
// observationally equivalent to New with m.Cfg.Seed = seed. Seed reaches
// machine state only through the address space, so the machine pool keys
// machines without it and reseeds on checkout.
func (m *Machine) Reseed(seed uint64) {
	m.Cfg.Seed = seed
	m.AS.Reseed(seed)
}

// SetTracer attaches one event tracer to every traced component (nil
// detaches). The components keep their own pointers so the hot-path guard
// is a single field load + nil check. Each shard records into its own lane
// ring (same capacity as tr) — even a 1-shard machine, so the merged trace
// FinishTrace produces is in the same canonical order at every shard
// count, not emission order for K = 1 and sorted order otherwise.
func (m *Machine) SetTracer(tr *obs.Tracer) {
	m.Tracer = tr
	m.laneTracers = nil
	if tr == nil {
		m.Hier.SetTracer(nil)
		m.Net.SetTracer(nil)
		m.Dram.SetTracer(nil)
		return
	}
	m.laneTracers = make([]*obs.Tracer, m.Group.Shards())
	for i := range m.laneTracers {
		m.laneTracers[i] = obs.NewTracer(tr.Cap())
		m.Hier.SetLaneTracer(i, m.laneTracers[i])
	}
	// The NoC traces only at barrier flushes, which run single-threaded
	// while every shard is parked: lane 0 is safe.
	m.Net.SetTracer(m.laneTracers[0])
	ctrlNodes := mem.CornerNodes(m.Cfg.MeshWidth, m.Cfg.MeshHeight, m.Cfg.Mem.Controllers)
	for ctrl, node := range ctrlNodes {
		m.Dram.SetControllerTracer(ctrl, m.laneTracers[m.ShardOf[node]])
	}
}

// SetAttribution attaches a cycle-attribution sink to every charge site
// (nil detaches), following the SetTracer shape: each shard charges into
// its own lane, the NoC (mutated only single-threaded, in canonical order)
// uses lane 0, and each DRAM controller uses its owning shard's lane.
// Charge sites fire at deterministic simulation events, so the totals
// FinishAttribution folds into a are shard-count-invariant.
func (m *Machine) SetAttribution(a *obs.Attribution) {
	m.Attrib = a
	m.laneAttribs = nil
	ctrlNodes := mem.CornerNodes(m.Cfg.MeshWidth, m.Cfg.MeshHeight, m.Cfg.Mem.Controllers)
	if a == nil {
		for i := 0; i < m.Group.Shards(); i++ {
			m.Hier.SetLaneAttrib(i, nil)
		}
		m.Net.SetAttribution(nil)
		for ctrl := range ctrlNodes {
			m.Dram.SetControllerAttrib(ctrl, nil)
		}
		return
	}
	m.laneAttribs = make([]*obs.Attribution, m.Group.Shards())
	for i := range m.laneAttribs {
		m.laneAttribs[i] = obs.NewAttribution()
		m.Hier.SetLaneAttrib(i, m.laneAttribs[i])
	}
	m.Net.SetAttribution(m.laneAttribs[0])
	for ctrl, node := range ctrlNodes {
		m.Dram.SetControllerAttrib(ctrl, m.laneAttribs[m.ShardOf[node]])
	}
}

// AttributionLane returns shard i's attribution lane (nil while
// detached). Cores and SE state built per run charge into the lane of
// the shard that owns their engine.
func (m *Machine) AttributionLane(shard int) *obs.Attribution {
	if len(m.laneAttribs) == 0 {
		return nil
	}
	return m.laneAttribs[shard]
}

// FinishAttribution folds the per-shard lanes into the attached sink.
// Call it once, after the run; runner.executeJob does. Merging is a
// component-wise sum, so the result is lane-order-independent.
func (m *Machine) FinishAttribution() {
	if m.Attrib == nil {
		return
	}
	for _, l := range m.laneAttribs {
		m.Attrib.Merge(l)
		l.Reset()
	}
}

// ExecProfile snapshots the execution-dependent side of a run's profile:
// shard count, windows, idle-cycle elision, wheel occupancy, and the
// per-shard barrier critical path. Everything here varies with -shards
// (and the stall seconds with host load), so it belongs in the report's
// non-canonical Exec section, never in canonical output.
func (m *Machine) ExecProfile() *obs.ExecReport {
	rep := &obs.ExecReport{Shards: m.Group.Shards(), Windows: m.Group.Windows()}
	var occ obs.Hist
	for i := 0; i < m.Group.Shards(); i++ {
		e := m.Group.Engine(i)
		rep.IdleElidedCycles += e.IdleElided
		buckets, count, sum := e.WheelOccupancy()
		for b, n := range buckets {
			occ.Buckets[b] += n
		}
		occ.Count += count
		occ.Sum += sum
	}
	if occ.Count > 0 {
		h := obs.ReportHist("wheel_occupancy", &occ)
		rep.WheelOccupancy = &h
	}
	for _, ns := range m.Group.StallNanos() {
		rep.ShardStallSeconds = append(rep.ShardStallSeconds, float64(ns)/1e9)
	}
	var anyLag bool
	for _, n := range m.Group.LaggardWindows() {
		if n != 0 {
			anyLag = true
			break
		}
	}
	if anyLag {
		rep.LaggardWindows = append(rep.LaggardWindows, m.Group.LaggardWindows()...)
	}
	return rep
}

// FinishTrace folds per-shard trace lanes into the attached tracer in
// canonical order. Call it once, after the run; runner.ExecuteObs does.
func (m *Machine) FinishTrace() {
	if m.Tracer == nil || len(m.laneTracers) == 0 {
		return
	}
	obs.MergeTracers(m.Tracer, m.laneTracers...)
	for i := range m.laneTracers {
		m.laneTracers[i] = obs.NewTracer(m.Tracer.Cap())
		m.Hier.SetLaneTracer(i, m.laneTracers[i])
	}
}

// EngineOf returns the engine that owns mesh node i; components and cores
// colocated with node i must schedule all their local work there.
func (m *Machine) EngineOf(node int) *sim.Engine { return m.Group.Engine(int(m.ShardOf[node])) }

// Shards reports the shard count (>= 1).
func (m *Machine) Shards() int { return m.Group.Shards() }

// Run drains the machine: every shard's events fire, windows barrier on
// the NoC exchange, and the final group time (the last event's cycle, as a
// serial engine would report) returns.
func (m *Machine) Run() sim.Time { return m.Group.Run() }

// RunTo runs events with timestamps <= limit (the sampler's stepping
// primitive); it reports whether the machine drained.
func (m *Machine) RunTo(limit sim.Time) bool { return m.Group.RunTo(limit) }

// Now returns the machine clock (the furthest shard).
func (m *Machine) Now() sim.Time { return m.Group.Now() }

// ExecutedEvents sums fired events across shards.
func (m *Machine) ExecutedEvents() uint64 { return m.Group.Executed() }

// Stopped reports whether any shard engine was stopped (deadlock bail-out).
func (m *Machine) Stopped() bool { return m.Group.Stopped() }

// Close releases the shard group's worker goroutines. Runs that may have
// executed windows in parallel must Close when done; serial machines are
// unaffected (Close is an idempotent no-op without workers).
func (m *Machine) Close() { m.Group.Close() }

// Tiles returns the mesh node count.
func (m *Machine) Tiles() int { return m.Net.Nodes() }

// Cores returns the worker-core count.
func (m *Machine) Cores() int { return m.Cfg.Cores }

// Translate maps a virtual to a physical address. Translation is
// functional and costs no cycles: every workload runs on huge pages, so
// core-side TLB misses are negligible; the SE_L3 TLB's misses are charged
// by the near-stream runtime.
func (m *Machine) Translate(va uint64) uint64 { return m.AS.Translate(va) }

// HomeBank returns the L3 bank of a virtual address.
func (m *Machine) HomeBank(va uint64) int { return m.Hier.HomeBank(m.Translate(va)) }

// Registries lists every counter registry the machine owns: the runtime
// registry (Obs), the NoC's (including its per-class traffic,
// noc.bytehops.<class> and noc.messages.<class>), and the cache and DRAM
// lanes.
func (m *Machine) Registries() []*obs.Registry {
	regs := append([]*obs.Registry{m.Obs, m.Net.Registry()}, m.Hier.Registries()...)
	return append(regs, m.Dram.Registries()...)
}

// Counters snapshots every counter of Registries into one map keyed by
// counter name. Per-lane registries sum, so the snapshot does not depend
// on the shard count. Zero counters are omitted.
func (m *Machine) Counters() map[string]uint64 {
	out := make(map[string]uint64)
	for _, r := range m.Registries() {
		r.SumInto(out)
	}
	return out
}
