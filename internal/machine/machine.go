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

// Config sizes a machine. Every tile runs a core and holds an L3 bank;
// memory is allocated on huge pages (tlb.AddressSpace).
type Config struct {
	// CoreType selects the core model.
	CoreType cpu.Config
	// Cache configures the hierarchy (DefaultConfig for Table V).
	Cache cache.Config
	// NoC configures the mesh; its Width×Height is the tile grid (8×8 in
	// the paper; tests and CI-scale experiments use 4×4).
	NoC noc.Config
	// Mem configures DRAM.
	Mem mem.Config
	// EnablePrefetchers turns on the Bingo + stride prefetchers (the
	// Base system only, §VI).
	EnablePrefetchers bool
}

// Default returns the paper's 8×8 OOO8 machine.
func Default() Config {
	return Config{
		CoreType: cpu.OOO8(),
		Cache:    cache.DefaultConfig(),
		NoC:      noc.DefaultConfig(),
		Mem:      mem.DefaultConfig(),
	}
}

// CI returns a reduced 4×4 machine for tests and CI-scale experiments.
func CI() Config {
	cfg := Default()
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
	// Engine is the machine's event engine. Loop drives it in windows of
	// the NoC's lookahead, routing each window's sends at its barrier in
	// canonical order (see noc.Network.AttachWindows).
	Engine  *sim.Engine
	Loop    *sim.Windowed
	Net     *noc.Network
	Dram    *mem.Memory
	Hier    *cache.Hierarchy
	AS      *tlb.AddressSpace
	PFUnits []*prefetch.Unit
	// Obs interns runtime counters (the core layer's registry); Tracer and
	// Sampler are the machine-wide observability hooks, nil unless a run
	// opts in via SetTracer / an attached sampler. Both only read the
	// machine: the sampler at window barriers (core.Run), the tracer at
	// each instrumented site.
	Obs     *obs.Registry
	Tracer  *obs.Tracer
	Sampler *obs.Sampler
	// Attrib is the run's cycle-attribution sink, nil unless a run opts in
	// via SetAttribution.
	Attrib *obs.Attribution
}

// New assembles a machine.
func New(cfg Config) *Machine {
	engine := sim.NewEngine()
	loop := sim.NewWindowed(engine, noc.Lookahead(cfg.NoC))
	net := noc.New(engine, cfg.NoC)
	net.AttachWindows(loop)
	dram := mem.New(engine, cfg.Mem)
	hier := cache.New(engine, net, dram, cfg.Cache)
	m := &Machine{
		Cfg:    cfg,
		Engine: engine,
		Loop:   loop,
		Net:    net,
		Dram:   dram,
		Hier:   hier,
		AS:     tlb.NewAddressSpace(),
		Obs:    obs.NewRegistry(),
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

// SetTracer attaches one event ring to the machine (nil detaches): the
// runtime, cache, NoC and DRAM all record into tr, in the order the one
// engine runs them. The NoC records a window's sends at its barrier, so
// the ring is in emission order, not strictly in time order. The
// components keep their own pointers so the hot-path guard is a single
// field load + nil check.
func (m *Machine) SetTracer(tr *obs.Tracer) {
	m.Tracer = tr
	m.Hier.SetTracer(tr)
	m.Net.SetTracer(tr)
	m.Dram.SetTracer(tr)
}

// SetAttribution attaches a cycle-attribution sink to every charge site
// of the cache, NoC and DRAM (nil detaches); cores built per run charge
// into Attrib.
func (m *Machine) SetAttribution(a *obs.Attribution) {
	m.Attrib = a
	m.Hier.SetAttribution(a)
	m.Net.SetAttribution(a)
	m.Dram.SetAttribution(a)
}

// ExecProfile snapshots the execution-dependent side of a run's profile:
// windows, idle-cycle elision and wheel occupancy. It describes how the
// engine ran, not the simulated machine, so it belongs in the report's
// non-canonical Exec section, never in canonical output.
func (m *Machine) ExecProfile() *obs.ExecReport {
	rep := &obs.ExecReport{Windows: m.Loop.Windows(), IdleElidedCycles: m.Engine.IdleElided}
	var occ obs.Hist
	occ.Buckets, occ.Count, occ.Sum = m.Engine.WheelOccupancy()
	if occ.Count > 0 {
		h := obs.ReportHist("wheel_occupancy", &occ)
		rep.WheelOccupancy = &h
	}
	return rep
}

// Run drains the machine, window by window, and returns the final time
// (the last event's cycle).
func (m *Machine) Run() sim.Time { return m.Loop.Run() }

// Now returns the machine clock.
func (m *Machine) Now() sim.Time { return m.Engine.Now() }

// ExecutedEvents reports the fired-event count.
func (m *Machine) ExecutedEvents() uint64 { return m.Engine.Executed }

// Tiles returns the mesh node count.
func (m *Machine) Tiles() int { return m.Net.Nodes() }

// Translate maps a virtual to a physical address. Translation is
// functional and costs no cycles: every workload runs on huge pages, so
// core-side TLB misses are negligible; the SE_L3 TLB's misses are charged
// by the near-stream runtime.
func (m *Machine) Translate(va uint64) uint64 { return m.AS.Translate(va) }

// HomeBank returns the L3 bank of a virtual address.
func (m *Machine) HomeBank(va uint64) int { return m.Hier.HomeBank(m.Translate(va)) }

// Registries lists every counter registry the machine owns: the runtime
// registry (Obs), the NoC's (including its per-class traffic,
// noc.bytehops.<class> and noc.messages.<class>), the cache's and the
// DRAM's.
func (m *Machine) Registries() []*obs.Registry {
	return []*obs.Registry{m.Obs, m.Net.Registry(), m.Hier.Registry(), m.Dram.Registry()}
}

// Counters snapshots every counter of Registries into one map keyed by
// counter name. Zero counters are omitted.
func (m *Machine) Counters() map[string]uint64 {
	out := make(map[string]uint64)
	for _, r := range m.Registries() {
		r.SumInto(out)
	}
	return out
}
