// Package mem models main memory: four corner DDR4-3200 controllers, each
// with a fixed access latency and a 25.6 GB/s bandwidth queue (12.8 bytes
// per 2 GHz core cycle), per Table V. The model is intentionally simple —
// the evaluation workloads are sized to live in the LLC, which is the whole
// point of near-cache computing — but it bounds streaming bandwidth and adds
// realistic latency to cold misses.
package mem

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Config describes the memory system.
type Config struct {
	// Controllers is the number of memory controllers (4 corners).
	Controllers int
	// AccessLatency is the fixed DRAM access latency in core cycles.
	AccessLatency sim.Time
	// BytesPerCycleX10 is the per-controller bandwidth in tenths of a
	// byte per cycle (128 = 12.8 B/cycle = 25.6 GB/s at 2 GHz).
	BytesPerCycleX10 int
	// InterleaveBytes is the address-interleave granularity across
	// controllers (one cache line).
	InterleaveBytes uint64
}

// DefaultConfig returns the Table V memory system.
func DefaultConfig() Config {
	return Config{
		Controllers:      4,
		AccessLatency:    100, // ~50 ns at 2 GHz
		BytesPerCycleX10: 128,
		InterleaveBytes:  64,
	}
}

// Memory is the set of DRAM controllers.
//
// The model is eventless while idle, which the engine's idle-cycle
// skipping depends on: bus occupancy is pure state (nextFree per
// controller), a burst schedules at most one completion event (none for
// fire-and-forget writebacks), and there are no refresh or polling
// ticks. A machine whose cores and streams are parked therefore has an
// empty event horizon and the clock jumps straight to the next arrival.
type Memory struct {
	cfg Config
	// engines[i] is the engine controller i schedules on — all the same
	// serial engine until AttachShards rebinds them, one per owning shard.
	engines []*sim.Engine
	// nextFree is the earliest cycle each controller's data bus is idle.
	nextFree []sim.Time
	// lanes holds each controller's interned counters and tracer. Lanes are
	// per controller (not per shard) so a controller only ever writes its
	// own lane regardless of the partition; the machine snapshot sums them.
	lanes []*memLane
}

// memLane is one controller's single-writer observability state.
type memLane struct {
	reg                           *obs.Registry
	ctrReads, ctrWrites, ctrBytes obs.Counter
	tracer                        *obs.Tracer
	// attrib receives the controller's queue-wait charges (nil = off);
	// single-writer per controller like the tracer.
	attrib *obs.Attribution
}

func newMemLane() *memLane {
	l := &memLane{reg: obs.NewRegistry()}
	l.ctrReads = l.reg.Counter("dram.reads")
	l.ctrWrites = l.reg.Counter("dram.writes")
	l.ctrBytes = l.reg.Counter("dram.bytes")
	return l
}

// New builds the memory system.
func New(engine *sim.Engine, cfg Config) *Memory {
	if cfg.Controllers <= 0 {
		panic("mem: need at least one controller")
	}
	if cfg.BytesPerCycleX10 <= 0 {
		panic("mem: bandwidth must be positive")
	}
	if cfg.InterleaveBytes == 0 {
		panic("mem: interleave must be positive")
	}
	m := &Memory{
		cfg:      cfg,
		engines:  make([]*sim.Engine, cfg.Controllers),
		nextFree: make([]sim.Time, cfg.Controllers),
		lanes:    make([]*memLane, cfg.Controllers),
	}
	for i := range m.lanes {
		m.engines[i] = engine
		m.lanes[i] = newMemLane()
	}
	return m
}

// AttachShards rebinds each controller to the engine of the shard that owns
// its mesh node: engines[i] is controller i's engine. Counters and bus
// state are already per controller, so nothing else moves.
func (m *Memory) AttachShards(engines []*sim.Engine) {
	if len(engines) != m.cfg.Controllers {
		panic(fmt.Sprintf("mem: %d engines for %d controllers", len(engines), m.cfg.Controllers))
	}
	copy(m.engines, engines)
}

// Reset returns the memory system to its just-built state: idle buses,
// zero counters, no tracers. Engine bindings survive (they are part of
// the machine's shard layout, not of a run).
func (m *Memory) Reset() {
	clear(m.nextFree)
	for _, l := range m.lanes {
		l.reg.Reset()
		l.tracer = nil
		l.attrib = nil
	}
}

// Registries returns the per-controller counter registries; summing them
// gives the memory system's totals.
func (m *Memory) Registries() []*obs.Registry {
	regs := make([]*obs.Registry, len(m.lanes))
	for i, l := range m.lanes {
		regs[i] = l.reg
	}
	return regs
}

// SetTracer attaches (or detaches, with nil) an event tracer to every
// controller. Under a multi-shard partition controllers on different
// shards would share the ring — racy; use SetControllerTracer per shard.
func (m *Memory) SetTracer(tr *obs.Tracer) {
	for _, l := range m.lanes {
		l.tracer = tr
	}
}

// SetControllerTracer attaches a tracer to one controller's lane.
func (m *Memory) SetControllerTracer(ctrl int, tr *obs.Tracer) { m.lanes[ctrl].tracer = tr }

// SetControllerAttrib attaches a cycle-attribution lane to one
// controller (nil detaches). Each access charges the cycles it queued
// behind the controller's busy data bus; the waits depend only on the
// access sequence, which is shard-count-invariant.
func (m *Memory) SetControllerAttrib(ctrl int, a *obs.Attribution) { m.lanes[ctrl].attrib = a }

// Config returns the memory configuration.
func (m *Memory) Config() Config { return m.cfg }

// ControllerFor maps a physical address to its controller index.
func (m *Memory) ControllerFor(addr uint64) int {
	return int((addr / m.cfg.InterleaveBytes) % uint64(m.cfg.Controllers))
}

// Access issues a DRAM read or write of bytes at addr. onDone (may be nil)
// runs when the data is available. It returns the completion time.
func (m *Memory) Access(addr uint64, bytes int, write bool, onDone func()) sim.Time {
	if bytes <= 0 {
		panic(fmt.Sprintf("mem: access of %d bytes", bytes))
	}
	ctrl := m.ControllerFor(addr)
	e, lane := m.engines[ctrl], m.lanes[ctrl]
	now := e.Now()
	start := now
	if m.nextFree[ctrl] > start {
		start = m.nextFree[ctrl]
	}
	if a := lane.attrib; a != nil {
		wait := uint64(start - now)
		if wait > 0 {
			a.Charge(obs.StallDRAMQueue, wait)
		}
		a.Observe(obs.HistDRAMQueueWait, wait)
	}
	// Bus occupancy: ceil(bytes / (BytesPerCycleX10/10)).
	occupancy := sim.Time((bytes*10 + m.cfg.BytesPerCycleX10 - 1) / m.cfg.BytesPerCycleX10)
	if occupancy < 1 {
		occupancy = 1
	}
	m.nextFree[ctrl] = start + occupancy
	done := start + occupancy + m.cfg.AccessLatency
	if write {
		lane.ctrWrites.Inc()
	} else {
		lane.ctrReads.Inc()
	}
	lane.ctrBytes.Add(uint64(bytes))
	if tr := lane.tracer; tr.Enabled() {
		var wr uint64
		if write {
			wr = 1
		}
		tr.Emit(obs.Event{Time: uint64(now), Dur: uint64(done - now),
			Kind: obs.KindDRAM, Tile: int32(ctrl), A: uint64(bytes), B: wr})
	}
	if onDone != nil {
		e.ScheduleAt(done, onDone)
	}
	return done
}

// CornerNodes returns the mesh node ids of the four controller attachment
// points for a W×H mesh, in controller-index order. With fewer than four
// controllers the first Controllers corners are used.
func CornerNodes(width, height, controllers int) []int {
	corners := []int{
		0,                    // top-left
		width - 1,            // top-right
		(height - 1) * width, // bottom-left
		height*width - 1,     // bottom-right
	}
	if controllers > len(corners) {
		panic("mem: more controllers than mesh corners")
	}
	return corners[:controllers]
}
