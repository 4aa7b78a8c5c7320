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
	cfg    Config
	engine *sim.Engine
	// nextFree is the earliest cycle each controller's data bus is idle.
	nextFree                      []sim.Time
	reg                           *obs.Registry
	ctrReads, ctrWrites, ctrBytes obs.Counter
	tracer                        *obs.Tracer
	// attrib receives the controllers' queue-wait charges (nil = off).
	attrib *obs.Attribution
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
		engine:   engine,
		nextFree: make([]sim.Time, cfg.Controllers),
		reg:      obs.NewRegistry(),
	}
	m.ctrReads = m.reg.Counter("dram.reads")
	m.ctrWrites = m.reg.Counter("dram.writes")
	m.ctrBytes = m.reg.Counter("dram.bytes")
	return m
}

// Registry returns the memory system's counter registry.
func (m *Memory) Registry() *obs.Registry { return m.reg }

// SetTracer attaches (or detaches, with nil) an event tracer.
func (m *Memory) SetTracer(tr *obs.Tracer) { m.tracer = tr }

// SetAttribution attaches (or detaches, with nil) a cycle-attribution
// sink. Each access charges the cycles it queued behind its controller's
// busy data bus.
func (m *Memory) SetAttribution(a *obs.Attribution) { m.attrib = a }

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
	now := m.engine.Now()
	start := now
	if m.nextFree[ctrl] > start {
		start = m.nextFree[ctrl]
	}
	if a := m.attrib; a != nil {
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
		m.ctrWrites.Inc()
	} else {
		m.ctrReads.Inc()
	}
	m.ctrBytes.Add(uint64(bytes))
	if tr := m.tracer; tr.Enabled() {
		var wr uint64
		if write {
			wr = 1
		}
		tr.Emit(obs.Event{Time: uint64(now), Dur: uint64(done - now),
			Kind: obs.KindDRAM, Tile: int32(ctrl), A: uint64(bytes), B: wr})
	}
	if onDone != nil {
		m.engine.ScheduleAt(done, onDone)
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
