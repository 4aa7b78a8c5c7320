package cache

import (
	"fmt"

	"repro/internal/flatmap"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Level identifies where a request was served, for miss-rate stats and the
// SE_core offload policy (§IV-B: only streams with high private-cache miss
// rates are offloaded).
type Level int

const (
	ServedL1 Level = iota
	ServedL2
	ServedL3
	ServedMem
)

// String names the level.
func (l Level) String() string {
	switch l {
	case ServedL1:
		return "L1"
	case ServedL2:
		return "L2"
	case ServedL3:
		return "L3"
	case ServedMem:
		return "Mem"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Sizes of protocol messages (payload bytes; the NoC adds its header).
const (
	CtrlBytes = 8  // requests, invalidations, acks, upgrades
	LineBytes = 64 // a full cache line of data
)

// Config describes the full hierarchy for one machine.
type Config struct {
	LineBytes int
	L1        ArrayConfig
	L2        ArrayConfig
	L3Bank    ArrayConfig
}

// DefaultConfig returns the Table V hierarchy: 32 KB 8-way L1 (2-cycle),
// 256 KB 16-way L2 (16-cycle), 1 MB 16-way L3 bank (20-cycle, BRRIP).
func DefaultConfig() Config {
	return Config{
		LineBytes: 64,
		L1:        ArrayConfig{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, Policy: LRU, Latency: 2},
		L2:        ArrayConfig{SizeBytes: 256 << 10, Ways: 16, LineBytes: 64, Policy: BRRIP, Latency: 16},
		L3Bank:    ArrayConfig{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64, Policy: BRRIP, Latency: 20},
	}
}

// dirInfo is the full-map directory state attached to each L3 line.
type dirInfo struct {
	sharers uint64 // bitmask of tiles with Shared copies
	owner   int    // tile holding E/M, or -1
}

func newDir() *dirInfo { return &dirInfo{owner: -1} }

// hierCounters interns every hierarchy counter once at construction so the
// protocol hot paths count with a slice increment instead of a map lookup.
type hierCounters struct {
	l1Hits, l1Misses              obs.Counter
	l2Hits, l2Misses              obs.Counter
	l2Upgrades, l2Writebacks      obs.Counter
	l3Hits, l3Misses              obs.Counter
	l3Recalls, l3Writebacks       obs.Counter
	l3Downgrades, l3Invalidations obs.Counter
	prefetchIssued                obs.Counter
	lockAcquires, lockConflicts   obs.Counter
}

// hierLane is one shard's single-writer slice of the hierarchy's
// observability state: its own counter registry (the machine's counter
// snapshot sums all lanes, so totals are shard-count-invariant) and its
// own tracer pointer, so components on different shard engines never
// share a mutable ring.
type hierLane struct {
	reg    *obs.Registry
	ctr    hierCounters
	tracer *obs.Tracer
	// attrib is the lane's cycle-attribution target (nil = off); like the
	// tracer it is single-writer per shard and merged after the run.
	attrib *obs.Attribution
}

func newHierLane() *hierLane {
	l := &hierLane{reg: obs.NewRegistry()}
	l.ctr = hierCounters{
		l1Hits:          l.reg.Counter("l1.hits"),
		l1Misses:        l.reg.Counter("l1.misses"),
		l2Hits:          l.reg.Counter("l2.hits"),
		l2Misses:        l.reg.Counter("l2.misses"),
		l2Upgrades:      l.reg.Counter("l2.upgrades"),
		l2Writebacks:    l.reg.Counter("l2.writebacks"),
		l3Hits:          l.reg.Counter("l3.hits"),
		l3Misses:        l.reg.Counter("l3.misses"),
		l3Recalls:       l.reg.Counter("l3.recalls"),
		l3Writebacks:    l.reg.Counter("l3.writebacks"),
		l3Downgrades:    l.reg.Counter("l3.downgrades"),
		l3Invalidations: l.reg.Counter("l3.invalidations"),
		prefetchIssued:  l.reg.Counter("prefetch.issued"),
		lockAcquires:    l.reg.Counter("lock.acquires"),
		lockConflicts:   l.reg.Counter("lock.conflicts"),
	}
	return l
}

// Hierarchy ties together all tiles' private caches, the L3 banks, the NoC
// and DRAM.
type Hierarchy struct {
	cfg    Config
	engine *sim.Engine
	net    *noc.Network
	dram   *mem.Memory
	// ctrlNodes maps controller index to mesh node.
	ctrlNodes []int
	tiles     []*Tile
	banks     []*Bank
	// lanes holds per-shard counters and tracers; serial hierarchies have
	// one lane shared by every component.
	lanes []*hierLane
	// PrefetchHook, when non-nil, observes every demand L1 access
	// (tile, addr, pc, hit) — the Bingo/stride prefetchers attach here.
	PrefetchHook func(tile int, addr uint64, pc uint64, hit bool)
}

// New builds the hierarchy for every node of the mesh.
func New(engine *sim.Engine, net *noc.Network, dram *mem.Memory, cfg Config) *Hierarchy {
	n := net.Nodes()
	h := &Hierarchy{
		cfg:       cfg,
		engine:    engine,
		net:       net,
		dram:      dram,
		ctrlNodes: mem.CornerNodes(net.Config().Width, net.Config().Height, dram.Config().Controllers),
		lanes:     []*hierLane{newHierLane()},
	}
	for i := 0; i < n; i++ {
		h.tiles = append(h.tiles, &Tile{
			id: i, h: h, engine: engine, lane: h.lanes[0],
			l1: NewArray(cfg.L1, uint64(i)*2+1),
			l2: NewArray(cfg.L2, uint64(i)*2+2),
		})
		b := &Bank{
			id: i, h: h, engine: engine, lane: h.lanes[0],
			array: NewArray(cfg.L3Bank, uint64(i)*2+3),
		}
		// Size the per-line tables from the geometry: concurrent
		// transactions at one bank are bounded by the tiles' outstanding
		// misses, a small multiple of the tile count.
		b.txns = *flatmap.New[[]txnWork](4 * n)
		b.locks = *flatmap.New[int32](n)
		h.banks = append(h.banks, b)
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// AttachShards repartitions the hierarchy over a shard group: the tile and
// L3 bank at mesh node i schedule on (and count against) the engine and
// lane of shard shardOf[i]. Call it on a freshly built hierarchy, before
// any traffic — counters already accumulated stay on the old lane and
// vanish from Registries.
func (h *Hierarchy) AttachShards(g *sim.ShardGroup, shardOf []int32) {
	if len(shardOf) != len(h.tiles) {
		panic(fmt.Sprintf("cache: shard map covers %d nodes, hierarchy has %d", len(shardOf), len(h.tiles)))
	}
	h.lanes = make([]*hierLane, g.Shards())
	for i := range h.lanes {
		h.lanes[i] = newHierLane()
	}
	h.engine = g.Engine(0)
	for i, t := range h.tiles {
		t.engine = g.Engine(int(shardOf[i]))
		t.lane = h.lanes[shardOf[i]]
		h.banks[i].engine = t.engine
		h.banks[i].lane = t.lane
	}
}

// Registries returns the per-shard-lane counter registries. Each lane is
// written only by its shard, so read them after a run; summing them gives
// totals independent of the shard count.
func (h *Hierarchy) Registries() []*obs.Registry {
	regs := make([]*obs.Registry, len(h.lanes))
	for i, l := range h.lanes {
		regs[i] = l.reg
	}
	return regs
}

// SetTracer attaches (or detaches, with nil) an event tracer to every
// lane. With more than one shard lane this shares one ring across shard
// goroutines — racy; parallel machines must give each lane its own tracer
// via SetLaneTracer and merge afterwards.
func (h *Hierarchy) SetTracer(tr *obs.Tracer) {
	for _, l := range h.lanes {
		l.tracer = tr
	}
}

// Lanes reports the number of shard lanes (1 unless AttachShards ran).
func (h *Hierarchy) Lanes() int { return len(h.lanes) }

// SetLaneTracer attaches a tracer to one shard lane.
func (h *Hierarchy) SetLaneTracer(i int, tr *obs.Tracer) { h.lanes[i].tracer = tr }

// SetLaneAttrib attaches a cycle-attribution lane to one shard lane (nil
// detaches). Parallel machines give each shard its own and merge after
// the run; every charge site fires at a deterministic protocol event, so
// the merged totals are shard-count-invariant.
func (h *Hierarchy) SetLaneAttrib(i int, a *obs.Attribution) { h.lanes[i].attrib = a }

// Tiles returns the number of tiles.
func (h *Hierarchy) Tiles() int { return len(h.tiles) }

// Tile returns tile i's private caches.
func (h *Hierarchy) Tile(i int) *Tile { return h.tiles[i] }

// Bank returns L3 bank i.
func (h *Hierarchy) Bank(i int) *Bank { return h.banks[i] }

// LineAddr clears the offset bits of addr.
func (h *Hierarchy) LineAddr(addr uint64) uint64 {
	return addr / uint64(h.cfg.LineBytes) * uint64(h.cfg.LineBytes)
}

// HomeBank returns the static-NUCA home bank of addr (64 B interleave).
func (h *Hierarchy) HomeBank(addr uint64) int {
	return int(addr / uint64(h.cfg.LineBytes) % uint64(len(h.banks)))
}

func (h *Hierarchy) ctrlNodeFor(addr uint64) int {
	return h.ctrlNodes[h.dram.ControllerFor(addr)]
}

// Tile is the private L1+L2 of one core, plus its MSHR merge table.
// engine and lane are the shard bindings: every event the tile schedules
// and every counter it bumps stays on its own shard.
type Tile struct {
	id     int
	h      *Hierarchy
	engine *sim.Engine
	lane   *hierLane
	l1, l2 *Array
	// inflight merges concurrent misses to the same line: a present entry
	// is an outstanding request, holding the completions waiting on it.
	// Open-addressed: MSHR occupancy is bounded and churn-heavy, so the
	// table stays warm and allocation-free.
	inflight flatmap.Map[[]func(Level)]
}

// ID returns the tile's mesh node id.
func (t *Tile) ID() int { return t.id }

// L1 and L2 expose the arrays for tests and the prefetchers.
func (t *Tile) L1() *Array { return t.l1 }

// L2 returns the private L2 array.
func (t *Tile) L2() *Array { return t.l2 }

// Access performs a demand load or store from this tile's core. onDone
// (may be nil) fires when the access commits, with the level that served
// it. pc tags the access for the prefetchers.
func (t *Tile) Access(addr uint64, write bool, pc uint64, onDone func(Level)) {
	h := t.h
	line := h.LineAddr(addr)
	hitL1 := false
	if l := t.l1.Lookup(line); l != nil {
		hitL1 = !write || l.State == Exclusive || l.State == Modified
	}
	if h.PrefetchHook != nil {
		h.PrefetchHook(t.id, addr, pc, hitL1)
	}
	t.engine.Schedule(h.cfg.L1.Latency, func() {
		t.afterL1(line, write, onDone)
	})
}

func (t *Tile) afterL1(line uint64, write bool, onDone func(Level)) {
	h := t.h
	if l := t.l1.Lookup(line); l != nil {
		if !write {
			t.lane.ctr.l1Hits.Inc()
			finish(onDone, ServedL1)
			return
		}
		switch l.State {
		case Modified:
			t.lane.ctr.l1Hits.Inc()
			l.Dirty = true
			finish(onDone, ServedL1)
			return
		case Exclusive:
			t.lane.ctr.l1Hits.Inc()
			l.State = Modified
			l.Dirty = true
			if l2 := t.l2.Peek(line); l2 != nil {
				l2.State = Modified
			}
			finish(onDone, ServedL1)
			return
		case Shared:
			// Needs an upgrade; fall through to the miss path, which
			// issues GetM/Upg.
		}
	}
	t.lane.ctr.l1Misses.Inc()
	t.engine.Schedule(h.cfg.L2.Latency, func() {
		t.afterL2(line, write, onDone)
	})
}

func (t *Tile) afterL2(line uint64, write bool, onDone func(Level)) {
	if l := t.l2.Lookup(line); l != nil {
		if !write {
			t.lane.ctr.l2Hits.Inc()
			t.fillL1(line, l.State)
			finish(onDone, ServedL2)
			return
		}
		if l.State == Exclusive || l.State == Modified {
			t.lane.ctr.l2Hits.Inc()
			l.State = Modified
			l.Dirty = true
			t.fillL1(line, Modified)
			if l1 := t.l1.Peek(line); l1 != nil {
				l1.Dirty = true
			}
			finish(onDone, ServedL2)
			return
		}
		// Shared: upgrade required. Control-only round trip.
		t.lane.ctr.l2Upgrades.Inc()
		t.requestLine(line, reqUpgrade, onDone)
		return
	}
	t.lane.ctr.l2Misses.Inc()
	if write {
		t.requestLine(line, reqGetM, onDone)
	} else {
		t.requestLine(line, reqGetS, onDone)
	}
}

// fillL1 installs line into L1, folding dirty victims back into L2
// (inclusive hierarchy: the L2 always has the victim).
func (t *Tile) fillL1(line uint64, state LineState) {
	_, victim := t.l1.Insert(line, state)
	if victim.Valid() && victim.Dirty {
		vaddr := victim.Tag * uint64(t.h.cfg.LineBytes)
		if l2 := t.l2.Peek(vaddr); l2 != nil {
			l2.Dirty = true
			l2.State = Modified
		}
	}
}

// fillL2 installs line into L2 (and then L1), writing back dirty victims to
// their home banks and keeping L1 inclusive.
func (t *Tile) fillL2(line uint64, state LineState) {
	_, victim := t.l2.Insert(line, state)
	if victim.Valid() {
		vaddr := victim.Tag * uint64(t.h.cfg.LineBytes)
		// Inclusive: drop the L1 copy, folding its dirtiness in.
		if l1 := t.l1.Invalidate(vaddr); l1.Valid() && l1.Dirty {
			victim.Dirty = true
		}
		if victim.Dirty {
			t.lane.ctr.l2Writebacks.Inc()
			t.h.sendWriteback(t.id, vaddr)
		}
	}
	t.fillL1(line, state)
}

type reqKind int

const (
	reqGetS reqKind = iota
	reqGetM
	reqUpgrade
)

// requestLine sends a coherence request to the home bank and completes the
// access when the response returns, merging concurrent same-line misses.
func (t *Tile) requestLine(line uint64, kind reqKind, onDone func(Level)) {
	h := t.h
	// Merge only same-line GetS with GetS; writes restart the protocol (a
	// merged read completion does not grant write permission). To stay
	// simple and conservative, merge everything and re-check permission.
	if q, ok := t.inflight.Get(line); ok {
		t.lane.attrib.Charge(obs.StallMSHRMerge, 0)
		t.inflight.Put(line, append(q, func(lv Level) {
			// Re-run the access: permissions may still be insufficient
			// (e.g. read brought S, this needs M).
			t.afterL1(line, kind != reqGetS, onDone)
		}))
		return
	}
	t.inflight.Put(line, nil)
	if tr := t.lane.tracer; tr.Enabled() {
		tr.Emit(obs.Event{Time: uint64(t.engine.Now()), Kind: obs.KindMSHR,
			Tile: int32(t.id), A: uint64(t.inflight.Len()), B: line})
	}
	bank := h.banks[h.HomeBank(line)]
	h.net.Send(&noc.Message{
		Src: t.id, Dst: bank.id, Bytes: CtrlBytes, Class: noc.TrafficControl,
		OnDeliver: func() {
			bank.handleCoherence(line, kind, t.id, func(grant LineState, fromMem bool) {
				respBytes := LineBytes
				if kind == reqUpgrade {
					respBytes = CtrlBytes
				}
				class := noc.TrafficData
				if kind == reqUpgrade {
					class = noc.TrafficControl
				}
				h.net.Send(&noc.Message{
					Src: bank.id, Dst: t.id, Bytes: respBytes, Class: class,
					OnDeliver: func() {
						t.completeFill(line, kind, grant, fromMem, onDone)
					},
				})
			})
		},
	})
}

func (t *Tile) completeFill(line uint64, kind reqKind, grant LineState, fromMem bool, onDone func(Level)) {
	if kind == reqUpgrade {
		if l2 := t.l2.Peek(line); l2 != nil {
			l2.State = Modified
			l2.Dirty = true
		}
		if l1 := t.l1.Peek(line); l1 != nil {
			l1.State = Modified
			l1.Dirty = true
		} else {
			t.fillL1(line, Modified)
		}
	} else {
		st := grant
		if kind == reqGetM {
			st = Modified
		}
		t.fillL2(line, st)
		if kind == reqGetM {
			if l1 := t.l1.Peek(line); l1 != nil {
				l1.Dirty = true
			}
			if l2 := t.l2.Peek(line); l2 != nil {
				l2.Dirty = true
			}
		}
	}
	lv := ServedL3
	if fromMem {
		lv = ServedMem
	}
	finish(onDone, lv)
	waiters, _ := t.inflight.Get(line)
	t.inflight.Delete(line)
	if tr := t.lane.tracer; tr.Enabled() {
		tr.Emit(obs.Event{Time: uint64(t.engine.Now()), Kind: obs.KindMSHR,
			Tile: int32(t.id), A: uint64(t.inflight.Len()), B: line})
	}
	for _, w := range waiters {
		w(lv)
	}
}

// Prefetch pulls a line into the private caches without blocking the core.
// It is a no-op when the line is already present or being fetched. The
// Bingo and stride prefetchers drive this path for the Base system.
func (t *Tile) Prefetch(addr uint64) {
	line := t.h.LineAddr(addr)
	if t.l1.Peek(line) != nil || t.l2.Peek(line) != nil {
		return
	}
	if t.inflight.Contains(line) {
		return
	}
	t.lane.ctr.prefetchIssued.Inc()
	t.requestLine(line, reqGetS, nil)
}

// InvalidateLine removes a line from both private levels, reporting whether
// a dirty copy was destroyed (the ack must then carry data).
func (t *Tile) InvalidateLine(line uint64) (wasDirty bool) {
	l1 := t.l1.Invalidate(line)
	l2 := t.l2.Invalidate(line)
	return (l1.Valid() && l1.Dirty) || (l2.Valid() && l2.Dirty)
}

// downgradeLine moves a private E/M line to S, reporting whether it was
// dirty (data must be written back to the bank).
func (t *Tile) downgradeLine(line uint64) (wasDirty bool) {
	if l := t.l2.Peek(line); l != nil {
		wasDirty = wasDirty || l.Dirty
		l.State = Shared
		l.Dirty = false
	}
	if l := t.l1.Peek(line); l != nil {
		wasDirty = wasDirty || l.Dirty
		l.State = Shared
		l.Dirty = false
	}
	return wasDirty
}

// HasLine reports whether this tile caches line (tests).
func (t *Tile) HasLine(line uint64) bool {
	return t.l1.Peek(line) != nil || t.l2.Peek(line) != nil
}

// sendWriteback carries a dirty evicted line to its home bank.
func (h *Hierarchy) sendWriteback(from int, line uint64) {
	bank := h.banks[h.HomeBank(line)]
	h.net.Send(&noc.Message{
		Src: from, Dst: bank.id, Bytes: LineBytes, Class: noc.TrafficData,
		OnDeliver: func() { bank.handleWriteback(line, from) },
	})
}

func finish(onDone func(Level), lv Level) {
	if onDone != nil {
		onDone(lv)
	}
}
