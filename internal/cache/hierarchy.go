package cache

import (
	"fmt"

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
// LineBytes is also the line size of every cache array and the L3's
// bank-interleave granularity.
const (
	CtrlBytes = 8  // requests, invalidations, acks, upgrades
	LineBytes = 64 // a full cache line of data
)

// Config describes the full hierarchy for one machine.
type Config struct {
	L1     ArrayConfig
	L2     ArrayConfig
	L3Bank ArrayConfig
}

// DefaultConfig returns the Table V hierarchy: 32 KB 8-way L1 (2-cycle),
// 256 KB 16-way L2 (16-cycle), 1 MB 16-way L3 bank (20-cycle, BRRIP).
func DefaultConfig() Config {
	return Config{
		L1:     ArrayConfig{SizeBytes: 32 << 10, Ways: 8, Policy: LRU, Latency: 2},
		L2:     ArrayConfig{SizeBytes: 256 << 10, Ways: 16, Policy: BRRIP, Latency: 16},
		L3Bank: ArrayConfig{SizeBytes: 1 << 20, Ways: 16, Policy: BRRIP, Latency: 20},
	}
}

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

// hierObs is the hierarchy's observability state, shared by every tile
// and bank: its counter registry, its tracer and its cycle-attribution
// target (either nil = off).
type hierObs struct {
	reg    *obs.Registry
	ctr    hierCounters
	tracer *obs.Tracer
	attrib *obs.Attribution
}

func newHierObs() *hierObs {
	l := &hierObs{reg: obs.NewRegistry()}
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
	ob        *hierObs
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
		ob:        newHierObs(),
	}
	for i := 0; i < n; i++ {
		h.tiles = append(h.tiles, &Tile{
			id: i, h: h, engine: engine, ob: h.ob,
			l1:       NewArray(cfg.L1, uint64(i)*2+1),
			l2:       NewArray(cfg.L2, uint64(i)*2+2),
			inflight: make(map[uint64]mshr),
			accFree:  -1,
		})
		b := &Bank{
			id: i, h: h, engine: engine, ob: h.ob,
			array: NewArray(cfg.L3Bank, uint64(i)*2+3),
		}
		// Size the per-line tables from the geometry: concurrent
		// transactions at one bank are bounded by the tiles' outstanding
		// misses, a small multiple of the tile count.
		b.txns = make(map[uint64][]txnWork, 4*n)
		b.locks = make(map[uint64]int32, n)
		h.banks = append(h.banks, b)
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Registry returns the hierarchy's counter registry.
func (h *Hierarchy) Registry() *obs.Registry { return h.ob.reg }

// SetTracer attaches (or detaches, with nil) an event tracer.
func (h *Hierarchy) SetTracer(tr *obs.Tracer) { h.ob.tracer = tr }

// SetAttribution attaches (or detaches, with nil) a cycle-attribution
// sink.
func (h *Hierarchy) SetAttribution(a *obs.Attribution) { h.ob.attrib = a }

// Tiles returns the number of tiles.
func (h *Hierarchy) Tiles() int { return len(h.tiles) }

// Tile returns tile i's private caches.
func (h *Hierarchy) Tile(i int) *Tile { return h.tiles[i] }

// Bank returns L3 bank i.
func (h *Hierarchy) Bank(i int) *Bank { return h.banks[i] }

// LineAddr clears the offset bits of addr.
func (h *Hierarchy) LineAddr(addr uint64) uint64 {
	return addr / LineBytes * LineBytes
}

// HomeBank returns the static-NUCA home bank of addr (64 B interleave).
func (h *Hierarchy) HomeBank(addr uint64) int {
	return int(addr / LineBytes % uint64(len(h.banks)))
}

func (h *Hierarchy) ctrlNodeFor(addr uint64) int {
	return h.ctrlNodes[h.dram.ControllerFor(addr)]
}

// Tile is the private L1+L2 of one core, plus its MSHR merge table.
// engine and ob repeat the hierarchy's, one load closer to the hot path.
type Tile struct {
	id     int
	h      *Hierarchy
	engine *sim.Engine
	ob     *hierObs
	l1, l2 *Array
	// inflight merges concurrent misses to the same line: a present entry
	// is an outstanding request, holding the chain of demand accesses
	// waiting on it. MSHR occupancy is bounded, so once warm the map
	// allocates nothing.
	inflight map[uint64]mshr
	// accs pools the tile's demand-access contexts, indexed by int32;
	// accFree heads the free chain (-1 when empty, see getAccess).
	accs    []*tileAccess
	accFree int32
}

// mshr is an outstanding line request's FIFO chain of merged accesses,
// linked through tileAccess.next by index (-1 = none).
type mshr struct{ head, tail int32 }

// tileAccess is the pooled context of one access from issue to
// completion: through the L1 and L2 lookups, the coherence request of a
// miss (its request, grant and response legs), and any MSHR merge wait.
// Prefetches use one too, with a nil onDone. Its callbacks are bound once
// at creation, and it recycles before onDone runs, so a warm access
// allocates nothing on the tile side.
type tileAccess struct {
	t      *Tile
	idx    int32
	next   int32 // MSHR chain or free chain link
	line   uint64
	write  bool
	onDone func(Level)
	// The outstanding coherence request this access leads, if any.
	kind    reqKind
	grant   LineState
	fromMem bool

	l1Ev      sim.Event             // a.afterL1
	l2Ev      sim.Event             // a.afterL2
	reqEv     func()                // a.atBank: the request reaches the home bank
	respondCB func(LineState, bool) // a.respond: the bank grants the line
	fillEv    func()                // a.fill: the response reaches the tile
}

// getAccess takes an access context from the tile's pool (or grows it).
func (t *Tile) getAccess(line uint64, write bool, onDone func(Level)) *tileAccess {
	var a *tileAccess
	if i := t.accFree; i >= 0 {
		a = t.accs[i]
		t.accFree = a.next
	} else {
		a = &tileAccess{t: t, idx: int32(len(t.accs))}
		a.l1Ev = a.afterL1
		a.l2Ev = a.afterL2
		a.reqEv = a.atBank
		a.respondCB = a.respond
		a.fillEv = a.fill
		t.accs = append(t.accs, a)
	}
	a.next = -1
	a.line, a.write, a.onDone = line, write, onDone
	return a
}

// finish recycles a, then reports the serving level to its requester.
func (a *tileAccess) finish(lv Level) {
	t, onDone := a.t, a.onDone
	a.onDone = nil
	a.next = t.accFree
	t.accFree = a.idx
	if onDone != nil {
		onDone(lv)
	}
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
	t.engine.Schedule(h.cfg.L1.Latency, t.getAccess(line, write, onDone).l1Ev)
}

func (a *tileAccess) afterL1() {
	t, line, write := a.t, a.line, a.write
	if l := t.l1.Lookup(line); l != nil {
		if !write {
			t.ob.ctr.l1Hits.Inc()
			a.finish(ServedL1)
			return
		}
		switch l.State {
		case Modified:
			t.ob.ctr.l1Hits.Inc()
			l.Dirty = true
			a.finish(ServedL1)
			return
		case Exclusive:
			t.ob.ctr.l1Hits.Inc()
			l.State = Modified
			l.Dirty = true
			if l2 := t.l2.Peek(line); l2 != nil {
				l2.State = Modified
			}
			a.finish(ServedL1)
			return
		case Shared:
			// Needs an upgrade; fall through to the miss path, which
			// issues GetM/Upg.
		}
	}
	t.ob.ctr.l1Misses.Inc()
	t.engine.Schedule(t.h.cfg.L2.Latency, a.l2Ev)
}

func (a *tileAccess) afterL2() {
	t, line, write := a.t, a.line, a.write
	if l := t.l2.Lookup(line); l != nil {
		if !write {
			t.ob.ctr.l2Hits.Inc()
			t.fillL1(line, l.State)
			a.finish(ServedL2)
			return
		}
		if l.State == Exclusive || l.State == Modified {
			t.ob.ctr.l2Hits.Inc()
			l.State = Modified
			l.Dirty = true
			t.fillL1(line, Modified)
			if l1 := t.l1.Peek(line); l1 != nil {
				l1.Dirty = true
			}
			a.finish(ServedL2)
			return
		}
		// Shared: upgrade required. Control-only round trip.
		t.ob.ctr.l2Upgrades.Inc()
		t.requestLine(reqUpgrade, a)
		return
	}
	t.ob.ctr.l2Misses.Inc()
	if write {
		t.requestLine(reqGetM, a)
	} else {
		t.requestLine(reqGetS, a)
	}
}

// fillL1 installs line into L1, folding dirty victims back into L2
// (inclusive hierarchy: the L2 always has the victim).
func (t *Tile) fillL1(line uint64, state LineState) {
	_, victim := t.l1.Insert(line, state)
	if victim.Valid() && victim.Dirty {
		vaddr := victim.Tag * LineBytes
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
		vaddr := victim.Tag * LineBytes
		// Inclusive: drop the L1 copy, folding its dirtiness in.
		if l1 := t.l1.Invalidate(vaddr); l1.Valid() && l1.Dirty {
			victim.Dirty = true
		}
		if victim.Dirty {
			t.ob.ctr.l2Writebacks.Inc()
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
	// reqStreamRead and reqStreamWrite are a bank's own SE_L3 accessing
	// its slice (Bank.StreamRead/StreamWrite).
	reqStreamRead
	reqStreamWrite
)

// requestLine sends a coherence request for a's line to the home bank and
// completes a when the response returns, merging concurrent same-line
// misses.
func (t *Tile) requestLine(kind reqKind, a *tileAccess) {
	line := a.line
	// Merge only same-line GetS with GetS; writes restart the protocol (a
	// merged read completion does not grant write permission). To stay
	// simple and conservative, merge everything and re-check permission:
	// a merged access re-runs from its L1 lookup when the line arrives.
	if q, ok := t.inflight[line]; ok {
		t.ob.attrib.Charge(obs.StallMSHRMerge, 0)
		if q.head < 0 {
			q.head = a.idx
		} else {
			t.accs[q.tail].next = a.idx
		}
		q.tail = a.idx
		t.inflight[line] = q
		return
	}
	t.inflight[line] = mshr{head: -1, tail: -1}
	if tr := t.ob.tracer; tr.Enabled() {
		tr.Emit(obs.Event{Time: uint64(t.engine.Now()), Kind: obs.KindMSHR,
			Tile: int32(t.id), A: uint64(len(t.inflight)), B: line})
	}
	a.kind = kind
	h := t.h
	h.net.Send(&noc.Message{
		Src: t.id, Dst: h.HomeBank(line), Bytes: CtrlBytes, Class: noc.TrafficControl,
		OnDeliver: a.reqEv,
	})
}

func (a *tileAccess) atBank() {
	a.t.h.banks[a.t.h.HomeBank(a.line)].handleCoherence(a.line, a.kind, a.t.id, a.respondCB)
}

func (a *tileAccess) respond(grant LineState, fromMem bool) {
	a.grant, a.fromMem = grant, fromMem
	respBytes, class := LineBytes, noc.TrafficData
	if a.kind == reqUpgrade {
		respBytes, class = CtrlBytes, noc.TrafficControl
	}
	a.t.h.net.Send(&noc.Message{
		Src: a.t.h.HomeBank(a.line), Dst: a.t.id, Bytes: respBytes, Class: class,
		OnDeliver: a.fillEv,
	})
}

func (a *tileAccess) fill() { a.t.completeFill(a) }

func (t *Tile) completeFill(a *tileAccess) {
	line, kind, grant, fromMem := a.line, a.kind, a.grant, a.fromMem
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
	a.finish(lv)
	q := t.inflight[line]
	delete(t.inflight, line)
	if tr := t.ob.tracer; tr.Enabled() {
		tr.Emit(obs.Event{Time: uint64(t.engine.Now()), Kind: obs.KindMSHR,
			Tile: int32(t.id), A: uint64(len(t.inflight)), B: line})
	}
	// Re-run each merged access: permissions may still be insufficient
	// (e.g. a read brought S, this one needs M). A re-run may merge into a
	// new request for the line, relinking the access, so step first.
	for i := q.head; i >= 0; {
		w := t.accs[i]
		i = w.next
		w.next = -1
		w.afterL1()
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
	if _, ok := t.inflight[line]; ok {
		return
	}
	t.ob.ctr.prefetchIssued.Inc()
	t.requestLine(reqGetS, t.getAccess(line, false, nil))
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
