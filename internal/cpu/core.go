package cpu

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// MemRef describes the memory side of a Load/Store/Atomic micro-op.
type MemRef struct {
	Addr  uint64
	Write bool
	PC    uint64
}

// MicroOp is one dynamic micro-operation. Deps name earlier ops by their
// sequence number (the value Core assigns in fetch order, starting at 0);
// dependences on ops older than the window are treated as ready.
type MicroOp struct {
	Class OpClass
	Deps  []uint64
	Mem   *MemRef
	// ExtraLatency is added to the class latency (e.g. an SE FIFO access).
	ExtraLatency sim.Time
	// OnRetire, if set, runs when the op retires (in order), with the
	// retirement time. The stream runtime uses this for s_step/commit.
	OnRetire func(at sim.Time)
	// OnIssue, if set, runs when the op's issue time is decided. For
	// memory ops the hierarchy access starts at this time.
	OnIssue func(at sim.Time)
}

// FetchResult is the source's answer to a fetch request.
type FetchResult int

const (
	// FetchOp delivered an op.
	FetchOp FetchResult = iota
	// FetchStall means no op is available yet; the source must call
	// Core.Wake when that changes.
	FetchStall
	// FetchDone means the instruction stream ended.
	FetchDone
)

// OpSource supplies the dynamic micro-op stream.
type OpSource interface {
	Next() (*MicroOp, FetchResult)
}

// OpRecycler is optionally implemented by an OpSource: the core hands each
// op back once it has finished reading it (at issue), so the source can
// pool op objects instead of allocating one per dynamic instruction. A
// recycled op may be returned again from a later Next.
type OpRecycler interface {
	Recycle(*MicroOp)
}

// SetMem fills the op's MemRef, reusing an existing allocation (pooled ops
// keep theirs across reuse).
func (op *MicroOp) SetMem(ref MemRef) {
	if op.Mem == nil {
		op.Mem = new(MemRef)
	}
	*op.Mem = ref
}

// MemFunc issues a memory access for op seq at time at; done must be called
// exactly once when the access completes, and never from inside the
// MemFunc call itself. The core binds one done per LSQ slot, so the same
// func value recurs across accesses.
type MemFunc func(seq uint64, ref MemRef, at sim.Time, done func())

// robEntry tracks one in-flight op.
type robEntry struct {
	seq      uint64
	complete sim.Time
	resolved bool
	onRetire func(at sim.Time)

	// Issue-queue wakeup state. consumers lists the parked ops (by seq)
	// waiting on this entry; resolve drains it, and it keeps its capacity
	// across slot reuse. op (nil unless parked), pending (its unresolved
	// dependences, with multiplicity) and the LSQ slots (-1 when none)
	// describe this entry's own op while it waits in the issue queue.
	consumers []uint64
	op        *MicroOp
	pending   int
	loadSlot  int
	storeSlot int
}

// memSlot is the completion context of the memory access in flight on one
// LSQ slot. A load (or atomic) uses its LQ slot's context and a store its
// SQ slot's; either slot stays claimed until memory acknowledges, so a
// context is never reused while its access is in flight (a ROB slot can
// be: a store retires before its ack). done is bound once at construction.
type memSlot struct {
	c         *Core
	seq       uint64
	extra     sim.Time
	loadSlot  int
	storeSlot int
	done      func()
}

func (ms *memSlot) complete() {
	c := ms.c
	c.resolveMem(ms.seq, c.engine.Now()+ms.extra, ms.loadSlot, ms.storeSlot)
}

// Core is one hardware context (a full core or an SCC thread).
type Core struct {
	cfg    Config
	engine *sim.Engine
	source OpSource
	mem    MemFunc

	// Window state. The rings are sized to the next power of two above
	// ROB so the per-dependence seq->slot mapping is a mask, not a
	// divide; capacity checks still use cfg.ROB. A ring larger than the
	// window is harmless: at most ROB entries are in flight, and a
	// doneTimes shadow is overwritten only ring-size retirements later.
	robMask    uint64
	rob        []robEntry // ring, indexed by seq & robMask
	fetched    uint64     // ops fetched (next seq)
	retired    uint64     // ops retired
	lastRetire sim.Time
	doneTimes  []sim.Time // shadow completions of recently retired ops

	// Issue queue (OOO): parked counts ops dispatched but not yet issued
	// (the IQ occupancy); they wait in their ROB entries. ready is a
	// min-heap of the seqs of parked ops whose last dependence resolved,
	// so drainWaiting issues them in ascending seq.
	parked int
	ready  []uint64

	// Issue bandwidth bookkeeping.
	issueCycle sim.Time
	issueUsed  int
	lastIssue  sim.Time

	// Functional units: next-free time per unit.
	fu [numFUKinds][]sim.Time

	// Load/store queue occupancy rings (completion time or MaxTime while
	// the slot's op is still in flight).
	loadRing  []sim.Time
	loadIdx   int
	storeRing []sim.Time
	storeIdx  int
	// loadMem/storeMem are the per-slot memory completion contexts.
	loadMem  []memSlot
	storeMem []memSlot

	fetchDone bool
	stalled   bool // waiting on source Wake
	// ticker drives the pipeline: one pump per active cycle. The pump
	// parks it (by returning false) whenever forward progress needs an
	// outside event — a fetch stall, a blocked dispatch, an unresolved
	// ROB head — so an idle core consumes no engine events at all; memory
	// completions and source wakeups re-arm it idempotently.
	ticker  *sim.Recurring
	retryOp *MicroOp
	onIdle  func()
	// recycle returns issued ops to an OpRecycler source for pooling.
	recycle func(*MicroOp)

	// Stats.
	OpsRetired uint64
	MemOps     uint64

	// attrib is the core's cycle-attribution sink (nil = off). Every
	// pipeline park charges its blocking cause; charges are count-only
	// (the park's duration is decided by the event that re-pumps).
	attrib *obs.Attribution
}

// NewCore builds a core. mem may be nil when the source never produces
// memory ops with a MemRef.
func NewCore(engine *sim.Engine, cfg Config, source OpSource, mem MemFunc) *Core {
	if cfg.IssueWidth <= 0 || cfg.ROB <= 0 {
		panic("cpu: bad core config")
	}
	ring := 1
	for ring < cfg.ROB {
		ring <<= 1
	}
	c := &Core{
		cfg:       cfg,
		engine:    engine,
		source:    source,
		mem:       mem,
		robMask:   uint64(ring - 1),
		rob:       make([]robEntry, ring),
		doneTimes: make([]sim.Time, ring),
		loadRing:  make([]sim.Time, max(cfg.LQ, 1)),
		storeRing: make([]sim.Time, max(cfg.SQ, 1)),
	}
	c.loadMem = c.newMemSlots(len(c.loadRing))
	c.storeMem = c.newMemSlots(len(c.storeRing))
	for k := range c.fu {
		c.fu[k] = make([]sim.Time, cfg.FUCount[k])
	}
	c.ticker = engine.NewRecurring(1, c.pump)
	if r, ok := source.(OpRecycler); ok {
		c.recycle = r.Recycle
	}
	return c
}

func (c *Core) newMemSlots(n int) []memSlot {
	slots := make([]memSlot, n)
	for i := range slots {
		slots[i].c = c
		slots[i].done = slots[i].complete
	}
	return slots
}

// Config returns the core configuration.
func (c *Core) Config() Config { return c.cfg }

// Start begins execution.
func (c *Core) Start() { c.ticker.Wake() }

// Wake tells a stalled core that its source has ops again.
func (c *Core) Wake() {
	if c.stalled {
		c.stalled = false
		c.ticker.Wake()
	}
}

// Done reports whether the core has retired its whole stream.
func (c *Core) Done() bool { return c.fetchDone && c.retired == c.fetched }

// FinishTime returns the retirement time of the last op.
func (c *Core) FinishTime() sim.Time { return c.lastRetire }

// SetOnIdle registers a callback fired once when the stream completes.
func (c *Core) SetOnIdle(fn func()) { c.onIdle = fn }

// SetAttribution attaches a cycle-attribution sink (nil detaches).
func (c *Core) SetAttribution(a *obs.Attribution) { c.attrib = a }

// completionOf returns the completion time of dependency seq, or ok=false
// while it is unresolved.
func (c *Core) completionOf(seq uint64) (sim.Time, bool) {
	if seq >= c.fetched {
		panic(fmt.Sprintf("cpu: dependence on future op %d (fetched %d)", seq, c.fetched))
	}
	if seq < c.retired {
		if c.retired-seq <= uint64(c.cfg.ROB) {
			return c.doneTimes[seq&c.robMask], true
		}
		return 0, true
	}
	e := &c.rob[seq&c.robMask]
	if !e.resolved {
		return 0, false
	}
	return e.complete, true
}

// tryRetire advances retirement over resolved heads.
func (c *Core) tryRetire() {
	for c.retired < c.fetched {
		e := &c.rob[c.retired&c.robMask]
		if !e.resolved {
			return
		}
		if e.complete > c.lastRetire {
			c.lastRetire = e.complete
		}
		c.doneTimes[c.retired&c.robMask] = e.complete
		if e.onRetire != nil {
			fn, at := e.onRetire, c.lastRetire
			e.onRetire = nil
			fn(at)
		}
		c.retired++
		c.OpsRetired++
	}
	if c.fetchDone && c.Done() && c.onIdle != nil {
		fn := c.onIdle
		c.onIdle = nil
		fn()
	}
}

// maxPumpOps bounds run-ahead per pump so event interleaving with the
// memory system stays fine-grained.
const maxPumpOps = 64

// pump advances the pipeline for one cycle of work. It reports whether
// the ticker should fire again next cycle; returning false parks the core
// until a completion event or source wakeup calls ticker.Wake.
func (c *Core) pump() bool {
	c.drainWaiting()
	c.tryRetire()
	for n := 0; n < maxPumpOps; n++ {
		if c.fetched-c.retired >= uint64(c.cfg.ROB) {
			if c.rob[c.retired&c.robMask].resolved {
				c.tryRetire()
				continue
			}
			c.attrib.Charge(obs.StallROBFull, 0)
			return false // head unresolved; completion event re-pumps
		}
		op := c.retryOp
		if op != nil {
			c.retryOp = nil
		} else {
			var res FetchResult
			op, res = c.source.Next()
			switch res {
			case FetchStall:
				c.stalled = true
				c.attrib.Charge(obs.StallFetchStarved, 0)
				return false
			case FetchDone:
				c.fetchDone = true
				c.tryRetire()
				return false
			}
		}
		if !c.dispatch(op) {
			c.retryOp = op
			return false // blocked; a completion event re-pumps
		}
	}
	return true
}

// dispatch admits one op into the window. It returns false when dispatch
// must stall (LSQ slot or IQ full, or in-order with unresolved deps).
func (c *Core) dispatch(op *MicroOp) bool {
	// Reserve LSQ slots at dispatch (allocation-time semantics).
	isLoad := op.Class == Load || op.Class == Atomic
	isStore := op.Class == Store || op.Class == Atomic
	loadSlot, storeSlot := -1, -1
	ready := c.engine.Now()
	if isLoad {
		if c.loadRing[c.loadIdx] == sim.MaxTime {
			c.attrib.Charge(obs.StallLSQFull, 0)
			return false // LQ full
		}
		if t := c.loadRing[c.loadIdx]; t > ready {
			ready = t
		}
	}
	if isStore {
		if c.storeRing[c.storeIdx] == sim.MaxTime {
			c.attrib.Charge(obs.StallLSQFull, 0)
			return false // SQ full
		}
		if t := c.storeRing[c.storeIdx]; t > ready {
			ready = t
		}
	}
	// Resolve dependences.
	unresolved := 0
	for _, d := range op.Deps {
		t, ok := c.completionOf(d)
		if !ok {
			unresolved++
			continue
		}
		if t > ready {
			ready = t
		}
	}
	if unresolved > 0 {
		if c.cfg.InOrder {
			// The front op blocks on unresolved work, the in-order analogue
			// of an unresolved ROB head.
			c.attrib.Charge(obs.StallROBFull, 0)
			return false // in-order issue stalls at the front
		}
		if c.parked >= c.cfg.IQ {
			c.attrib.Charge(obs.StallIQFull, 0)
			return false // issue queue full
		}
	}
	// Claim LSQ slots now that we will definitely dispatch.
	if isLoad {
		loadSlot = c.loadIdx
		c.loadRing[loadSlot] = sim.MaxTime
		c.loadIdx = (c.loadIdx + 1) % len(c.loadRing)
	}
	if isStore {
		storeSlot = c.storeIdx
		c.storeRing[storeSlot] = sim.MaxTime
		c.storeIdx = (c.storeIdx + 1) % len(c.storeRing)
	}
	seq := c.fetched
	c.fetched++
	e := &c.rob[seq&c.robMask]
	e.seq, e.complete, e.resolved, e.onRetire = seq, 0, false, op.OnRetire
	if unresolved > 0 {
		// Park the op: register it with each unresolved producer, whose
		// resolution counts it down (see resolve).
		for _, d := range op.Deps {
			if p := &c.rob[d&c.robMask]; d >= c.retired && !p.resolved {
				p.consumers = append(p.consumers, seq)
			}
		}
		e.op, e.pending, e.loadSlot, e.storeSlot = op, unresolved, loadSlot, storeSlot
		c.parked++
		return true
	}
	c.issueOp(op, seq, ready, loadSlot, storeSlot)
	if c.recycle != nil {
		c.recycle(op)
	}
	return true
}

// drainWaiting issues the parked ops whose dependences have all resolved,
// in ascending seq. Issuing one may resolve it and wake younger consumers,
// which join the heap and issue in the same drain; since dependences are
// always older, this is the order a seq-ordered rescan of the issue queue
// to fixpoint would issue them in. Each op's ready time is read from its
// producers' completions at drain time.
func (c *Core) drainWaiting() {
	for len(c.ready) > 0 {
		seq := c.popReady()
		e := &c.rob[seq&c.robMask]
		op, loadSlot, storeSlot := e.op, e.loadSlot, e.storeSlot
		e.op = nil
		c.parked--
		ready := c.engine.Now()
		for _, d := range op.Deps {
			if t, _ := c.completionOf(d); t > ready {
				ready = t
			}
		}
		c.issueOp(op, seq, ready, loadSlot, storeSlot)
		if c.recycle != nil {
			c.recycle(op)
		}
	}
}

// resolve marks e complete at time at and counts down its consumers; a
// parked op whose last pending dependence this was joins the ready heap.
func (c *Core) resolve(e *robEntry, at sim.Time) {
	e.resolved = true
	e.complete = at
	for _, s := range e.consumers {
		w := &c.rob[s&c.robMask]
		if w.pending--; w.pending == 0 {
			c.pushReady(s)
		}
	}
	e.consumers = e.consumers[:0]
}

// pushReady and popReady maintain the ready min-heap over seqs.
func (c *Core) pushReady(seq uint64) {
	h := append(c.ready, seq)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= seq {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = seq
	c.ready = h
}

func (c *Core) popReady() uint64 {
	h := c.ready
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r] < h[l] {
			l = r
		}
		if last <= h[l] {
			break
		}
		h[i] = h[l]
		i = l
	}
	if n > 0 {
		h[i] = last
	}
	c.ready = h
	return top
}

// issueOp assigns an issue time respecting bandwidth and functional units,
// then starts execution (memory ops go to the hierarchy).
func (c *Core) issueOp(op *MicroOp, seq uint64, ready sim.Time, loadSlot, storeSlot int) {
	if c.cfg.InOrder && c.lastIssue > ready {
		ready = c.lastIssue
	}
	issue := ready
	if issue < c.issueCycle {
		issue = c.issueCycle
	}
	if issue == c.issueCycle && c.issueUsed >= c.cfg.IssueWidth {
		issue++
	}
	kind := fuFor(op.Class)
	units := c.fu[kind]
	best := 0
	for i := 1; i < len(units); i++ {
		if units[i] < units[best] {
			best = i
		}
	}
	if units[best] > issue {
		issue = units[best]
	}
	if issue != c.issueCycle {
		c.issueCycle = issue
		c.issueUsed = 0
	}
	c.issueUsed++
	occupancy := sim.Time(1)
	if op.Class == IntDiv || op.Class == FPDiv {
		occupancy = c.cfg.Latency[op.Class] // unpipelined
	}
	units[best] = issue + occupancy
	c.lastIssue = issue

	if op.OnIssue != nil {
		op.OnIssue(issue)
	}

	e := &c.rob[seq&c.robMask]
	if op.Class.IsMem() && op.Mem != nil {
		c.MemOps++
		var ms *memSlot
		if loadSlot >= 0 {
			ms = &c.loadMem[loadSlot]
		} else {
			ms = &c.storeMem[storeSlot]
		}
		ms.seq, ms.extra, ms.loadSlot, ms.storeSlot = seq, op.ExtraLatency, loadSlot, storeSlot
		c.mem(seq, *op.Mem, issue, ms.done)
		if op.Class == Store {
			// Stores complete into the store buffer; the SQ slot stays
			// busy until memory acknowledges.
			c.resolve(e, issue+c.cfg.Latency[Store]+op.ExtraLatency)
		}
	} else {
		lat := c.cfg.Latency[op.Class] + op.ExtraLatency
		if op.Class.IsMem() {
			// Mem-class op without a MemRef (SE FIFO access).
			lat = c.cfg.Latency[IntAlu] + op.ExtraLatency
		}
		c.resolve(e, issue+lat)
		if loadSlot >= 0 {
			c.loadRing[loadSlot] = e.complete
		}
		if storeSlot >= 0 {
			c.storeRing[storeSlot] = e.complete
		}
	}
	c.tryRetire()
}

// resolveMem records a memory op's completion, frees its queue slots, and
// restarts the pipeline.
func (c *Core) resolveMem(seq uint64, at sim.Time, loadSlot, storeSlot int) {
	if c.fetched > seq && c.fetched-seq <= uint64(c.cfg.ROB) {
		e := &c.rob[seq&c.robMask]
		if e.seq == seq && !e.resolved {
			c.resolve(e, at)
		}
	}
	if loadSlot >= 0 {
		c.loadRing[loadSlot] = at
	}
	if storeSlot >= 0 {
		c.storeRing[storeSlot] = at
	}
	c.drainWaiting()
	c.tryRetire()
	if !c.Done() {
		c.ticker.Wake()
	}
}

func fuFor(class OpClass) fuKind {
	switch class {
	case IntAlu:
		return fuIntAlu
	case IntMult, IntDiv:
		return fuIntMult
	case FPAlu, SIMD:
		return fuFPAlu
	case FPDiv:
		return fuFPDiv
	case Load, Store, Atomic:
		return fuMemPort
	default:
		panic("cpu: unknown op class")
	}
}
