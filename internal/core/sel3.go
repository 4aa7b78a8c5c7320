package core

import (
	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/isa"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Message payload sizes (bytes) for the coarse-grained protocol of §IV-B.
const (
	creditBytes  = 8
	rangeBytes   = 16 // [min,max) physical range, stream id, window
	commitBytes  = 8
	doneBytes    = 8
	migrateBytes = 16 // §IV-D: only changing fields re-sent
	endBytes     = 8
)

// remoteStream is one offloaded stream executing at SE_L3s (§IV). Elements
// are processed in order with a bounded number in flight (the stream
// buffer); pointer-chase streams are strictly serial because each node's
// address comes from the previous node's data. Bank accesses are per line:
// the first element touching a line pays the L3 (and coherence/DRAM)
// latency, subsequent same-line elements complete a cycle later.
type remoteStream struct {
	cr *coreRun
	s  *compiler.Stream
	// elems is the dynamic element sequence from the trace.
	elems []streamElem

	// Per-element completion state at the bank. waiter holds each
	// element's (almost always single) completion callback in a dense
	// slot — consumer streams re-register their advance event per
	// element, which made a map of slices the hottest allocation site in
	// the simulator; registrations beyond the first overflow to waiterOv.
	done     []bool
	waiter   []func()         // lazily sized to len(elems)
	waiterOv map[int][]func() // rare: second and later waiters

	// respAt/respDone track per-element responses at the core.
	respAt    []sim.Time
	respDone  []bool
	respWtr   []func(sim.Time) // dense, like waiter
	respWtrOv map[int][]func(sim.Time)

	// Value dependences (forwarded operands) and indirect base.
	deps []*remoteStream
	base *remoteStream

	// idx is the next element to process; curBank the stream's current
	// SE_L3 location; inflight bounds the element pipeline.
	idx      int
	curBank  int
	started  bool
	inflight int

	// advanceEv is the bound advance closure, allocated once: advance is
	// re-queued per element, so a method value at every call site would
	// allocate on the stream's hottest path.
	advanceEv sim.Event

	// parked dedups elemReady registrations on a producer: advance is
	// re-entered from many sources while blocked on the same element, and
	// re-registering each time piled up no-op callbacks. parkedFire is
	// the bound wakeup that clears the flag before advancing.
	parked     bool
	parkedFire func()

	// lineDone caches per-line availability; linePend queues callbacks
	// while a line access is outstanding; lineWritten coalesces store
	// writebacks per line. The pend slices recycle through pendPool so a
	// steady state allocates nothing.
	lineDone    map[uint64]sim.Time
	linePend    map[uint64][]func(at sim.Time)
	lineWritten map[uint64]struct{}
	pendPool    [][]func(at sim.Time)

	// Range-sync state. Commits pipeline: nextCommit is the next window
	// whose commit message goes out; winCommitted counts received dones.
	winProcessed   int
	winCommitted   int
	nextCommit     int
	coreSteps      int
	stepExempt     bool // ptr-chase: the core cannot step a data-dependent chase
	rangeArrived   []bool
	elemsProcessed int
	// stepRetired is every s_step's OnRetire, bound once: a stream's
	// s_steps are emitted one per element and retire in order, so the
	// k-th retirement steps the core through element k.
	stepRetired func(sim.Time)

	// Atomic lock bookkeeping.
	lockedLines []lockedLine

	// ctxFree heads the elemCtx freelist (see elemCtx).
	ctxFree *elemCtx

	// visitedBanks tracks banks holding partial reductions (§IV-C),
	// indexed by tile id.
	visitedBanks []bool

	// Scratch for commitWindow's per-window line dedup, reused across
	// windows (only ever used synchronously within one commit delivery).
	commitSeen  map[uint64]struct{}
	commitLines []uint64

	finished   bool
	finalSent  bool
	onFinished func()

	// Coarse-grain context switch support (§V): while suspended the
	// stream issues no new elements; once in-flight work and commit
	// round trips drain, its precise state is architectural and can be
	// saved/restored.
	suspended   bool
	drainWaiter func()
}

type lockedLine struct {
	line     uint64
	bank     int
	modifies bool
}

// lockKey identifies this stream as a lock holder (same-stream atomics
// always proceed, §IV-C): the core and stream ids packed into one small
// non-negative integer, so lock acquire/release never formats strings.
func (rs *remoteStream) lockKey() int {
	return rs.cr.coreID<<16 | rs.s.Sid
}

func newRemoteStream(cr *coreRun, s *compiler.Stream, elems []streamElem) *remoteStream {
	rs := &remoteStream{
		cr: cr, s: s, elems: elems,
		done:         make([]bool, len(elems)),
		visitedBanks: make([]bool, cr.m.Tiles()),
		lineDone:     make(map[uint64]sim.Time),
		linePend:     make(map[uint64][]func(at sim.Time)),
		lineWritten:  make(map[uint64]struct{}),
		commitSeen:   make(map[uint64]struct{}),
		curBank:      -1,
		stepExempt:   s.Kind == isa.KindPointerChase,
	}
	if s.RetBytes > 0 || !cr.pol.offloadCompute {
		rs.respAt = make([]sim.Time, len(elems))
		rs.respDone = make([]bool, len(elems))
	}
	if cr.pol.rangeSync {
		rs.rangeArrived = make([]bool, rs.numWindows()+1)
	}
	rs.advanceEv = rs.advance
	rs.stepRetired = func(sim.Time) { rs.noteCoreStep(rs.coreSteps + 1) }
	rs.parkedFire = func() {
		rs.parked = false
		rs.advance()
	}
	return rs
}

// maxInflight bounds concurrently processed elements: the per-core SE_L3
// stream buffer (1 kB, Table V) holds ~64 in-flight elements; pointer
// chases are serial by data dependence.
func (rs *remoteStream) maxInflight() int {
	if rs.s.Kind == isa.KindPointerChase {
		return 1
	}
	return 64
}

func (rs *remoteStream) numWindows() int {
	r := rs.cr.params.RangeWindow
	return (len(rs.elems) + r - 1) / r
}

// windowOf returns the range-sync window of element i.
func (rs *remoteStream) windowOf(i int) int { return i / rs.cr.params.RangeWindow }

// emit records one stream protocol event at bank when tracing is on.
func (rs *remoteStream) emit(kind obs.Kind, bank int, b uint64) {
	if tr := rs.cr.m.Tracer; tr.Enabled() {
		tr.Emit(obs.Event{Time: uint64(rs.cr.m.Engine.Now()), Kind: kind,
			Tile: int32(bank), A: uint64(rs.s.Sid), B: b})
	}
}

// start configures the stream at its first bank (Figure 5 step 1).
func (rs *remoteStream) start() {
	rs.started = true
	if len(rs.elems) == 0 {
		rs.finish()
		return
	}
	first := rs.firstBank()
	rs.emit(obs.KindStreamConfig, first, uint64(first))
	cfgBytes := isa.EncodedBytes(rs.s.ISAConfig(rs.cr.coreID))
	rs.cr.net().Send(&noc.Message{
		Src: rs.cr.coreID, Dst: first, Bytes: cfgBytes, Class: noc.TrafficOffload,
		OnDeliver: func() {
			rs.curBank = first
			rs.advance()
		},
	})
}

func (rs *remoteStream) firstBank() int {
	if len(rs.elems) == 0 {
		return rs.cr.coreID
	}
	return rs.cr.m.Hier.HomeBank(rs.elems[0].pa)
}

// creditOK checks the credit window (§IV-B resource management).
func (rs *remoteStream) creditOK(i int) bool {
	if !rs.cr.pol.rangeSync {
		return true
	}
	return rs.windowOf(i)-rs.winCommitted < rs.cr.params.CreditWindows
}

// elemReady registers a callback for element i's availability at its bank.
func (rs *remoteStream) elemReady(i int, fn func()) {
	if rs.done[i] {
		fn()
		return
	}
	if rs.waiter == nil {
		rs.waiter = make([]func(), len(rs.elems))
	}
	if rs.waiter[i] == nil {
		rs.waiter[i] = fn
		return
	}
	if rs.waiterOv == nil {
		rs.waiterOv = map[int][]func(){}
	}
	rs.waiterOv[i] = append(rs.waiterOv[i], fn)
}

// respReady registers a callback for element i's response at the core.
func (rs *remoteStream) respReady(i int, fn func(at sim.Time)) {
	if i >= len(rs.respDone) {
		panic("core: respReady on stream without responses")
	}
	if rs.respDone[i] {
		fn(rs.respAt[i])
		return
	}
	if rs.respWtr == nil {
		rs.respWtr = make([]func(sim.Time), len(rs.elems))
	}
	if rs.respWtr[i] == nil {
		rs.respWtr[i] = fn
		return
	}
	if rs.respWtrOv == nil {
		rs.respWtrOv = map[int][]func(sim.Time){}
	}
	rs.respWtrOv[i] = append(rs.respWtrOv[i], fn)
}

// Suspend stops issuing elements and calls onDrained once in-flight work
// and commit round trips complete — the Figure 7b/§V drain that makes the
// stream's progress architectural state.
func (rs *remoteStream) Suspend(onDrained func()) {
	rs.suspended = true
	if rs.drained() {
		onDrained()
		return
	}
	rs.drainWaiter = onDrained
}

// Resume re-dispatches a suspended stream: a fresh configure message to
// its current bank, then processing continues from the saved element.
func (rs *remoteStream) Resume() {
	if !rs.suspended {
		return
	}
	rs.suspended = false
	if rs.finished {
		return
	}
	bank := rs.curBank
	if bank < 0 {
		bank = rs.firstBank()
	}
	cfgBytes := isa.EncodedBytes(rs.s.ISAConfig(rs.cr.coreID))
	rs.cr.shared.ctr.resumes.Inc()
	rs.emit(obs.KindStreamResume, bank, uint64(bank))
	rs.cr.net().Send(&noc.Message{Src: rs.cr.coreID, Dst: bank, Bytes: cfgBytes,
		Class: noc.TrafficOffload, OnDeliver: rs.advanceEv})
}

func (rs *remoteStream) drained() bool {
	return rs.inflight == 0 && rs.winCommitted >= rs.nextCommit
}

func (rs *remoteStream) checkDrain() {
	if rs.suspended && rs.drainWaiter != nil && rs.drained() {
		fn := rs.drainWaiter
		rs.drainWaiter = nil
		fn()
	}
}

// advance processes elements until blocked on credits, dependences, the
// in-flight bound, suspension, or stream end.
func (rs *remoteStream) advance() {
	if rs.finished || !rs.started || rs.suspended {
		return
	}
	for rs.idx < len(rs.elems) && rs.inflight < rs.maxInflight() {
		i := rs.idx
		if !rs.creditOK(i) {
			rs.cr.shared.attrib.Charge(obs.StallOffloadQueue, 0)
			return
		}
		if rs.base != nil {
			bi := min(i, len(rs.base.done)-1)
			if bi >= 0 && !rs.base.done[bi] {
				if !rs.parked {
					rs.parked = true
					rs.cr.shared.attrib.Charge(obs.StallElementWait, 0)
					rs.base.elemReady(bi, rs.parkedFire)
				}
				return
			}
		}
		blocked := false
		for _, dep := range rs.deps {
			di := min(i, len(dep.done)-1)
			if di >= 0 && !dep.done[di] {
				if !rs.parked {
					rs.parked = true
					rs.cr.shared.attrib.Charge(obs.StallElementWait, 0)
					dep.elemReady(di, rs.parkedFire)
				}
				blocked = true
				break
			}
		}
		if blocked {
			return
		}
		rs.idx++
		rs.inflight++
		rs.processElem(i)
	}
	if rs.idx < len(rs.elems) && rs.inflight >= rs.maxInflight() {
		// The element pipeline (stream buffer) is full: the next element
		// waits for an in-flight one to complete.
		rs.cr.shared.attrib.Charge(obs.StallOffloadQueue, 0)
	}
	rs.maybeFinish()
}

func (rs *remoteStream) maybeFinish() {
	if rs.finished {
		return
	}
	if rs.elemsProcessed >= len(rs.elems) && rs.allCommitted() {
		rs.finish()
	}
}

func (rs *remoteStream) allCommitted() bool {
	if !rs.cr.pol.rangeSync || !rs.s.Write {
		return true
	}
	return rs.winCommitted >= rs.numWindows()
}

// processElem runs the per-element pipeline at the SE_L3.
func (rs *remoteStream) processElem(i int) {
	e := rs.elems[i]
	m := rs.cr.m
	line := m.Hier.LineAddr(e.pa)
	bank := m.Hier.HomeBank(e.pa)

	if rs.base == nil && bank != rs.curBank {
		// Affine/pointer streams migrate with the data (§IV-B). Moving to
		// an already-visited bank only re-sends the changing fields
		// (§IV-D): core id, stream id, iteration.
		rs.cr.shared.ctr.migrations.Inc()
		rs.cr.shared.attrib.Charge(obs.StallMigration, 0)
		rs.emit(obs.KindStreamMigrate, bank, uint64(bank))
		from := rs.curBank
		if from < 0 {
			from = bank
		}
		bytes := migrateBytes
		if rs.visitedBanks[bank] {
			bytes = 8
		}
		rs.curBank = bank
		rs.cr.net().Send(&noc.Message{Src: from, Dst: bank, Bytes: bytes,
			Class: noc.TrafficOffload, OnDeliver: func() { rs.afterMigrate(i, line, bank) }})
		return
	}
	rs.afterMigrate(i, line, bank)
}

// afterMigrate charges element i's operand-forwarding and indirect-hop
// traffic, then performs the bank access.
func (rs *remoteStream) afterMigrate(i int, line uint64, bank int) {
	m := rs.cr.m
	net := rs.cr.net()
	// Forwarded operands (multi-op, Figure 2b) are charged as offload
	// traffic from the producer's bank.
	for _, dep := range rs.deps {
		di := min(i, len(dep.elems)-1)
		if di < 0 {
			continue
		}
		depBank := m.Hier.HomeBank(dep.elems[di].pa)
		if depBank != bank {
			net.Send(&noc.Message{Src: depBank, Dst: bank,
				Bytes: int(dep.elems[di].size), Class: noc.TrafficOffload})
		}
	}
	// Indirect request hop: base bank → target bank (Figure 5 step 7).
	// The request carries the address plus, for stores/atomics, the
	// update value.
	if rs.base != nil {
		bi := min(i, len(rs.base.elems)-1)
		if bi >= 0 {
			baseBank := m.Hier.HomeBank(rs.base.elems[bi].pa)
			if baseBank != bank {
				bytes := 8
				// Stream-carried update values travel with the
				// request; loop-invariant operands (histogram's +1)
				// live in the target SE's configuration.
				if rs.s.Write && len(rs.s.ValueDepSids) > 0 {
					bytes += int(rs.elems[i].size)
				}
				net.Send(&noc.Message{Src: baseBank, Dst: bank,
					Bytes: bytes, Class: noc.TrafficOffload})
			}
		}
	}
	rs.accessElem(i, line, bank)
}

// ensureLine resolves a line's availability at its bank, paying the bank
// access once per line.
func (rs *remoteStream) ensureLine(bank int, line uint64, cb func(at sim.Time)) {
	if t, ok := rs.lineDone[line]; ok {
		now := rs.cr.m.Engine.Now()
		if t < now {
			t = now
		}
		cb(t + 1) // buffered element access
		return
	}
	if pend, ok := rs.linePend[line]; ok {
		rs.linePend[line] = append(pend, cb)
		return
	}
	var pend []func(sim.Time)
	if n := len(rs.pendPool); n > 0 {
		pend = rs.pendPool[n-1]
		rs.pendPool = rs.pendPool[:n-1]
	} else {
		pend = make([]func(sim.Time), 0, 4)
	}
	rs.linePend[line] = append(pend, cb)
	rs.cr.m.Hier.Bank(bank).StreamRead(line, func(bool) {
		at := rs.cr.m.Engine.Now()
		rs.lineDone[line] = at
		pend := rs.linePend[line]
		delete(rs.linePend, line)
		for _, fn := range pend {
			fn(at)
		}
		for j := range pend {
			pend[j] = nil
		}
		rs.pendPool = append(rs.pendPool, pend[:0])
	})
}

// elemCtx is the pooled per-in-flight-element completion context. It
// replaces the closure chains accessElem used to allocate per element
// (complete → elemDone thunk, plus the atomic lock/ensure/release
// wrappers): each pool entry binds its callbacks once at creation and is
// recycled when the element completes, so steady-state element
// processing allocates nothing. The pool is bounded by the stream's
// in-flight window.
type elemCtx struct {
	rs       *remoteStream
	i        int
	line     uint64
	bank     int
	modifies bool
	next     *elemCtx // freelist link

	completeCB func(sim.Time) // ec.complete: TLB + compute, then doneEv
	doneEv     sim.Event      // ec.fireDone: recycle, then elemDone
	writeCB    func(bool)     // ec.writeDone: complete(now)
	lockedCB   func()         // ec.locked: record lock, resolve the line
	lineCB     func(sim.Time) // ec.atomicLine: post-ensure atomic path
	relCompEv  sim.Event      // ec.releaseComplete: unlock, complete(now)
	relComp1Ev sim.Event      // ec.releaseComplete1: unlock, complete(now+1)
	wrRelCB    func(bool)     // ec.writeReleaseDone: unlock, complete(now)
}

// getCtx takes a context from the stream's freelist (or builds one,
// binding its callbacks) and points it at element i.
func (rs *remoteStream) getCtx(i int, line uint64, bank int) *elemCtx {
	ec := rs.ctxFree
	if ec == nil {
		ec = &elemCtx{rs: rs}
		ec.completeCB = ec.complete
		ec.doneEv = ec.fireDone
		ec.writeCB = ec.writeDone
		ec.lockedCB = ec.locked
		ec.lineCB = ec.atomicLine
		ec.relCompEv = ec.releaseComplete
		ec.relComp1Ev = ec.releaseComplete1
		ec.wrRelCB = ec.writeReleaseDone
	} else {
		rs.ctxFree = ec.next
	}
	ec.i, ec.line, ec.bank = i, line, bank
	return ec
}

// complete applies the SE_L3 TLB lookup (one per page, cached) and the
// bank-side computation latency (scalar PE or SCM/SCC, §III-C), then
// schedules the element's completion.
func (ec *elemCtx) complete(at sim.Time) {
	rs := ec.rs
	if lat, hit := rs.cr.seTLBLookup(ec.bank, rs.elems[ec.i].pa); !hit {
		at += lat
	}
	if rs.cr.pol.offloadCompute && (len(rs.s.ComputeOps) > 0 || (rs.s.ScalarOp != isa.OpNone && rs.s.ScalarOp != isa.OpFunc)) {
		scm := rs.cr.scmAt(ec.bank)
		scalarOK := rs.s.ScalarOp != isa.OpNone && rs.s.ScalarOp != isa.OpFunc && len(rs.s.ComputeOps) <= 2
		at = computeAt(scm, rs.cr.params, scalarOK, max(len(rs.s.ComputeOps), 1), rs.s.Vector, at)
		rs.cr.shared.ctr.remoteCompute.Inc()
	}
	rs.cr.m.Engine.ScheduleAt(at, ec.doneEv)
}

// fireDone recycles the context before finalizing the element (elemDone
// may synchronously start new elements, which reuse the slot).
func (ec *elemCtx) fireDone() {
	rs, i, line, bank := ec.rs, ec.i, ec.line, ec.bank
	ec.next = rs.ctxFree
	rs.ctxFree = ec
	rs.elemDone(i, line, bank)
}

func (ec *elemCtx) writeDone(bool) { ec.complete(ec.rs.cr.m.Engine.Now()) }

// locked is the AcquireLock continuation of the atomic path (§IV-C).
func (ec *elemCtx) locked() {
	rs := ec.rs
	rs.lockedLines = append(rs.lockedLines, lockedLine{line: ec.line, bank: ec.bank, modifies: ec.modifies})
	rs.ensureLine(ec.bank, ec.line, ec.lineCB)
}

// atomicLine runs once the locked line is available at the bank.
func (ec *elemCtx) atomicLine(at sim.Time) {
	rs := ec.rs
	m := rs.cr.m
	if rs.cr.pol.rangeSync {
		m.Engine.ScheduleAt(at, ec.relCompEv) // write-back at commit
		return
	}
	// The first atomic to a line claims it in the L3 (clearing private
	// copies); later same-line atomics update in place in a cycle.
	if _, ok := rs.lineWritten[ec.line]; ok {
		m.Engine.ScheduleAt(at, ec.relComp1Ev)
		return
	}
	rs.lineWritten[ec.line] = struct{}{}
	m.Hier.Bank(ec.bank).StreamWrite(ec.line, ec.wrRelCB)
}

func (ec *elemCtx) releaseComplete() {
	ec.rs.releaseLock(ec.bank, ec.line)
	ec.complete(ec.rs.cr.m.Engine.Now())
}

func (ec *elemCtx) releaseComplete1() {
	ec.rs.releaseLock(ec.bank, ec.line)
	ec.complete(ec.rs.cr.m.Engine.Now() + 1)
}

func (ec *elemCtx) writeReleaseDone(bool) {
	ec.rs.releaseLock(ec.bank, ec.line)
	ec.complete(ec.rs.cr.m.Engine.Now())
}

// accessElem performs the bank access, computation, and write/response.
func (rs *remoteStream) accessElem(i int, line uint64, bank int) {
	m := rs.cr.m
	b := m.Hier.Bank(bank)
	rs.visitedBanks[bank] = true
	ec := rs.getCtx(i, line, bank)

	switch {
	case rs.s.Atomic && rs.cr.pol.offloadCompute:
		// Lock the line (§IV-C) for the read-modify-write. The lock is
		// released when the element's RMW completes; under range-sync the
		// modified line additionally writes back at commit. (The paper
		// holds locks to the commit point and breaks the resulting rare
		// deadlocks with timeouts; releasing at RMW completion avoids the
		// deadlock while preserving the MRSW-vs-exclusive contention this
		// models — see DESIGN.md.)
		ec.modifies = rs.elems[i].changed || !rs.cr.params.MRSWLock
		rs.cr.shared.ctr.atomicElems.Inc()
		b.AcquireLock(line, rs.lockKey(), ec.modifies, rs.cr.lockModeKind(), ec.lockedCB)
	case rs.s.Write:
		if rs.cr.pol.rangeSync {
			rs.ensureLine(bank, line, ec.completeCB) // buffered until commit
			return
		}
		// Stores coalesce in the stream buffer and write back per line.
		if _, ok := rs.lineWritten[line]; ok {
			ec.complete(m.Engine.Now() + 1)
			return
		}
		rs.lineWritten[line] = struct{}{}
		b.StreamWrite(line, ec.writeCB)
	default:
		rs.ensureLine(bank, line, ec.completeCB)
	}
}

func (rs *remoteStream) releaseLock(bank int, line uint64) {
	b := rs.cr.m.Hier.Bank(bank)
	for j, ll := range rs.lockedLines {
		if ll.bank == bank && ll.line == line {
			b.ReleaseLock(line, rs.lockKey(), ll.modifies, rs.cr.lockModeKind())
			rs.lockedLines = append(rs.lockedLines[:j], rs.lockedLines[j+1:]...)
			return
		}
	}
}

// elemDone finalizes element i: responses, window bookkeeping, pipeline
// refill.
func (rs *remoteStream) elemDone(i int, line uint64, bank int) {
	rs.done[i] = true
	rs.inflight--
	rs.elemsProcessed++
	if rs.waiter != nil {
		if w := rs.waiter[i]; w != nil {
			rs.waiter[i] = nil
			w()
			if ws, ok := rs.waiterOv[i]; ok {
				delete(rs.waiterOv, i)
				for _, w := range ws {
					w()
				}
			}
		}
	}

	if rs.respAt != nil && rs.s.CT != isa.ComputeReduce {
		bytes := rs.s.RetBytes
		if !rs.cr.pol.offloadCompute && !rs.s.Write {
			// Address-only offload forwards the raw element to the core.
			bytes = int(rs.elems[i].size)
		}
		if bytes > 0 {
			rs.sendResponse(i, bank, bytes)
		} else {
			rs.respAt[i] = rs.cr.m.Engine.Now()
			rs.respDone[i] = true
		}
	}

	// Windows report in order even when elements complete out of order.
	for rs.winProcessed < rs.numWindows() && rs.doneThroughWindow(rs.winProcessed) {
		win := rs.winProcessed
		rs.winProcessed = win + 1
		rs.windowProcessed(win, bank)
	}
	rs.cr.m.Engine.Schedule(1, rs.advanceEv)
	rs.checkDrain()
	rs.maybeFinish()
}

// doneThroughWindow reports whether every element of window w completed.
func (rs *remoteStream) doneThroughWindow(w int) bool {
	end := (w + 1) * rs.cr.params.RangeWindow
	if end > len(rs.elems) {
		end = len(rs.elems)
	}
	for i := w * rs.cr.params.RangeWindow; i < end; i++ {
		if !rs.done[i] {
			return false
		}
	}
	return true
}

func (rs *remoteStream) sendResponse(i, bank, bytes int) {
	rs.cr.net().Send(&noc.Message{Src: bank, Dst: rs.cr.coreID, Bytes: bytes,
		Class: noc.TrafficOffload, OnDeliver: func() {
			at := rs.cr.m.Engine.Now()
			rs.respAt[i] = at
			rs.respDone[i] = true
			if rs.respWtr != nil {
				if w := rs.respWtr[i]; w != nil {
					rs.respWtr[i] = nil
					w(at)
					if ws, ok := rs.respWtrOv[i]; ok {
						delete(rs.respWtrOv, i)
						for _, w := range ws {
							w(at)
						}
					}
				}
			}
		}})
}

// windowProcessed handles end-of-window protocol actions (Figure 7a).
func (rs *remoteStream) windowProcessed(win, bank int) {
	cr := rs.cr
	if !cr.pol.rangeSync {
		if cr.sys == NSNoSync && win%4 == 0 {
			// §V: streams still report progress so the core cannot
			// commit ahead; reports are batched (no ordering needed).
			cr.net().Send(&noc.Message{Src: bank, Dst: cr.coreID,
				Bytes: creditBytes, Class: noc.TrafficOffload})
		}
		return
	}
	lo, hi := rangeOfWindow(rs.elems, win*cr.params.RangeWindow, (win+1)*cr.params.RangeWindow)
	needRangeMsg := rs.s.Kind != isa.KindAffine || !cr.params.AffineRangesAtCore
	if needRangeMsg {
		cr.net().Send(&noc.Message{Src: bank, Dst: cr.coreID, Bytes: rangeBytes,
			Class: noc.TrafficOffload, OnDeliver: func() {
				cr.ranges.Update(rs.s.Sid, lo, hi, cr.m.Engine.Now())
				rs.rangeArrived[win] = true
				rs.tryCommit()
			}})
	} else {
		// Affine ranges generated at SE_core (Figure 15 default): no
		// traffic, duplicate address generation is SE-local work.
		cr.ranges.Update(rs.s.Sid, lo, hi, cr.m.Engine.Now())
		rs.rangeArrived[win] = true
		rs.tryCommit()
	}
}

// noteCoreStep records that the core retired s_steps through element n.
func (rs *remoteStream) noteCoreStep(n int) {
	if n > rs.coreSteps {
		rs.coreSteps = n
	}
	rs.tryCommit()
}

// tryCommit issues commits for eligible windows in order, keeping several
// round trips in flight (the protocol is coarse-grained precisely so that
// synchronization pipelines, §IV-B).
func (rs *remoteStream) tryCommit() {
	if !rs.cr.pol.rangeSync || rs.finished {
		return
	}
	for rs.nextCommit < rs.winProcessed {
		win := rs.nextCommit
		if !rs.rangeArrived[win] {
			break
		}
		endElem := (win + 1) * rs.cr.params.RangeWindow
		if endElem > len(rs.elems) {
			endElem = len(rs.elems)
		}
		if !rs.stepExempt && !rs.cr.decoupledCore() && rs.coreSteps < endElem {
			break
		}
		rs.nextCommit = win + 1
		rs.commitWindow(win, endElem)
	}
	rs.maybeFinish()
}

// commitWindow performs the commit → write-back → done round trip for one
// window (Figure 5 steps 3–5). For read-only streams it degenerates to a
// credit grant covering every currently eligible window (one message).
func (rs *remoteStream) commitWindow(win, endElem int) {
	cr := rs.cr
	bank := rs.curBank
	if bank < 0 {
		bank = rs.firstBank()
	}
	rs.emit(obs.KindStreamCommit, bank, uint64(win))
	if !rs.s.Write {
		// Batch the grant over everything tryCommit has released.
		hi := rs.nextCommit
		cr.net().Send(&noc.Message{Src: cr.coreID, Dst: bank, Bytes: creditBytes,
			Class: noc.TrafficOffload, OnDeliver: func() {
				if hi > rs.winCommitted {
					rs.winCommitted = hi
				}
				rs.tryCommit()
				rs.checkDrain()
				rs.advance()
			}})
		return
	}
	cr.net().Send(&noc.Message{Src: cr.coreID, Dst: bank, Bytes: commitBytes,
		Class: noc.TrafficOffload, OnDeliver: func() {
			// Write back the window's buffered stores (in element order,
			// for determinism). The dedup scratch lives on rs and is only
			// touched inside this synchronous loop, so pipelined commits
			// reuse it safely.
			startElem := win * cr.params.RangeWindow
			clear(rs.commitSeen)
			lines := rs.commitLines[:0]
			for i := startElem; i < endElem; i++ {
				line := cr.m.Hier.LineAddr(rs.elems[i].pa)
				if _, seen := rs.commitSeen[line]; !seen {
					rs.commitSeen[line] = struct{}{}
					lines = append(lines, line)
				}
			}
			rs.commitLines = lines
			remaining := len(lines) + 1
			finishOne := func() {
				remaining--
				if remaining > 0 {
					return
				}
				cr.net().Send(&noc.Message{Src: bank, Dst: cr.coreID, Bytes: doneBytes,
					Class: noc.TrafficOffload, OnDeliver: func() {
						rs.winCommitted++
						rs.tryCommit()
						rs.checkDrain()
						rs.advance()
					}})
			}
			for _, line := range lines {
				cr.m.Hier.Bank(cr.m.Hier.HomeBank(line)).StreamWrite(line, func(bool) {
					finishOne()
				})
			}
			finishOne()
		}})
}

// finish terminates the stream: partial-reduction collection, final value
// return (Figure 5 step 6, §IV-C indirect reduction).
func (rs *remoteStream) finish() {
	if rs.finished {
		return
	}
	rs.finished = true
	cr := rs.cr
	endBank := rs.curBank
	if endBank < 0 {
		endBank = cr.coreID
	}
	rs.emit(obs.KindStreamFinish, endBank, uint64(len(rs.elems)))
	if rs.s.CT == isa.ComputeReduce && len(rs.elems) > 0 && cr.pol.offloadCompute {
		banks := make([]int, 0, 16)
		for b := 0; b < cr.m.Tiles(); b++ {
			if rs.visitedBanks[b] {
				banks = append(banks, b)
			}
		}
		remaining := len(banks)
		for _, b := range banks {
			cr.net().Send(&noc.Message{Src: b, Dst: cr.coreID,
				Bytes: rs.s.RetBytes + 4, Class: noc.TrafficOffload,
				OnDeliver: func() {
					remaining--
					if remaining == 0 {
						rs.signalFinished()
					}
				}})
		}
		if len(banks) == 0 {
			rs.signalFinished()
		}
		return
	}
	bank := rs.curBank
	if bank < 0 {
		bank = cr.coreID
	}
	cr.net().Send(&noc.Message{Src: cr.coreID, Dst: bank, Bytes: endBytes,
		Class: noc.TrafficOffload, OnDeliver: rs.signalFinished})
}

func (rs *remoteStream) signalFinished() {
	if rs.finalSent {
		return
	}
	rs.finalSent = true
	rs.cr.ranges.Release(rs.s.Sid)
	// Safety: release any lock still held (fault/end path, Figure 7c).
	for _, ll := range rs.lockedLines {
		rs.cr.m.Hier.Bank(ll.bank).ReleaseLock(ll.line, rs.lockKey(), ll.modifies, rs.cr.lockModeKind())
	}
	rs.lockedLines = nil
	if rs.onFinished != nil {
		rs.onFinished()
	}
}

// lockModeKind maps the MRSW parameter to the cache lock mode.
func (cr *coreRun) lockModeKind() cache.LockMode {
	if cr.params.MRSWLock {
		return cache.LockMRSW
	}
	return cache.LockExclusive
}
