package core

import (
	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/sim"
)

// coreSource adapts a coreRun to the cpu.OpSource interface; micro-ops are
// generated lazily from the trace according to the per-stream modes.
type coreSource coreRun

// Next implements cpu.OpSource.
func (s *coreSource) Next() (*cpu.MicroOp, cpu.FetchResult) {
	cr := (*coreRun)(s)
	for cr.qhead >= len(cr.queue) {
		cr.queue = cr.queue[:0]
		cr.qhead = 0
		ent := cr.decode()
		if ent == nil {
			if !cr.endEmitted {
				cr.emitEnd()
				continue
			}
			return nil, cpu.FetchDone
		}
		cr.emitEntry(ent)
	}
	op := cr.queue[cr.qhead]
	cr.queue[cr.qhead] = nil
	cr.qhead++
	return op, cpu.FetchOp
}

// enterNext marks, in a level's replay body, where one instance of the
// next deeper level runs.
const enterNext = ir.NoValue

// replayBody returns kernel k's replay schedule: body[L] is one iteration
// of level L — its prologue, enterNext when a deeper level exists, then
// its epilogue (ir.Kernel.LevelOps). Run builds it once and shares it
// across its cores.
func replayBody(k *ir.Kernel) [][]ir.ValueRef {
	pro, epi := k.LevelOps()
	body := make([][]ir.ValueRef, len(pro))
	for L := range body {
		b := make([]ir.ValueRef, 0, len(pro[L])+1+len(epi[L]))
		b = append(b, pro[L]...)
		if L+1 < len(body) {
			b = append(b, enterNext)
		}
		body[L] = append(b, epi[L]...)
	}
	return body
}

// startReplay points the replay at the start of the trace: level 0's
// instance, before its first iteration (a finished body).
func (cr *coreRun) startReplay(body [][]ir.ValueRef) {
	cr.body = body
	cr.left = make([]uint32, len(body))
	cr.pos = make([]int, len(body))
	cr.elemCursor = make([]int, len(cr.trace.StreamElems))
	cr.depth = 0
	cr.left[0] = cr.trace.Trips[0]
	cr.tripCursor = 1
	cr.pos[0] = len(body[0])
}

// decode replays the next entry of the trace into the coreRun's scratch
// entry, or returns nil at the end of the trace. It walks the loop nest:
// each iteration of level L yields an iteration entry, then the ops of
// body[L], running one instance of level L+1 (its trip count read from
// Trips) at enterNext. A memory op's address comes from its stream's
// element list when it is the stream's primary access, from Addrs
// otherwise. The entry is valid until the next call.
func (cr *coreRun) decode() *traceEntry {
	for cr.depth >= 0 {
		L := cr.depth
		body := cr.body[L]
		if cr.pos[L] == len(body) {
			if cr.left[L] == 0 {
				cr.depth--
				continue
			}
			cr.left[L]--
			cr.pos[L] = 0
			cr.ent = traceEntry{kind: entIter}
			return &cr.ent
		}
		id := body[cr.pos[L]]
		cr.pos[L]++
		if id == enterNext {
			cr.depth++
			cr.left[L+1] = cr.trace.Trips[cr.tripCursor]
			cr.tripCursor++
			cr.pos[L+1] = len(cr.body[L+1])
			continue
		}
		ent := &cr.ent
		*ent = traceEntry{kind: entOp, id: id}
		switch kind := cr.k.Ops[id].Kind; kind {
		case ir.OpLoad, ir.OpStore, ir.OpAtomic:
			ent.write = kind != ir.OpLoad
			if st := primaryStream(cr.plan, id); st != nil {
				ent.pa = cr.trace.StreamElems[st.Sid][cr.elemCursor[st.Sid]].pa
				cr.elemCursor[st.Sid]++
			} else {
				ent.pa = cr.trace.Addrs[cr.addrCursor]
				cr.addrCursor++
			}
		}
		return ent
	}
	return nil
}

// Recycle implements cpu.OpRecycler: the core has finished reading op.
func (s *coreSource) Recycle(op *cpu.MicroOp) {
	cr := (*coreRun)(s)
	cr.opFree = append(cr.opFree, op)
}

// newOp returns a micro-op of the given class from the free pool (keeping
// a recycled op's Deps and MemRef allocations) or allocates a fresh one.
func (cr *coreRun) newOp(class cpu.OpClass) *cpu.MicroOp {
	n := len(cr.opFree) - 1
	if n < 0 {
		return &cpu.MicroOp{Class: class}
	}
	op := cr.opFree[n]
	cr.opFree = cr.opFree[:n]
	op.Class = class
	op.Deps = op.Deps[:0]
	op.ExtraLatency = 0
	op.OnRetire = nil
	op.OnIssue = nil
	if op.Mem != nil {
		*op.Mem = cpu.MemRef{}
	}
	return op
}

// push queues a micro-op, assigning its sequence number (queue order is
// fetch order) and registering its memory action if any.
func (cr *coreRun) push(op *cpu.MicroOp, action func(done func())) uint64 {
	seq := cr.seq
	cr.seq++
	if action != nil {
		if op.Mem == nil {
			op.Mem = &cpu.MemRef{}
		}
		cr.actions[seq] = action
	}
	cr.queue = append(cr.queue, op)
	return seq
}

// loopOverheadOps is the induction/branch cost charged per loop iteration.
const loopOverheadOps = 2

func (cr *coreRun) emitEntry(ent *traceEntry) {
	if ent.kind == entIter {
		if cr.decoupledCore() {
			return // §V: the loop disappears from the core
		}
		for i := 0; i < loopOverheadOps; i++ {
			cr.push(cr.newOp(cpu.IntAlu), nil)
		}
		return
	}
	id := ent.id
	op := &cr.k.Ops[id]
	if op.Kind == ir.OpConst || op.Kind == ir.OpParam {
		return // folded into configuration / registers
	}
	st := cr.streamOf(id)
	if st == nil {
		cr.emitCoreOp(id, ent)
		return
	}
	mode := cr.modes[st.Sid]
	isAccess := id == st.AccessOp || id == st.MergedStore
	if !isAccess {
		for _, f := range st.ChaseFieldOps {
			if f == id {
				isAccess = true
				break
			}
		}
	}
	switch mode {
	case modeRemote:
		cr.offloadedDyn++
		if isAccess && id == st.AccessOp {
			n := cr.elemCount[st.Sid]
			cr.elemCount[st.Sid] = n + 1
			rs := cr.remotes[st.Sid]
			if rs != nil && cr.pol.rangeSync && !cr.decoupledCore() && !rs.stepExempt {
				// s_step: the core's in-order commit point for range-sync.
				step := cr.newOp(cpu.IntAlu)
				step.OnRetire = rs.stepRetired
				cr.push(step, nil)
			}
			// A later core consumer of this element must s_load it.
			if rs != nil && rs.respAt != nil {
				cr.haveSeq[id] = false
			}
		}
	case modeChain, modeINSTOperand:
		cr.offloadedDyn++
		if isAccess && id == st.AccessOp {
			cr.elemCount[st.Sid]++
		}
	case modeINSTAnchor:
		cr.offloadedDyn++
		if isAccess && id == st.AccessOp {
			n := cr.elemCount[st.Sid]
			cr.elemCount[st.Sid] = n + 1
			// One offload request per iteration (Omni-Compute style).
			act := cr.instRoundTrip(st, n)
			cr.push(cr.newOp(cpu.Load), act)
		}
	case modePerElem:
		if isAccess && (st.Write || st.Kind == isa.KindIndirect) {
			// Per-element core↔bank round trip (Livia without autonomy).
			cr.offloadedDyn++
			n := cr.elemCount[st.Sid]
			cr.elemCount[st.Sid] = n + 1
			mop := cr.newOp(cpu.Load)
			cr.addMemDeps(mop, op)
			act := cr.perElemRoundTrip(st, n)
			seq := cr.push(mop, act)
			cr.setSeq(id, seq)
			return
		}
		cr.emitPrefetchOrCore(id, ent, st, isAccess)
	case modePrefetch:
		cr.emitPrefetchOrCore(id, ent, st, isAccess)
	default: // modeDirect
		cr.emitCoreOp(id, ent)
	}
}

// emitPrefetchOrCore handles streams kept in the core: load accesses read
// the SE_core FIFO; everything else executes normally.
func (cr *coreRun) emitPrefetchOrCore(id ir.ValueRef, ent *traceEntry, st *compiler.Stream, isAccess bool) {
	if isAccess && !ent.write {
		if ics := cr.prefetch[st.Sid]; ics != nil {
			n := cr.elemCount[st.Sid]
			if id == st.AccessOp {
				cr.elemCount[st.Sid] = n + 1
			} else if n > 0 {
				n-- // chase field loads share the current element
			}
			elem := n
			if elem >= len(ics.elems) {
				elem = len(ics.elems) - 1
			}
			sl := cr.newOp(cpu.Load)
			sl.ExtraLatency = 1
			seq := cr.push(sl, func(done func()) {
				ics.consume(elem, func(at sim.Time) {
					cr.m.Engine.ScheduleAt(max(at, cr.m.Engine.Now()), done)
				})
			})
			cr.setSeq(id, seq)
			cr.shared.ctr.sload.Inc()
			return
		}
	}
	cr.emitCoreOp(id, ent)
}

// emitCoreOp lowers one IR op to a core micro-op with dependences.
func (cr *coreRun) emitCoreOp(id ir.ValueRef, ent *traceEntry) {
	op := &cr.k.Ops[id]
	mop := cr.newOp(cpu.IntAlu)
	switch op.Kind {
	case ir.OpLoad, ir.OpStore, ir.OpAtomic:
		cr.addMemDeps(mop, op)
		switch op.Kind {
		case ir.OpLoad:
			mop.Class = cpu.Load
		case ir.OpStore:
			mop.Class = cpu.Store
		default:
			mop.Class = cpu.Atomic
		}
		mop.SetMem(cpu.MemRef{Addr: ent.pa, Write: ent.write, PC: uint64(id)*8 + 0x4000})
	case ir.OpBin:
		cr.addDep(mop, op.A)
		cr.addDep(mop, op.B)
		mop.Class = classOfBin(op)
	case ir.OpSelect:
		cr.addDep(mop, op.Cond)
		cr.addDep(mop, op.A)
		cr.addDep(mop, op.B)
	case ir.OpConvert:
		cr.addDep(mop, op.A)
	case ir.OpIndex:
	case ir.OpChaseVar:
		// The chase variable carries the loop dependence: its value is
		// the previous iteration's next pointer (or the start value).
		l := &cr.k.Loops[op.Level]
		cr.addDep(mop, l.NextVal)
		cr.addDep(mop, l.StartVal)
	case ir.OpReduce:
		cr.addDep(mop, op.Val)
		if prev, ok := cr.lastAcc[op.Acc]; ok {
			mop.Deps = append(mop.Deps, prev)
		}
		mop.Class = classOfBin(op)
	case ir.OpAccRead:
		if prev, ok := cr.lastAcc[op.Acc]; ok {
			mop.Deps = append(mop.Deps, prev)
		}
	}
	if op.Vector {
		mop.Class = cpu.SIMD
	}
	seq := cr.push(mop, nil)
	cr.setSeq(id, seq)
	if op.Kind == ir.OpReduce {
		if cr.lastAcc == nil {
			cr.lastAcc = map[string]uint64{}
		}
		cr.lastAcc[op.Acc] = seq
	}
}

// addMemDeps appends the operand deps of a memory op (address components
// and stored/expected values) to mop.
func (cr *coreRun) addMemDeps(mop *cpu.MicroOp, op *ir.Op) {
	cr.addDep(mop, op.Val)
	cr.addDep(mop, op.Expected)
	cr.addDep(mop, op.Addr.Base)
	cr.addDep(mop, op.Addr.IndexVal)
	cr.addDep(mop, op.Addr.Pointer)
}

func classOfBin(op *ir.Op) cpu.OpClass {
	if op.Vector {
		return cpu.SIMD
	}
	if op.Type.IsFloat() {
		if op.Bin == ir.Div {
			return cpu.FPDiv
		}
		return cpu.FPAlu
	}
	switch op.Bin {
	case ir.Mul:
		return cpu.IntMult
	case ir.Div:
		return cpu.IntDiv
	default:
		return cpu.IntAlu
	}
}

// addDep appends the dependence seq of one IR operand to mop: the last
// emitted instance, or a freshly emitted s_load of a remote stream's
// response. Configuration values and fully offloaded producers add nothing.
func (cr *coreRun) addDep(mop *cpu.MicroOp, r ir.ValueRef) {
	if r == ir.NoValue {
		return
	}
	if cr.haveSeq[r] {
		mop.Deps = append(mop.Deps, cr.lastSeq[r])
		return
	}
	// Value produced by an offloaded stream: read it from the response
	// FIFO (s_load).
	if st := cr.streamOf(r); st != nil && cr.modes[st.Sid] == modeRemote {
		rs := cr.remotes[st.Sid]
		if rs != nil && rs.respAt != nil && r == st.AccessOp {
			idx := cr.consumeCount[st.Sid]
			cr.consumeCount[st.Sid] = idx + 1
			if idx >= len(rs.respAt) {
				idx = len(rs.respAt) - 1
			}
			elem := idx
			sl := cr.newOp(cpu.Load)
			sl.ExtraLatency = 1
			seq := cr.push(sl, func(done func()) {
				rs.respReady(elem, func(sim.Time) { done() })
			})
			cr.setSeq(r, seq)
			cr.shared.ctr.sloadRemote.Inc()
			mop.Deps = append(mop.Deps, seq)
		}
	}
}

func (cr *coreRun) setSeq(id ir.ValueRef, seq uint64) {
	cr.lastSeq[id] = seq
	cr.haveSeq[id] = true
}

// emitEnd issues s_end per stream and the completion barrier that waits
// for every offloaded stream's done/final-value message.
func (cr *coreRun) emitEnd() {
	cr.endEmitted = true
	for _, rs := range cr.remotes {
		if rs != nil {
			cr.push(cr.newOp(cpu.IntAlu), nil) // s_end
		}
	}
	if cr.pendingStreams > 0 {
		cr.push(cr.newOp(cpu.Load), func(done func()) {
			if cr.pendingStreams == 0 {
				done()
				return
			}
			cr.barrierWaiters = append(cr.barrierWaiters, done)
		})
	}
}
