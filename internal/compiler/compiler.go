// Package compiler implements the §III-B near-stream compiler passes over
// the loop-nest IR: stream recognition (affine, nested-affine, indirect,
// pointer-chase), computation assignment (load-closure BFS, store
// value-dependence slicing, reduction phi detection, RMW merging), and the
// §V synchronization-free / fully-decoupled-loop analysis.
//
// The result is a Plan: the set of streams with their associated
// near-stream computations, the mapping from IR ops to streams, and the
// residual ops that stay on the core. The runtime (internal/core) executes
// a Plan against a machine model.
package compiler

import (
	"repro/internal/ir"
	"repro/internal/isa"
)

// Category classifies a dynamic op for the Figure 1a / Figure 11
// micro-op accounting.
type Category int

const (
	// CatCore stays on the core (loop control, unabsorbed compute).
	CatCore Category = iota
	// CatStreamMem is a memory access absorbed by a stream.
	CatStreamMem
	// CatStreamCompute is a compute op assigned to a stream.
	CatStreamCompute
	// CatConfig is loop-invariant setup folded into stream
	// configuration (consts, params).
	CatConfig
)

// String names the category.
func (c Category) String() string {
	switch c {
	case CatCore:
		return "core"
	case CatStreamMem:
		return "stream-mem"
	case CatStreamCompute:
		return "stream-compute"
	case CatConfig:
		return "config"
	default:
		return "cat?"
	}
}

// Stream is one recognized stream with its assigned computation.
type Stream struct {
	// Sid is the per-core stream id.
	Sid int
	// AccessOp is the memory op this stream replaces (ir.NoValue for
	// compute-only reduction streams).
	AccessOp ir.ValueRef
	// MergedStore is the store op folded into an RMW stream (NoValue
	// otherwise).
	MergedStore ir.ValueRef

	Kind isa.StreamKind
	CT   isa.ComputeType
	// Level is the loop level the stream iterates at.
	Level int
	Type  ir.Type

	// Addr is the static address template (affine coefficients, indirect
	// index source, or pointer form).
	Addr ir.Addr
	// BaseSid is the index-producing stream for indirect streams (-1).
	BaseSid int

	// Write/Atomic mirror the access semantics.
	Write  bool
	Atomic bool
	// AtomicKind is the RMW operation for atomic streams.
	AtomicKind ir.AtomicKind

	// ComputeOps are the IR ops outlined into the near-stream function
	// (the paper's control/memory-free instruction block).
	ComputeOps []ir.ValueRef
	// ValueDepSids are streams whose same-iteration data feeds the
	// computation (multi-operand patterns).
	ValueDepSids []int
	// ScalarOp is the simple-op encoding when the computation fits the
	// SE's scalar PE; isa.OpFunc when an SCC is needed.
	ScalarOp isa.ScalarOp
	// Vector marks SIMD computation (forces the SCM path).
	Vector bool
	// RetBytes is what returns to the core per element (0 = nothing).
	RetBytes int

	// Reduction state.
	AccName  string
	AccLevel int

	// Nested marks inner-loop streams re-instantiated per outer
	// iteration (Figure 4d). TripVal, when not NoValue, is the outer op
	// giving the trip count.
	Nested  bool
	TripVal ir.ValueRef

	// ChaseFieldOps are extra same-node field loads riding on a
	// pointer-chase stream.
	ChaseFieldOps []ir.ValueRef
}

// Associative reports whether the reduction op is associative (required
// for indirect partial reduction, §IV-C).
func Associative(b ir.BinKind) bool {
	switch b {
	case ir.Add, ir.Mul, ir.Min, ir.Max, ir.And, ir.Or, ir.Xor:
		return true
	default:
		return false
	}
}

// ISAConfig is the stream's Table IV configuration as core coreID would
// send it: the encoding that sizes configuration and migration messages
// (isa.EncodedBytes).
func (s *Stream) ISAConfig(coreID int) *isa.StreamConfig {
	cfg := &isa.StreamConfig{
		ID:     isa.StreamID{Core: coreID % 64, Sid: s.Sid % 16},
		Write:  s.Write,
		Atomic: s.Atomic,
	}
	switch s.Kind {
	case isa.KindAffine:
		cfg.Kind = isa.KindAffine
		cfg.Affine = isa.AffinePattern{Strides: [3]int64{int64(s.Type.Size())}, Lens: [3]uint64{1}, Dims: 1, ElemSize: s.Type.Size()}
	case isa.KindIndirect:
		cfg.Kind = isa.KindIndirect
		cfg.Ind = isa.IndirectPattern{ElemSize: s.Type.Size(), BaseStream: isa.StreamID{Core: coreID % 64, Sid: max(s.BaseSid, 0) % 16}}
	case isa.KindPointerChase:
		cfg.Kind = isa.KindPointerChase
		cfg.Ptr = isa.PointerChasePattern{ElemSize: s.Type.Size()}
	}
	if s.CT == isa.ComputeReduce {
		cfg.Reduction = true
		cfg.AssocOnly = true
	}
	if s.CT != isa.ComputeNone {
		args := []isa.ComputeArg{}
		for _, d := range s.ValueDepSids {
			args = append(args, isa.ComputeArg{Kind: isa.ArgStream, Stream: isa.StreamID{Core: coreID % 64, Sid: d % 16}, Size: s.Type.Size()})
		}
		cfg.Compute = &isa.ComputeSpec{
			Type: s.CT, Op: s.ScalarOp, RetSize: powTwoAtLeast(s.RetBytes),
			FuncOps: len(s.ComputeOps), Vector: s.Vector, Args: args,
		}
	}
	return cfg
}

func powTwoAtLeast(n int) int {
	if n <= 0 {
		return 0
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Plan is the compiled form of a kernel.
type Plan struct {
	Kernel  *ir.Kernel
	Streams []*Stream
	// ByAccess maps a memory op to the stream that replaced it.
	ByAccess map[ir.ValueRef]*Stream
	// Claimed maps every absorbed op (access or compute) to its stream.
	Claimed map[ir.ValueRef]*Stream
	// byOp is Claimed as a dense per-op table (nil: on-core), filled at
	// the end of Compile for StreamOf.
	byOp []*Stream
	// FullyDecoupled marks §V kernels whose inner loop is eliminated.
	FullyDecoupled bool
	// Sids bounds every stream id the plan names (Sid, BaseSid,
	// ValueDepSids): the count Compile assigned, merged-away streams
	// included, so per-sid tables can be dense.
	Sids int
}

// ClassOf returns the accounting category of an op.
func (p *Plan) ClassOf(id ir.ValueRef) Category {
	op := &p.Kernel.Ops[id]
	if op.Kind == ir.OpConst || op.Kind == ir.OpParam {
		return CatConfig
	}
	s := p.StreamOf(id)
	if s == nil {
		return CatCore
	}
	if id == s.AccessOp || id == s.MergedStore {
		return CatStreamMem
	}
	for _, f := range s.ChaseFieldOps {
		if f == id {
			return CatStreamMem
		}
	}
	return CatStreamCompute
}

// StreamOf returns the stream an op belongs to (nil when on-core).
func (p *Plan) StreamOf(id ir.ValueRef) *Stream {
	return p.byOp[id]
}

// compileState carries pass state.
type compileState struct {
	k     *ir.Kernel
	users map[ir.ValueRef][]ir.ValueRef
	plan  *Plan
	// loadStream maps a load op to its stream while building.
	nextSid int
}

// Compile runs all passes over a kernel.
func Compile(k *ir.Kernel) (*Plan, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	cs := &compileState{
		k:     k,
		users: buildUsers(k),
		plan: &Plan{
			Kernel:   k,
			ByAccess: map[ir.ValueRef]*Stream{},
			Claimed:  map[ir.ValueRef]*Stream{},
		},
	}
	cs.recognizeChase()
	cs.recognizeLoads()
	cs.recognizeStoresAtomics()
	cs.mergeRMW()
	cs.assignChasePlumbing()
	cs.assignReductions()
	cs.assignStoreValues()
	cs.assignIndirectIndices()
	cs.assignLoadClosures()
	cs.analyzeDecoupling()
	cs.plan.Sids = cs.nextSid
	cs.plan.byOp = make([]*Stream, len(k.Ops))
	for id, s := range cs.plan.Claimed {
		cs.plan.byOp[id] = s
	}
	return cs.plan, nil
}

// buildUsers collects op → users.
func buildUsers(k *ir.Kernel) map[ir.ValueRef][]ir.ValueRef {
	users := map[ir.ValueRef][]ir.ValueRef{}
	add := func(use ir.ValueRef, user int) {
		if use != ir.NoValue {
			users[use] = append(users[use], ir.ValueRef(user))
		}
	}
	for i := range k.Ops {
		op := &k.Ops[i]
		add(op.Val, i)
		add(op.Expected, i)
		add(op.A, i)
		add(op.B, i)
		add(op.Cond, i)
		add(op.Addr.Base, i)
		add(op.Addr.IndexVal, i)
		add(op.Addr.Pointer, i)
	}
	// Loop trip counts and while-loop plumbing are uses too.
	for li := range k.Loops {
		l := &k.Loops[li]
		add(l.TripVal, len(k.Ops)+li) // synthetic user id (outside op range)
		if l.While {
			add(l.StartVal, len(k.Ops)+li)
			add(l.NextVal, len(k.Ops)+li)
			add(l.ContinueVal, len(k.Ops)+li)
		}
	}
	return users
}

func (cs *compileState) newStream() *Stream {
	s := &Stream{Sid: cs.nextSid, BaseSid: -1, AccessOp: ir.NoValue, MergedStore: ir.NoValue, TripVal: ir.NoValue}
	cs.nextSid++
	cs.plan.Streams = append(cs.plan.Streams, s)
	return s
}

func (cs *compileState) claimAccess(id ir.ValueRef, s *Stream) {
	s.AccessOp = id
	cs.plan.ByAccess[id] = s
	cs.plan.Claimed[id] = s
}

// isOuterValue reports whether op id's backward slice only involves values
// legal as nested-stream configuration inputs: outer-level stream loads,
// consts, params, and loop indices (§III-A: inner configuration must
// depend only on outer streams or loop-invariant data).
func (cs *compileState) isOuterValue(id ir.ValueRef, innerLevel int) bool {
	op := &cs.k.Ops[id]
	if op.Level >= innerLevel {
		return false
	}
	switch op.Kind {
	case ir.OpConst, ir.OpParam, ir.OpIndex:
		return true
	case ir.OpLoad:
		_, isStream := cs.plan.ByAccess[id]
		return isStream
	case ir.OpBin:
		return cs.isOuterValue(op.A, innerLevel) && cs.isOuterValue(op.B, innerLevel)
	case ir.OpSelect:
		return cs.isOuterValue(op.Cond, innerLevel) && cs.isOuterValue(op.A, innerLevel) && cs.isOuterValue(op.B, innerLevel)
	case ir.OpConvert:
		return cs.isOuterValue(op.A, innerLevel)
	default:
		return false
	}
}

// recognizeChase finds pointer-chase streams: for each While loop, every
// pointer-form load off the chase variable joins one chase stream (field
// accesses of the current node); the next pointer may be one of those
// loads directly or a computation over them (e.g. a binary tree selecting
// left/right — the plumbing is outlined later by assignChasePlumbing).
func (cs *compileState) recognizeChase() {
	k := cs.k
	for li := range k.Loops {
		l := &k.Loops[li]
		if !l.While || l.NextVal == ir.NoValue {
			continue
		}
		// Find the chase-variable read of this loop.
		var chaseVar ir.ValueRef = ir.NoValue
		for i := range k.Ops {
			if k.Ops[i].Kind == ir.OpChaseVar && k.Ops[i].Level == li {
				chaseVar = ir.ValueRef(i)
				break
			}
		}
		if chaseVar == ir.NoValue {
			continue
		}
		var ptrLoads []ir.ValueRef
		for i := range k.Ops {
			op := &k.Ops[i]
			if op.Kind == ir.OpLoad && op.Level == li && op.Addr.IsPointer() && op.Addr.Pointer == chaseVar {
				ptrLoads = append(ptrLoads, ir.ValueRef(i))
			}
		}
		if len(ptrLoads) == 0 {
			continue
		}
		// Prefer the load that directly produces NextVal as the primary
		// access (a plain linked list); otherwise the first field load.
		primary := ptrLoads[0]
		for _, id := range ptrLoads {
			if id == l.NextVal {
				primary = id
			}
		}
		s := cs.newStream()
		s.Kind = isa.KindPointerChase
		s.CT = isa.ComputeNone
		s.Level = li
		s.Type = k.Ops[primary].Type
		s.Addr = k.Ops[primary].Addr
		cs.claimAccess(primary, s)
		cs.plan.Claimed[chaseVar] = s
		for _, id := range ptrLoads {
			if id == primary {
				continue
			}
			s.ChaseFieldOps = append(s.ChaseFieldOps, id)
			cs.plan.Claimed[id] = s
			cs.plan.ByAccess[id] = s
		}
	}
}

// recognizeLoads finds affine and nested-affine load streams, then
// indirect loads whose index comes from an already-recognized stream.
func (cs *compileState) recognizeLoads() {
	k := cs.k
	// Affine first (they can serve as bases).
	for i := range k.Ops {
		op := &k.Ops[i]
		if op.Kind != ir.OpLoad || !op.Addr.IsAffine() {
			continue
		}
		if _, done := cs.plan.Claimed[ir.ValueRef(i)]; done {
			continue
		}
		if !cs.affineEligible(op) {
			continue
		}
		s := cs.newStream()
		s.Kind = isa.KindAffine
		s.CT = isa.ComputeNone
		s.Level = op.Level
		s.Type = op.Type
		s.Addr = op.Addr
		cs.fillNesting(s, op)
		cs.claimAccess(ir.ValueRef(i), s)
	}
	// Indirect loads.
	for i := range k.Ops {
		op := &k.Ops[i]
		if op.Kind != ir.OpLoad || !op.Addr.IsIndirect() {
			continue
		}
		if _, done := cs.plan.Claimed[ir.ValueRef(i)]; done {
			continue
		}
		base := cs.indexBaseStream(op.Addr.IndexVal)
		if base == nil {
			continue
		}
		s := cs.newStream()
		s.Kind = isa.KindIndirect
		s.CT = isa.ComputeNone
		s.Level = op.Level
		s.Type = op.Type
		s.Addr = op.Addr
		s.BaseSid = base.Sid
		cs.fillNesting(s, op)
		cs.claimAccess(ir.ValueRef(i), s)
	}
}

// affineEligible checks that an affine address varies with this op's own
// loop level (otherwise it is loop-invariant at this level and not a
// stream) and that any Base value is configurable from outer state.
func (cs *compileState) affineEligible(op *ir.Op) bool {
	if c, ok := op.Addr.Coefs[op.Level]; !ok || c == 0 {
		// No variation at its own level: only a stream if an outer
		// coefficient varies and the op sits at that level... treat as
		// non-stream (scalar load).
		return false
	}
	if op.Addr.Base != ir.NoValue {
		return cs.isOuterValue(op.Addr.Base, op.Level)
	}
	return true
}

// fillNesting marks inner-level streams as nested with their trip source.
func (cs *compileState) fillNesting(s *Stream, op *ir.Op) {
	if op.Level == 0 {
		return
	}
	s.Nested = true
	l := &cs.k.Loops[op.Level]
	s.TripVal = l.TripVal
}

// indexBaseStream resolves the stream producing an indirect index. The
// index may be the stream's value directly or a pure-compute closure over
// exactly one stream load (plus consts/params); the closure ops become
// compute on the base stream later (assignIndirectIndices).
func (cs *compileState) indexBaseStream(idx ir.ValueRef) *Stream {
	seen := map[ir.ValueRef]bool{}
	var base *Stream
	ok := true
	var walk func(id ir.ValueRef)
	walk = func(id ir.ValueRef) {
		if !ok || seen[id] {
			return
		}
		seen[id] = true
		op := &cs.k.Ops[id]
		switch op.Kind {
		case ir.OpConst, ir.OpParam, ir.OpIndex:
		case ir.OpLoad:
			s := cs.plan.ByAccess[id]
			if s == nil {
				ok = false
				return
			}
			if base != nil && base != s {
				ok = false // two distinct base streams: unsupported
				return
			}
			base = s
		case ir.OpBin:
			walk(op.A)
			walk(op.B)
		case ir.OpSelect:
			walk(op.Cond)
			walk(op.A)
			walk(op.B)
		case ir.OpConvert:
			walk(op.A)
		default:
			ok = false
		}
	}
	walk(idx)
	if !ok {
		return nil
	}
	return base
}

// recognizeStoresAtomics builds store and atomic streams.
func (cs *compileState) recognizeStoresAtomics() {
	k := cs.k
	for i := range k.Ops {
		op := &k.Ops[i]
		if op.Kind != ir.OpStore && op.Kind != ir.OpAtomic {
			continue
		}
		if _, done := cs.plan.Claimed[ir.ValueRef(i)]; done {
			continue
		}
		var s *Stream
		switch {
		case op.Addr.IsAffine():
			if !cs.affineEligible(op) {
				continue
			}
			s = cs.newStream()
			s.Kind = isa.KindAffine
		case op.Addr.IsIndirect():
			base := cs.indexBaseStream(op.Addr.IndexVal)
			if base == nil {
				continue
			}
			s = cs.newStream()
			s.Kind = isa.KindIndirect
			s.BaseSid = base.Sid
		default:
			continue // pointer-form stores unsupported
		}
		s.Level = op.Level
		s.Type = op.Type
		s.Addr = op.Addr
		s.Write = true
		s.CT = isa.ComputeStore
		if op.Kind == ir.OpAtomic {
			s.Atomic = true
			s.AtomicKind = op.Atomic
			s.CT = isa.ComputeRMW
			s.ScalarOp = scalarOpFor(op.Atomic)
			// The old value returns only if used.
			if len(cs.users[ir.ValueRef(i)]) > 0 {
				s.RetBytes = op.Type.Size()
			}
		}
		cs.fillNesting(s, op)
		cs.claimAccess(ir.ValueRef(i), s)
	}
}

func scalarOpFor(a ir.AtomicKind) isa.ScalarOp {
	switch a {
	case ir.AtomicAdd:
		return isa.OpAdd
	case ir.AtomicMin:
		return isa.OpMin
	case ir.AtomicMax:
		return isa.OpMax
	case ir.AtomicCAS:
		return isa.OpCAS
	case ir.AtomicOr:
		return isa.OpOr
	default:
		return isa.OpFunc
	}
}

// mergeRMW folds a load and a later store with the identical address
// template at the same level into one update stream (§III-B RMW).
func (cs *compileState) mergeRMW() {
	for _, ls := range cs.plan.Streams {
		if ls.Write || ls.AccessOp == ir.NoValue || ls.Kind == isa.KindPointerChase {
			continue
		}
		for _, ss := range cs.plan.Streams {
			if !ss.Write || ss.Atomic || ss.Level != ls.Level || ss.AccessOp == ir.NoValue {
				continue
			}
			if !sameAddrTemplate(&ls.Addr, &ss.Addr) {
				continue
			}
			// Merge: the store stream becomes an RMW stream; the load is
			// absorbed into it.
			ss.CT = isa.ComputeRMW
			ss.MergedStore = ss.AccessOp
			ss.AccessOp = ls.AccessOp
			cs.plan.ByAccess[ls.AccessOp] = ss
			cs.plan.Claimed[ls.AccessOp] = ss
			cs.removeStream(ls)
			break
		}
	}
}

func sameAddrTemplate(a, b *ir.Addr) bool {
	if a.Array != b.Array || a.Offset != b.Offset || a.Base != b.Base ||
		a.IndexVal != b.IndexVal || a.Pointer != b.Pointer || a.ByteOffset != b.ByteOffset {
		return false
	}
	if len(a.Coefs) != len(b.Coefs) {
		return false
	}
	for k, v := range a.Coefs {
		if b.Coefs[k] != v {
			return false
		}
	}
	return true
}

func (cs *compileState) removeStream(dead *Stream) {
	out := cs.plan.Streams[:0]
	for _, s := range cs.plan.Streams {
		if s != dead {
			out = append(out, s)
		}
	}
	cs.plan.Streams = out
}
