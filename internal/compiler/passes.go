package compiler

import (
	"slices"

	"repro/internal/ir"
	"repro/internal/isa"
)

// sliceResult is a backward value slice suitable for outlining into a
// near-stream function.
type sliceResult struct {
	interior []ir.ValueRef // pure-compute ops, in discovery order
	leaves   []*Stream     // streams whose data the slice consumes
	accReads []ir.ValueRef // accumulator reads (claimed by the consumer)
	vector   bool
}

// slice walks backward from root. The slice is valid when every leaf is a
// stream element, constant, parameter, or loop index, and every interior
// op's users stay within the slice (closure property, §III-B) or are the
// designated consumer.
func (cs *compileState) slice(root, consumer ir.ValueRef) (*sliceResult, bool) {
	res := &sliceResult{}
	set := map[ir.ValueRef]bool{}
	leafSet := map[*Stream]bool{}
	ok := true
	var walk func(id ir.ValueRef)
	walk = func(id ir.ValueRef) {
		if !ok || id == ir.NoValue || set[id] {
			return
		}
		op := &cs.k.Ops[id]
		switch op.Kind {
		case ir.OpConst, ir.OpParam, ir.OpIndex:
			return // configuration inputs and SE-supplied indices, not slice members
		case ir.OpLoad, ir.OpAtomic, ir.OpChaseVar:
			s := cs.plan.Claimed[id]
			if s == nil {
				ok = false
				return
			}
			if !leafSet[s] {
				leafSet[s] = true
				res.leaves = append(res.leaves, s)
			}
			return
		case ir.OpAccRead:
			s := cs.reduceStreamFor(op.Acc)
			if s == nil {
				ok = false
				return
			}
			if !leafSet[s] {
				leafSet[s] = true
				res.leaves = append(res.leaves, s)
			}
			res.accReads = append(res.accReads, id)
			return
		case ir.OpBin, ir.OpSelect, ir.OpConvert:
			if owner, claimed := cs.plan.Claimed[id]; claimed {
				// Computed within another non-write stream (e.g. chase
				// plumbing): the value flows stream-to-stream.
				if owner.Write {
					ok = false
					return
				}
				if !leafSet[owner] {
					leafSet[owner] = true
					res.leaves = append(res.leaves, owner)
				}
				return
			}
			set[id] = true
			res.interior = append(res.interior, id)
			if op.Vector {
				res.vector = true
			}
			walk(op.A)
			walk(op.B)
			walk(op.Cond)
		default:
			ok = false
		}
	}
	walk(root)
	if !ok {
		return nil, false
	}
	// Closure check: interior results must not escape to the core.
	for _, id := range res.interior {
		for _, u := range cs.users[id] {
			if int(u) >= len(cs.k.Ops) {
				ok = false // used by loop plumbing
				break
			}
			if u != consumer && !set[u] {
				// An escape is tolerable only to ops already outlined
				// onto a pointer-chase stream (loop plumbing shares
				// values with riding computations); anything else is a
				// core escape.
				owner, claimed := cs.plan.Claimed[u]
				if !claimed || owner.Kind != isa.KindPointerChase {
					ok = false
					break
				}
			}
		}
	}
	if !ok {
		return nil, false
	}
	return res, true
}

// assignChasePlumbing outlines a while loop's next-pointer and continue
// computations onto its chase stream: the stream terminates itself
// remotely (data-dependent length, §III-A), so these ops never run on the
// core when the stream is offloaded.
func (cs *compileState) assignChasePlumbing() {
	k := cs.k
	for li := range k.Loops {
		l := &k.Loops[li]
		if !l.While || l.NextVal == ir.NoValue {
			continue
		}
		var chase *Stream
		for _, s := range cs.plan.Streams {
			if s.Kind == isa.KindPointerChase && s.Level == li {
				chase = s
				break
			}
		}
		if chase == nil {
			continue
		}
		for _, root := range []ir.ValueRef{l.NextVal, l.ContinueVal} {
			cs.claimLoopSlice(root, li, chase)
		}
	}
}

// claimLoopSlice claims the pure-compute backward slice of a loop-plumbing
// value onto stream s. Leaves (stream accesses, consts) stay as-is; any
// non-configurable leaf aborts the claim for that branch (conservative:
// the loop then cannot decouple).
func (cs *compileState) claimLoopSlice(root ir.ValueRef, loopIdx int, s *Stream) {
	var walk func(id ir.ValueRef)
	seen := map[ir.ValueRef]bool{}
	walk = func(id ir.ValueRef) {
		if id == ir.NoValue || seen[id] {
			return
		}
		seen[id] = true
		op := &cs.k.Ops[id]
		switch op.Kind {
		case ir.OpConst, ir.OpParam, ir.OpIndex:
			return
		case ir.OpLoad, ir.OpAtomic, ir.OpChaseVar, ir.OpReduce:
			// Data from another stream: record the value dependence so
			// forwarding is modelled when offloaded.
			if owner := cs.plan.Claimed[id]; owner != nil && owner != s {
				dup := false
				for _, d := range s.ValueDepSids {
					if d == owner.Sid {
						dup = true
					}
				}
				if !dup {
					s.ValueDepSids = append(s.ValueDepSids, owner.Sid)
				}
			}
			return
		case ir.OpBin, ir.OpSelect, ir.OpConvert:
			if _, claimed := cs.plan.Claimed[id]; !claimed {
				s.ComputeOps = append(s.ComputeOps, id)
				cs.plan.Claimed[id] = s
			}
			walk(op.A)
			walk(op.B)
			walk(op.Cond)
		}
	}
	walk(root)
}

// reduceStreamFor finds the reduction stream owning an accumulator.
func (cs *compileState) reduceStreamFor(acc string) *Stream {
	for _, s := range cs.plan.Streams {
		if s.CT == isa.ComputeReduce && s.AccName == acc {
			return s
		}
	}
	return nil
}

// assignReductions recognizes reduction streams (§III-B "Reduce"): each
// OpReduce whose value slice closes over stream data becomes a
// compute-only reduction stream with value dependences on those streams
// and on itself.
func (cs *compileState) assignReductions() {
	k := cs.k
	for i := range k.Ops {
		op := &k.Ops[i]
		if op.Kind != ir.OpReduce {
			continue
		}
		if _, done := cs.plan.Claimed[ir.ValueRef(i)]; done {
			continue
		}
		res, ok := cs.slice(op.Val, ir.ValueRef(i))
		if !ok || len(res.leaves) == 0 {
			continue
		}
		// The reduce op's own users must be reads of the accumulator
		// only (phi-node shape): a running value consumed elsewhere
		// in-loop cannot decouple.
		escaped := false
		for _, u := range cs.users[ir.ValueRef(i)] {
			if int(u) < len(k.Ops) {
				escaped = true
			}
		}
		if escaped {
			continue
		}
		// Indirect/pointer reductions must be associative (§IV-C).
		kind := isa.KindAffine
		for _, l := range res.leaves {
			if l.Kind == isa.KindIndirect {
				kind = isa.KindIndirect
			}
			if l.Kind == isa.KindPointerChase && kind != isa.KindIndirect {
				kind = isa.KindPointerChase
			}
		}
		if kind != isa.KindAffine && !Associative(op.Bin) {
			continue
		}
		s := cs.newStream()
		s.Kind = kind
		s.CT = isa.ComputeReduce
		s.Level = op.Level
		s.Type = op.Type
		s.AccName = op.Acc
		s.AccLevel = op.AccLevel
		s.RetBytes = op.Type.Size()
		s.Vector = res.vector || op.Vector
		s.ComputeOps = append(res.interior, ir.ValueRef(i))
		for _, l := range res.leaves {
			s.ValueDepSids = append(s.ValueDepSids, l.Sid)
		}
		if len(res.interior) == 0 {
			s.ScalarOp = scalarOpForBin(op.Bin)
		} else {
			s.ScalarOp = isa.OpFunc
		}
		for _, id := range s.ComputeOps {
			cs.plan.Claimed[id] = s
		}
	}
}

func scalarOpForBin(b ir.BinKind) isa.ScalarOp {
	switch b {
	case ir.Add:
		return isa.OpAdd
	case ir.Mul:
		return isa.OpMul
	case ir.Min:
		return isa.OpMin
	case ir.Max:
		return isa.OpMax
	case ir.And:
		return isa.OpAnd
	case ir.Or:
		return isa.OpOr
	case ir.Sub:
		return isa.OpSub
	default:
		return isa.OpFunc
	}
}

// assignStoreValues attaches value slices to store and atomic streams
// (§III-B "Store"). A store whose value cannot decouple from the core
// loses its stream (streams cannot accept loop-variant core values).
func (cs *compileState) assignStoreValues() {
	for _, s := range append([]*Stream(nil), cs.plan.Streams...) {
		if !s.Write {
			continue
		}
		accessID := s.AccessOp
		if s.MergedStore != ir.NoValue {
			accessID = s.MergedStore
		}
		op := &cs.k.Ops[accessID]
		roots := []ir.ValueRef{op.Val}
		if op.Kind == ir.OpAtomic && op.Expected != ir.NoValue {
			roots = append(roots, op.Expected)
		}
		var allInterior []ir.ValueRef
		leafSet := map[int]bool{}
		okAll := true
		vector := false
		for _, r := range roots {
			if r == ir.NoValue {
				continue
			}
			res, ok := cs.slice(r, accessID)
			if !ok {
				// For RMW streams, a self-dependent value (load side of
				// the merged pair feeding the store) is fine: the load is
				// claimed by this same stream, and slice() returns it as
				// a leaf — so a failure here is a genuine core value.
				okAll = false
				break
			}
			allInterior = append(allInterior, res.interior...)
			allInterior = append(allInterior, res.accReads...)
			vector = vector || res.vector
			for _, l := range res.leaves {
				if l != s {
					leafSet[l.Sid] = true
				}
			}
		}
		if !okAll {
			cs.unclaimStream(s)
			continue
		}
		s.ComputeOps = append(s.ComputeOps, allInterior...)
		for sid := range leafSet {
			s.ValueDepSids = append(s.ValueDepSids, sid)
		}
		slices.Sort(s.ValueDepSids)
		s.Vector = s.Vector || vector
		if len(allInterior) > 0 {
			if s.ScalarOp == isa.OpNone {
				s.ScalarOp = isa.OpFunc
			}
			if s.CT == isa.ComputeStore {
				// keep ComputeStore; compute rides with the store stream
			}
		}
		for _, id := range allInterior {
			cs.plan.Claimed[id] = s
		}
	}
}

// unclaimStream removes a stream and all its claims (the accesses return
// to the core).
func (cs *compileState) unclaimStream(s *Stream) {
	for id, owner := range cs.plan.Claimed {
		if owner == s {
			delete(cs.plan.Claimed, id)
		}
	}
	for id, owner := range cs.plan.ByAccess {
		if owner == s {
			delete(cs.plan.ByAccess, id)
		}
	}
	cs.removeStream(s)
}

// assignIndirectIndices outlines the index computation of indirect streams
// onto their base streams (e.g. histogram's key extraction rides on the
// affine load stream, §II-B "Load").
func (cs *compileState) assignIndirectIndices() {
	for _, s := range cs.plan.Streams {
		if s.Kind != isa.KindIndirect || s.AccessOp == ir.NoValue {
			continue
		}
		op := &cs.k.Ops[s.AccessOp]
		idx := op.Addr.IndexVal
		if idx == ir.NoValue {
			continue
		}
		res, ok := cs.slice(idx, s.AccessOp)
		if !ok {
			continue // index op itself is the stream value: nothing to outline
		}
		base := cs.streamBySid(s.BaseSid)
		if base == nil {
			continue
		}
		for _, id := range res.interior {
			if _, claimed := cs.plan.Claimed[id]; !claimed {
				base.ComputeOps = append(base.ComputeOps, id)
				cs.plan.Claimed[id] = base
			}
		}
		if len(base.ComputeOps) > 0 && base.CT == isa.ComputeNone {
			base.CT = isa.ComputeLoad
			base.RetBytes = retSizeOf(cs.k, idx)
			base.ScalarOp = isa.OpFunc
		}
	}
}

func retSizeOf(k *ir.Kernel, id ir.ValueRef) int {
	return k.Ops[id].Type.Size()
}

// assignLoadClosures performs the §III-B load-compute BFS: remaining
// unclaimed pure-compute users of a load stream that form a closure ending
// in a single, narrower value are outlined onto the load stream.
func (cs *compileState) assignLoadClosures() {
	for _, s := range cs.plan.Streams {
		if s.CT != isa.ComputeNone || s.Write || s.AccessOp == ir.NoValue {
			continue
		}
		loadOp := &cs.k.Ops[s.AccessOp]
		// Grow the closure from the load's direct users.
		set := map[ir.ValueRef]bool{}
		frontier := []ir.ValueRef{}
		for _, u := range cs.users[s.AccessOp] {
			frontier = append(frontier, u)
		}
		valid := true
		for len(frontier) > 0 {
			id := frontier[0]
			frontier = frontier[1:]
			if int(id) >= len(cs.k.Ops) {
				valid = false
				break
			}
			if set[id] {
				continue
			}
			op := &cs.k.Ops[id]
			if _, claimed := cs.plan.Claimed[id]; claimed {
				valid = false
				break
			}
			switch op.Kind {
			case ir.OpBin, ir.OpSelect, ir.OpConvert:
				// Other inputs must be configurable or this same stream.
				if !cs.inputsConfigurable(op, s) {
					valid = false
				}
			default:
				valid = false
			}
			if !valid {
				break
			}
			set[id] = true
		}
		if !valid || len(set) == 0 {
			continue
		}
		// Find the unique final op: the one whose users all escape the set.
		var final ir.ValueRef = ir.NoValue
		finals := 0
		for id := range set {
			escapes := false
			for _, u := range cs.users[id] {
				if int(u) >= len(cs.k.Ops) || !set[u] {
					escapes = true
				}
			}
			if escapes {
				finals++
				final = id
			}
		}
		if finals != 1 {
			continue
		}
		// Only worthwhile when the result is narrower than the element
		// (the paper iterates toward fewer live-out bits).
		if cs.k.Ops[final].Type.Size() >= loadOp.Type.Size() {
			continue
		}
		ids := make([]ir.ValueRef, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		s.ComputeOps = append(s.ComputeOps, ids...)
		s.CT = isa.ComputeLoad
		s.RetBytes = cs.k.Ops[final].Type.Size()
		s.ScalarOp = isa.OpFunc
		for _, id := range ids {
			cs.plan.Claimed[id] = s
			if cs.k.Ops[id].Vector {
				s.Vector = true
			}
		}
	}
}

// inputsConfigurable checks a candidate closure op only reads the given
// stream's data, constants, params, or indices.
func (cs *compileState) inputsConfigurable(op *ir.Op, s *Stream) bool {
	check := func(r ir.ValueRef) bool {
		if r == ir.NoValue {
			return true
		}
		in := &cs.k.Ops[r]
		switch in.Kind {
		case ir.OpConst, ir.OpParam, ir.OpIndex:
			return true
		case ir.OpLoad:
			return cs.plan.Claimed[r] == s
		case ir.OpBin, ir.OpSelect, ir.OpConvert:
			return true // will be pulled into the closure or reject later
		default:
			return false
		}
	}
	return check(op.A) && check(op.B) && check(op.Cond)
}

// streamBySid finds a live stream by sid.
func (cs *compileState) streamBySid(sid int) *Stream {
	for _, s := range cs.plan.Streams {
		if s.Sid == sid {
			return s
		}
	}
	return nil
}

// analyzeDecoupling implements the §V fully-decoupled-loop check: under
// the s_sync_free pragma, when every innermost-level op is absorbed by
// streams (or is configuration) and the inner trip count is configurable
// from outer streams, the inner loop disappears from the core.
func (cs *compileState) analyzeDecoupling() {
	k := cs.k
	if !k.SyncFree {
		return
	}
	inner := len(k.Loops) - 1
	for i := range k.Ops {
		op := &k.Ops[i]
		if op.Level != inner {
			continue
		}
		if op.Kind == ir.OpConst || op.Kind == ir.OpParam {
			continue
		}
		if _, claimed := cs.plan.Claimed[ir.ValueRef(i)]; !claimed {
			return
		}
	}
	if inner > 0 {
		l := &k.Loops[inner]
		if l.While {
			// Chase loops: the chase stream subsumes the loop when its
			// plumbing (next/continue) is claimed.
			for _, r := range []ir.ValueRef{l.NextVal, l.ContinueVal} {
				if _, claimed := cs.plan.Claimed[r]; !claimed {
					if op := &k.Ops[r]; op.Kind != ir.OpConst && op.Kind != ir.OpParam {
						return
					}
				}
			}
		} else if l.TripVal != ir.NoValue && !cs.isOuterValue(l.TripVal, inner) {
			return
		}
	}
	cs.plan.FullyDecoupled = true
}
