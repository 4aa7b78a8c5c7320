package core

import (
	"fmt"
	"math"

	"repro/internal/compiler"
	"repro/internal/ir"
	"repro/internal/machine"
)

// entryKind discriminates trace entries.
type entryKind uint8

const (
	entOp entryKind = iota
	entIter
)

// traceEntry is one dynamic event from the functional interpretation of a
// kernel partition, as the core's replay of the trace yields it (see
// coreRun.decode). Only what micro-op emission reads is kept.
type traceEntry struct {
	kind  entryKind
	write bool        // entOp with a memory kind: a store or writing atomic
	id    ir.ValueRef // entOp
	pa    uint64      // entOp with a memory kind
}

// Trace is a per-core dynamic trace: the functional execution is
// timing-independent (kernels are data-race free, §IV-B), so one trace
// drives every system variant. Run builds every core's trace before
// simulating and keeps them live until the run ends, so trace bytes set
// the simulator's live heap. A trace therefore stores only what cannot
// be recomputed: the IR has no conditional execution, so the op sequence
// follows from the kernel (ir.Kernel.LevelOps) and each loop instance's
// trip count, and the core replays it (coreRun.decode). What remains is
// one 4-byte count per loop instance and one 8-byte physical address per
// memory access, each stored once.
type Trace struct {
	// Trips holds the iteration count of every loop instance in the
	// order the instances are entered: level 0's instance first, then
	// each nested instance as it starts, zero-trip instances included.
	Trips []uint32
	// Addrs holds, in program order, the physical address of every
	// memory access that is not a stream's primary access; those are in
	// StreamElems.
	Addrs []uint64
	// DynOps counts dynamic ops by compiler category.
	DynOps [compiler.CatConfig + 1]uint64
	// StreamElems[sid] is the ordered element list of each stream, for
	// every sid below the plan's Sids (all empty without a plan).
	StreamElems [][]streamElem
	// Accs carries the functional reduction results.
	Accs map[string]uint64
}

// streamElem is one dynamic element of a stream. The field order packs it
// into 16 bytes.
type streamElem struct {
	pa      uint64
	chain   uint32 // instance id of the stream's loop level (chases)
	size    uint8
	changed bool // atomics: whether the value changed (MRSW)
}

// TraceBuilder holds the growable buffers GenTrace interprets a partition
// into. Run keeps one per job and passes it to GenTrace for each core in
// turn; GenTrace hands back exact-length copies, so the builder's
// capacity peaks at one core's trace (about 1/64 of a job's on the
// 64-tile mesh) and every Trace holds exactly its own entries. Reuse is
// what keeps geometric regrowth from nil (growslice memmove) out of the
// interpreter's wall-clock. The zero value is ready to use.
type TraceBuilder struct {
	trips []uint32
	addrs []uint64
	elems [][]streamElem // per sid
}

// exactCopy returns s copied into a slice with cap == len, nil when s is
// empty, so a Trace neither shares nor pins the builder's arrays.
func exactCopy[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	c := make([]T, len(s))
	copy(c, s)
	return c
}

// primaryStream returns the stream whose element list holds op id's
// address — the stream's primary access — or nil when Addrs holds it.
func primaryStream(p *compiler.Plan, id ir.ValueRef) *compiler.Stream {
	if p == nil {
		return nil
	}
	if s := p.StreamOf(id); s != nil && s.AccessOp == id {
		return s
	}
	return nil
}

// GenTrace interprets kernel k over [outerLo, outerHi) with plan p,
// producing the core's trace. The machine supplies address translation.
// The entries are recorded in b's buffers, which the returned Trace does
// not share: b may build the next trace straight away.
func GenTrace(b *TraceBuilder, m *machine.Machine, k *ir.Kernel, p *compiler.Plan, params map[string]uint64, d *ir.Data, outerLo, outerHi uint64) (*Trace, error) {
	nsid := 0
	if p != nil {
		nsid = p.Sids
	}
	for len(b.elems) < nsid {
		b.elems = append(b.elems, nil)
	}
	b.trips, b.addrs = b.trips[:0], b.addrs[:0]
	elems := b.elems[:nsid]
	for sid := range elems {
		elems[sid] = elems[sid][:0]
	}
	// Classification is static per op: resolve it once up front into
	// dense tables instead of map lookups per dynamic instruction, and
	// count dynamic ops in a small array (the category space is tiny).
	classes := make([]compiler.Category, len(k.Ops))
	for i := range k.Ops {
		id := ir.ValueRef(i)
		if p == nil {
			op := &k.Ops[id]
			if op.Kind == ir.OpConst || op.Kind == ir.OpParam {
				classes[i] = compiler.CatConfig
			} else {
				classes[i] = compiler.CatCore
			}
			continue
		}
		classes[i] = p.ClassOf(id)
	}
	var dynOps [compiler.CatConfig + 1]uint64
	// instances[L] counts how many times loop level L has been entered
	// (distinct dynamic instances — chains for while loops); open[L] is
	// the Trips slot of level L's running instance. Level 0's one
	// instance takes the first slot, and each iteration of level L opens
	// the slot of the level L+1 instance it runs.
	instances := make([]uint32, len(k.Loops))
	open := make([]int, len(k.Loops))
	b.trips = append(b.trips, 0)
	wrapped := false
	hooks := &ir.Hooks{
		OnIter: func(level int, idx uint64) {
			if idx == 0 {
				instances[level]++
			}
			b.trips[open[level]]++
			wrapped = wrapped || b.trips[open[level]] == 0
			if level+1 < len(open) {
				open[level+1] = len(b.trips)
				b.trips = append(b.trips, 0)
			}
		},
		OnOp: func(id ir.ValueRef, op *ir.Op) {
			dynOps[classes[id]]++
		},
		OnMem: func(ev ir.MemEvent) {
			pa := m.Translate(ev.Addr)
			// One stream element per iteration, recorded at the primary
			// access: chase field loads and the store half of merged RMW
			// streams share the primary's element. Its address is stored
			// there only.
			s := primaryStream(p, ev.OpID)
			if s == nil {
				b.addrs = append(b.addrs, pa)
				return
			}
			changed := ev.Changed
			if s.MergedStore != ir.NoValue {
				changed = true // the merged store will modify the line
			}
			elems[s.Sid] = append(elems[s.Sid], streamElem{
				pa: pa, chain: instances[s.Level], size: uint8(ev.Size),
				changed: changed,
			})
		},
	}
	accs, err := ir.Exec(k, d, params, outerLo, outerHi, hooks)
	if err != nil {
		return nil, fmt.Errorf("core: trace generation: %w", err)
	}
	if wrapped {
		return nil, fmt.Errorf("core: trace generation: kernel %q has a loop instance of more than %d iterations", k.Name, uint32(math.MaxUint32))
	}
	tr := &Trace{Trips: exactCopy(b.trips)}
	tr.Addrs = exactCopy(b.addrs)
	tr.DynOps = dynOps
	tr.StreamElems = make([][]streamElem, nsid)
	tr.Accs = accs
	// Every stream's elements share one exact-size array; each list is
	// capped at its own length.
	total := 0
	for _, es := range elems {
		total += len(es)
	}
	all := make([]streamElem, 0, total)
	for sid, es := range elems {
		if len(es) > 0 {
			all = append(all, es...)
			tr.StreamElems[sid] = all[len(all)-len(es) : len(all) : len(all)]
		}
	}
	return tr, nil
}

// Partition splits [0, total) into per-core contiguous chunks (OpenMP
// static scheduling).
func Partition(total uint64, cores int) [][2]uint64 {
	out := make([][2]uint64, cores)
	chunk := total / uint64(cores)
	rem := total % uint64(cores)
	var lo uint64
	for c := 0; c < cores; c++ {
		hi := lo + chunk
		if uint64(c) < rem {
			hi++
		}
		out[c] = [2]uint64{lo, hi}
		lo = hi
	}
	return out
}
