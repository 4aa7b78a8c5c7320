package core

import (
	"fmt"

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
// kernel partition, decoded from its packed trace word (see Trace). Only
// what micro-op emission reads survives the packing.
type traceEntry struct {
	kind  entryKind
	write bool        // entOp with a memory kind: a store or writing atomic
	id    ir.ValueRef // entOp
	pa    uint64      // entOp with a memory kind
}

// Trace word layout: an op entry is id<<wordIDShift | wordMem | wordWrite,
// where wordMem marks an entry that owns the next Addrs slot. A write is
// always a memory access, so the write bit alone (iterWord) is free to
// mark the start of a loop iteration.
const (
	wordWrite   uint32 = 1 << 0
	wordMem     uint32 = 1 << 1
	wordIDShift        = 2
	iterWord           = wordWrite
	// maxTraceOps bounds a kernel's op count so every ValueRef fits the
	// word's id field.
	maxTraceOps = 1 << (32 - wordIDShift)
)

// Trace is a per-core dynamic trace: the functional execution is
// timing-independent (kernels are data-race free, §IV-B), so one trace
// drives every system variant. Run builds every core's trace before
// simulating and keeps them live until the run ends, so trace bytes set
// the simulator's live heap; the encoding is therefore packed: one 4-byte
// word per dynamic entry plus one 8-byte physical address per memory
// entry.
type Trace struct {
	// Words holds one word per dynamic entry, in program order.
	Words []uint32
	// Addrs holds the physical address of each memory entry, in the order
	// of the wordMem words that own them.
	Addrs []uint64
	// DynOps counts dynamic ops by compiler category.
	DynOps [compiler.CatConfig + 1]uint64
	// StreamElems[sid] is the ordered element list of each stream, for
	// every sid below the plan's Sids (all empty without a plan).
	StreamElems [][]streamElem
	// Iters is the number of innermost iterations.
	Iters uint64
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
	words []uint32
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

// checkTraceOps reports a kernel with more ops than a trace word can name.
func checkTraceOps(name string, nops int) error {
	if nops > maxTraceOps {
		return fmt.Errorf("core: kernel %q has %d ops; trace words address at most %d", name, nops, maxTraceOps)
	}
	return nil
}

// GenTrace interprets kernel k over [outerLo, outerHi) with plan p,
// producing the core's trace. The machine supplies address translation.
// The entries are recorded in b's buffers, which the returned Trace does
// not share: b may build the next trace straight away.
func GenTrace(b *TraceBuilder, m *machine.Machine, k *ir.Kernel, p *compiler.Plan, params map[string]uint64, d *ir.Data, outerLo, outerHi uint64) (*Trace, error) {
	if err := checkTraceOps(k.Name, len(k.Ops)); err != nil {
		return nil, err
	}
	nsid := 0
	if p != nil {
		nsid = p.Sids
	}
	for len(b.elems) < nsid {
		b.elems = append(b.elems, nil)
	}
	b.words, b.addrs = b.words[:0], b.addrs[:0]
	elems := b.elems[:nsid]
	for sid := range elems {
		elems[sid] = elems[sid][:0]
	}
	tr := &Trace{}
	innermost := len(k.Loops) - 1
	// Classification is static per op: resolve it once up front into
	// dense tables instead of map lookups per dynamic instruction, and
	// count dynamic ops in a small array (the category space is tiny).
	classes := make([]compiler.Category, len(k.Ops))
	streams := make([]*compiler.Stream, len(k.Ops))
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
		streams[i] = p.StreamOf(id)
	}
	var dynOps [compiler.CatConfig + 1]uint64
	// instances[L] counts how many times loop level L has been entered
	// (distinct dynamic instances — chains for while loops).
	instances := make([]uint32, len(k.Loops))
	hooks := &ir.Hooks{
		OnIter: func(level int, idx uint64) {
			if idx == 0 {
				instances[level]++
			}
			if level == innermost {
				tr.Iters++
			}
			b.words = append(b.words, iterWord)
		},
		OnOp: func(id ir.ValueRef, op *ir.Op) {
			if op.Kind == ir.OpLoad || op.Kind == ir.OpStore || op.Kind == ir.OpAtomic {
				return // recorded by OnMem with the address attached
			}
			dynOps[classes[id]]++
			b.words = append(b.words, uint32(id)<<wordIDShift)
		},
		OnMem: func(ev ir.MemEvent) {
			dynOps[classes[ev.OpID]]++
			pa := m.Translate(ev.Addr)
			w := uint32(ev.OpID)<<wordIDShift | wordMem
			if ev.Write {
				w |= wordWrite
			}
			b.words = append(b.words, w)
			b.addrs = append(b.addrs, pa)
			// One stream element per iteration, recorded at the primary
			// access: chase field loads and the store half of merged RMW
			// streams share the primary's element.
			if s := streams[ev.OpID]; s != nil && ev.OpID == s.AccessOp {
				changed := ev.Changed
				if s.MergedStore != ir.NoValue {
					changed = true // the merged store will modify the line
				}
				elems[s.Sid] = append(elems[s.Sid], streamElem{
					pa: pa, chain: instances[s.Level], size: uint8(ev.Size),
					changed: changed,
				})
			}
		},
	}
	accs, err := ir.Exec(k, d, params, outerLo, outerHi, hooks)
	if err != nil {
		return nil, fmt.Errorf("core: trace generation: %w", err)
	}
	tr.Words = exactCopy(b.words)
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
