package core

import (
	"fmt"
	"sync"

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
	DynOps map[compiler.Category]uint64
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

// tracePool recycles Trace objects across runs. A paper-scale kernel's
// word, address and stream-element buffers reach tens of millions of
// elements; regrowing them geometrically from nil dominated the
// interpreter's wall-clock (growslice memmove), so reuse keeps the warmed
// capacity. What the pool retains is the packed buffers of the runs in
// flight, released after two GC cycles without use. Every lookup into
// StreamElems is by sid, so stale lists left truncated to length 0 by
// getTrace are indistinguishable from empty ones.
var tracePool = sync.Pool{New: func() any {
	return &Trace{DynOps: map[compiler.Category]uint64{}}
}}

// getTrace checks a cleared Trace out of the pool. Accs is never reused:
// it escapes into the RunResult.
func getTrace() *Trace {
	tr := tracePool.Get().(*Trace)
	tr.Words = tr.Words[:0]
	tr.Addrs = tr.Addrs[:0]
	clear(tr.DynOps)
	for sid, s := range tr.StreamElems {
		tr.StreamElems[sid] = s[:0]
	}
	tr.Iters = 0
	tr.Accs = nil
	return tr
}

// putTrace returns a trace whose buffers are no longer referenced —
// callers must not hold on to Words, Addrs or StreamElems slices past
// this.
func putTrace(tr *Trace) { tracePool.Put(tr) }

// checkTraceOps reports a kernel with more ops than a trace word can name.
func checkTraceOps(name string, nops int) error {
	if nops > maxTraceOps {
		return fmt.Errorf("core: kernel %q has %d ops; trace words address at most %d", name, nops, maxTraceOps)
	}
	return nil
}

// GenTrace interprets kernel k over [outerLo, outerHi) with plan p,
// producing the core's trace. The machine supplies address translation.
func GenTrace(m *machine.Machine, k *ir.Kernel, p *compiler.Plan, params map[string]uint64, d *ir.Data, outerLo, outerHi uint64) (*Trace, error) {
	if err := checkTraceOps(k.Name, len(k.Ops)); err != nil {
		return nil, err
	}
	tr := getTrace()
	if p != nil {
		for len(tr.StreamElems) < p.Sids {
			tr.StreamElems = append(tr.StreamElems, nil)
		}
	}
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
	var dynOps [int(compiler.CatConfig) + 1]uint64
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
			tr.Words = append(tr.Words, iterWord)
		},
		OnOp: func(id ir.ValueRef, op *ir.Op) {
			if op.Kind == ir.OpLoad || op.Kind == ir.OpStore || op.Kind == ir.OpAtomic {
				return // recorded by OnMem with the address attached
			}
			dynOps[classes[id]]++
			tr.Words = append(tr.Words, uint32(id)<<wordIDShift)
		},
		OnMem: func(ev ir.MemEvent) {
			dynOps[classes[ev.OpID]]++
			pa := m.Translate(ev.Addr)
			w := uint32(ev.OpID)<<wordIDShift | wordMem
			if ev.Write {
				w |= wordWrite
			}
			tr.Words = append(tr.Words, w)
			tr.Addrs = append(tr.Addrs, pa)
			// One stream element per iteration, recorded at the primary
			// access: chase field loads and the store half of merged RMW
			// streams share the primary's element.
			if s := streams[ev.OpID]; s != nil && ev.OpID == s.AccessOp {
				changed := ev.Changed
				if s.MergedStore != ir.NoValue {
					changed = true // the merged store will modify the line
				}
				tr.StreamElems[s.Sid] = append(tr.StreamElems[s.Sid], streamElem{
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
	for c, n := range dynOps {
		if n > 0 {
			tr.DynOps[compiler.Category(c)] = n
		}
	}
	tr.Accs = accs
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
