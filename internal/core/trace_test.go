package core

import (
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/compiler"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// nestedKernel: for i, for j: v = A[i][j]; B[i][j] = v; hist[v&15]++,
// plus a per-row store at the outer level — nested loops carrying loads,
// stores, atomics and non-memory ops at both levels.
func nestedKernel(rows, cols uint64) *ir.Kernel {
	b := ir.NewKernel("nested").
		Array("A", ir.I64, rows*cols).Array("B", ir.I64, rows*cols).
		Array("hist", ir.I64, 16).Array("R", ir.I64, rows)
	b.Loop("i", rows)
	row := b.Index(0)
	b.Store(ir.I64, ir.AffineAddr("R", 0, map[int]int64{0: 1}), row)
	b.Loop("j", cols)
	cell := map[int]int64{0: int64(cols), 1: 1}
	v := b.Load(ir.I64, ir.AffineAddr("A", 0, cell))
	b.Store(ir.I64, ir.AffineAddr("B", 0, cell), v)
	key := b.Bin(ir.I64, ir.And, v, b.Const(ir.I64, 15))
	b.Atomic(ir.I64, ir.AtomicAdd, ir.IndirectAddr("hist", key), b.Const(ir.I64, 1))
	return b.Build()
}

// decodedEntry is the part of a trace entry micro-op emission reads.
type decodedEntry struct {
	kind  entryKind
	id    ir.ValueRef
	pa    uint64
	write bool
}

// TestTraceEncodingRoundTrip pins the packed encoding: the (kind, id, pa,
// write) sequence recorded straight from the interpreter's hooks must be
// exactly what coreSource decodes from the trace words and addresses,
// with every address consumed. Every buffer the trace holds is sized
// exactly to its entries: traces live for the whole run.
func TestTraceEncodingRoundTrip(t *testing.T) {
	const rows, cols = 6, 40
	k := nestedKernel(rows, cols)
	m := machine.New(machine.CI())
	d := setupData(m, k)
	fillSeq(d, "A", rows*cols)
	plan, err := compiler.Compile(k)
	if err != nil {
		t.Fatal(err)
	}

	var want []decodedEntry
	var writes, atomics int
	hooks := &ir.Hooks{
		OnIter: func(int, uint64) { want = append(want, decodedEntry{kind: entIter}) },
		OnOp: func(id ir.ValueRef, op *ir.Op) {
			if op.Kind == ir.OpLoad || op.Kind == ir.OpStore || op.Kind == ir.OpAtomic {
				return
			}
			want = append(want, decodedEntry{kind: entOp, id: id})
		},
		OnMem: func(ev ir.MemEvent) {
			if ev.Write {
				writes++
			}
			if ev.Atomic {
				atomics++
			}
			want = append(want, decodedEntry{kind: entOp, id: ev.OpID, pa: m.Translate(ev.Addr), write: ev.Write})
		},
	}
	if _, err := ir.Exec(k, d, nil, 1, rows, hooks); err != nil {
		t.Fatal(err)
	}
	if writes == 0 || atomics == 0 {
		t.Fatalf("kernel exercised %d writes, %d atomics; want both", writes, atomics)
	}

	var tb TraceBuilder
	tr, err := GenTrace(&tb, m, k, plan, nil, d, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	cr := &coreRun{trace: tr}
	var got []decodedEntry
	for cr.cursor < len(tr.Words) {
		ent := cr.decode()
		got = append(got, decodedEntry{kind: ent.kind, id: ent.id, pa: ent.pa, write: ent.write})
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d entries, recorded %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: decoded %+v, recorded %+v", i, got[i], want[i])
		}
	}
	if cr.addrCursor != len(tr.Addrs) {
		t.Fatalf("consumed %d of %d addresses", cr.addrCursor, len(tr.Addrs))
	}
	if len(tr.Words) != len(want) {
		t.Fatalf("%d words for %d entries", len(tr.Words), len(want))
	}

	if cap(tr.Words) != len(tr.Words) || cap(tr.Addrs) != len(tr.Addrs) {
		t.Errorf("Words len %d cap %d, Addrs len %d cap %d; want cap == len",
			len(tr.Words), cap(tr.Words), len(tr.Addrs), cap(tr.Addrs))
	}
	if len(tr.StreamElems) != plan.Sids {
		t.Fatalf("%d stream element lists, plan has %d sids", len(tr.StreamElems), plan.Sids)
	}
	nelems := 0
	for sid, es := range tr.StreamElems {
		nelems += len(es)
		if cap(es) != len(es) {
			t.Errorf("StreamElems[%d] len %d cap %d; want cap == len", sid, len(es), cap(es))
		}
	}
	if nelems == 0 {
		t.Fatal("the plan's streams recorded no elements")
	}
}

// TestGenTraceCopiesOutOfBuilder: a trace shares nothing with the builder
// that made it, so building the next core's trace on the same builder —
// or scribbling over every byte the builder holds — leaves the first one
// as it was.
func TestGenTraceCopiesOutOfBuilder(t *testing.T) {
	const rows, cols = 6, 40
	k := nestedKernel(rows, cols)
	m := machine.New(machine.CI())
	d := setupData(m, k)
	fillSeq(d, "A", rows*cols)
	plan, err := compiler.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	var tb TraceBuilder
	first, err := GenTrace(&tb, m, k, plan, nil, d, 0, rows/2)
	if err != nil {
		t.Fatal(err)
	}
	words, addrs := slices.Clone(first.Words), slices.Clone(first.Addrs)
	elems := make([][]streamElem, len(first.StreamElems))
	for sid, es := range first.StreamElems {
		elems[sid] = slices.Clone(es)
	}

	second, err := GenTrace(&tb, m, k, plan, nil, d, rows/2, rows)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(second.Addrs, addrs) {
		t.Fatal("both partitions produced the same addresses; the check below would prove nothing")
	}
	// Words repeat row to row, so a second trace alone cannot show they
	// are shared; overwrite the builder's whole capacity as well.
	fill(tb.words[:cap(tb.words)], ^uint32(0))
	fill(tb.addrs[:cap(tb.addrs)], ^uint64(0))
	for _, es := range tb.elems {
		fill(es[:cap(es)], streamElem{pa: ^uint64(0)})
	}
	if !slices.Equal(first.Words, words) || !slices.Equal(first.Addrs, addrs) {
		t.Fatal("reusing the builder rewrote the first trace's words or addresses")
	}
	for sid := range elems {
		if !slices.Equal(first.StreamElems[sid], elems[sid]) {
			t.Fatalf("reusing the builder rewrote the first trace's stream %d elements", sid)
		}
	}
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// TestTraceWordIDLimit: the largest op id a word names decodes intact next
// to the iteration marker, and a kernel with more ops is refused by name.
func TestTraceWordIDLimit(t *testing.T) {
	top := ir.ValueRef(maxTraceOps - 1)
	tr := &Trace{
		Words: []uint32{uint32(top)<<wordIDShift | wordMem | wordWrite, iterWord, 0},
		Addrs: []uint64{0xdead0},
	}
	cr := &coreRun{trace: tr}
	want := []decodedEntry{
		{kind: entOp, id: top, pa: 0xdead0, write: true},
		{kind: entIter},
		{kind: entOp, id: 0},
	}
	for i, w := range want {
		ent := cr.decode()
		if got := (decodedEntry{kind: ent.kind, id: ent.id, pa: ent.pa, write: ent.write}); got != w {
			t.Fatalf("entry %d: %+v, want %+v", i, got, w)
		}
	}

	if err := checkTraceOps("fits", maxTraceOps); err != nil {
		t.Fatalf("%d ops refused: %v", maxTraceOps, err)
	}
	err := checkTraceOps("huge", maxTraceOps+1)
	if err == nil || !strings.Contains(err.Error(), `"huge"`) {
		t.Fatalf("err = %v, want an error naming the kernel", err)
	}
}

// TestStreamElemSize guards the packed stream-element layout: every
// stream's element list lives for the whole run.
func TestStreamElemSize(t *testing.T) {
	if got := unsafe.Sizeof(streamElem{}); got != 16 {
		t.Fatalf("sizeof(streamElem) = %d, want 16", got)
	}
}

// BenchmarkGenTrace interprets core 0's partition of the CI-scale
// histogram kernel under its stream plan, reusing one builder across
// iterations as Run does across cores. B/entry is the trace's footprint
// (words, addresses and stream elements) per dynamic entry.
func BenchmarkGenTrace(b *testing.B) {
	w := workloads.Get("histogram", workloads.ScaleCI)
	m := machine.New(machine.CI())
	d := setupData(m, w.Kernel)
	w.Init(d, sim.NewRand(1))
	plan, err := compiler.Compile(w.Kernel)
	if err != nil {
		b.Fatal(err)
	}
	total, err := OuterTrip(w.Kernel, w.Params)
	if err != nil {
		b.Fatal(err)
	}
	part := Partition(total, m.Tiles())[0]
	var entries, bytes int
	var tb TraceBuilder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := GenTrace(&tb, m, w.Kernel, plan, w.Params, d, part[0], part[1])
		if err != nil {
			b.Fatal(err)
		}
		entries = len(tr.Words)
		bytes = len(tr.Words)*int(unsafe.Sizeof(uint32(0))) + len(tr.Addrs)*int(unsafe.Sizeof(uint64(0)))
		for _, es := range tr.StreamElems {
			bytes += len(es) * int(unsafe.Sizeof(streamElem{}))
		}
	}
	b.ReportMetric(float64(bytes)/float64(entries), "B/entry")
}
