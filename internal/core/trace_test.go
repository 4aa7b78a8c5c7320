package core

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/compiler"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// nestedKernel is a four-level nest carrying loads, stores, atomics and
// non-memory ops, with every shape the replay walks:
//
//	for i < rows:             R[i] = i
//	  for j < cols:           v = A[i][j]; B[i][j] = v; hist[v&15]++
//	    for t < v&3:          (trip count from a level-1 value: zero when 4 | v)
//	      p = heads[(v+t)&7]
//	      while p != 0:       sum += p.val; p = p.next   (nil heads: zero trips)
//	    C[i][j] = v + 1       (level-1 epilogue)
//	  S[i] = i + 1            (level-0 epilogue)
//
// fillNested gives it data.
func nestedKernel(rows, cols uint64) *ir.Kernel {
	b := ir.NewKernel("nested").
		Array("A", ir.I64, rows*cols).Array("B", ir.I64, rows*cols).
		Array("C", ir.I64, rows*cols).Array("hist", ir.I64, 16).
		Array("R", ir.I64, rows).Array("S", ir.I64, rows).
		Array("heads", ir.I64, nestedLists).Array("nodes", ir.I64, 2*nestedNodes)
	b.Loop("i", rows)
	row := b.Index(0)
	rowAddr := ir.AffineAddr("R", 0, map[int]int64{0: 1})
	b.Store(ir.I64, rowAddr, row)
	b.Loop("j", cols)
	cell := map[int]int64{0: int64(cols), 1: 1}
	v := b.Load(ir.I64, ir.AffineAddr("A", 0, cell))
	b.Store(ir.I64, ir.AffineAddr("B", 0, cell), v)
	key := b.Bin(ir.I64, ir.And, v, b.Const(ir.I64, 15))
	one := b.Const(ir.I64, 1)
	b.Atomic(ir.I64, ir.AtomicAdd, ir.IndirectAddr("hist", key), one)
	b.LoopVal("t", b.Bin(ir.I64, ir.And, v, b.Const(ir.I64, 3)))
	list := b.Bin(ir.I64, ir.And, b.Bin(ir.I64, ir.Add, v, b.Index(2)), b.Const(ir.I64, nestedLists-1))
	head := b.Load(ir.I64, ir.IndirectAddr("heads", list))
	b.While("p", head)
	ptr := b.Chase()
	b.Reduce(ir.I64, ir.Add, "sum", b.Load(ir.I64, ir.PointerAddr("nodes", ptr, 0)), -1, 0)
	b.SetNext(b.Load(ir.I64, ir.PointerAddr("nodes", ptr, 8)))
	b.SetContinue(b.Const(ir.I64, 1))
	b.AtLevel(1)
	b.Store(ir.I64, ir.AffineAddr("C", 0, cell), b.Bin(ir.I64, ir.Add, v, one))
	b.AtLevel(0)
	b.Store(ir.I64, ir.AffineAddr("S", 0, map[int]int64{0: 1}), b.Bin(ir.I64, ir.Add, row, b.Const(ir.I64, 1)))
	return b.Build()
}

// nestedKernel's linked lists: nestedLists heads over nestedNodes
// two-word nodes.
const nestedLists, nestedNodes = 8, 32

// fillNested gives nestedKernel's A sequential values and its lists
// chains of 1 to 4 nodes; every fourth head is nil.
func fillNested(d *ir.Data, rows, cols uint64) {
	fillSeq(d, "A", rows*cols)
	nd, hd := d.Array("nodes"), d.Array("heads")
	for l := uint64(0); l < nestedLists; l++ {
		if l%4 == 3 {
			continue
		}
		first := l * 4
		for n := first; n <= first+l%4; n++ {
			nd.Set(2*n, n)
			if n < first+l%4 {
				nd.Set(2*n+1, nd.AddrOf(2*(n+1)))
			}
		}
		hd.Set(l, nd.AddrOf(2*first))
	}
}

// decodedEntry is the part of a trace entry micro-op emission reads.
type decodedEntry struct {
	kind  entryKind
	id    ir.ValueRef
	pa    uint64
	write bool
}

// replayCase is one kernel to trace over some of its partitions.
// newData builds the kernel's initialized data on a machine; it is called
// once per machine, so both interpretations start from the same bytes.
type replayCase struct {
	name    string
	k       *ir.Kernel
	params  map[string]uint64
	newData func(m *machine.Machine) *ir.Data
	parts   [][2]uint64
}

// recordEntries interprets c's partitions in turn on a fresh machine and
// returns, per partition, the (kind, id, pa, write) sequence recorded
// straight from the interpreter's hooks.
func recordEntries(t *testing.T, c replayCase) [][]decodedEntry {
	t.Helper()
	m := machine.New(machine.CI())
	d := c.newData(m)
	out := make([][]decodedEntry, len(c.parts))
	for i, part := range c.parts {
		var want []decodedEntry
		hooks := &ir.Hooks{
			OnIter: func(int, uint64) { want = append(want, decodedEntry{kind: entIter}) },
			OnOp: func(id ir.ValueRef, op *ir.Op) {
				if op.Kind == ir.OpLoad || op.Kind == ir.OpStore || op.Kind == ir.OpAtomic {
					return
				}
				want = append(want, decodedEntry{kind: entOp, id: id})
			},
			OnMem: func(ev ir.MemEvent) {
				want = append(want, decodedEntry{kind: entOp, id: ev.OpID, pa: m.Translate(ev.Addr), write: ev.Write})
			},
		}
		if _, err := ir.Exec(c.k, d, c.params, part[0], part[1], hooks); err != nil {
			t.Fatal(err)
		}
		out[i] = want
	}
	return out
}

// replayTraces builds c's traces with GenTrace on another fresh machine,
// partitions in the same order, and replays each as the core does. It
// fails unless every address, stream element and trip count is consumed
// exactly once and every buffer is sized exactly to its entries.
func replayTraces(t *testing.T, c replayCase, plan *compiler.Plan) ([][]decodedEntry, []*Trace) {
	t.Helper()
	m := machine.New(machine.CI())
	d := c.newData(m)
	body := replayBody(c.k)
	var tb TraceBuilder
	var got [][]decodedEntry
	var traces []*Trace
	for _, part := range c.parts {
		tr, err := GenTrace(&tb, m, c.k, plan, c.params, d, part[0], part[1])
		if err != nil {
			t.Fatal(err)
		}
		cr := &coreRun{trace: tr, k: c.k, plan: plan}
		cr.startReplay(body)
		var entries []decodedEntry
		for ent := cr.decode(); ent != nil; ent = cr.decode() {
			entries = append(entries, decodedEntry{kind: ent.kind, id: ent.id, pa: ent.pa, write: ent.write})
		}
		if cr.decode() != nil {
			t.Fatalf("%s %v: the replay restarted after its end", c.name, part)
		}
		if cr.tripCursor != len(tr.Trips) || cr.addrCursor != len(tr.Addrs) {
			t.Fatalf("%s %v: consumed %d of %d trip counts and %d of %d addresses",
				c.name, part, cr.tripCursor, len(tr.Trips), cr.addrCursor, len(tr.Addrs))
		}
		nsid := 0
		if plan != nil {
			nsid = plan.Sids
		}
		if len(tr.StreamElems) != nsid {
			t.Fatalf("%s: %d stream element lists, plan has %d sids", c.name, len(tr.StreamElems), nsid)
		}
		for sid, es := range tr.StreamElems {
			if cr.elemCursor[sid] != len(es) {
				t.Fatalf("%s %v: consumed %d of stream %d's %d elements", c.name, part, cr.elemCursor[sid], sid, len(es))
			}
			if cap(es) != len(es) {
				t.Errorf("%s: StreamElems[%d] len %d cap %d; want cap == len", c.name, sid, len(es), cap(es))
			}
		}
		if cap(tr.Trips) != len(tr.Trips) || cap(tr.Addrs) != len(tr.Addrs) {
			t.Errorf("%s: Trips len %d cap %d, Addrs len %d cap %d; want cap == len",
				c.name, len(tr.Trips), cap(tr.Trips), len(tr.Addrs), cap(tr.Addrs))
		}
		got = append(got, entries)
		traces = append(traces, tr)
	}
	return got, traces
}

// checkReplay fails unless the core's replay of c's traces yields exactly
// the entries the interpreter's hooks record, and returns the traces.
func checkReplay(t *testing.T, c replayCase, plan *compiler.Plan) []*Trace {
	t.Helper()
	want := recordEntries(t, c)
	got, traces := replayTraces(t, c, plan)
	for p := range want {
		if len(got[p]) != len(want[p]) {
			t.Fatalf("%s %v: replayed %d entries, recorded %d", c.name, c.parts[p], len(got[p]), len(want[p]))
		}
		for i := range want[p] {
			if got[p][i] != want[p][i] {
				t.Fatalf("%s %v: entry %d: replayed %+v, recorded %+v", c.name, c.parts[p], i, got[p][i], want[p][i])
			}
		}
	}
	return traces
}

// TestTraceReplayMatchesInterpreter pins the trace's encoding: the (kind,
// id, pa, write) sequence the core replays from a trace's trip counts,
// addresses and stream elements must be exactly what the interpreter's
// hooks record, over core 0's and the last core's partitions of every
// workload at CI scale under its stream plan, and over nestedKernel with
// and without a plan.
func TestTraceReplayMatchesInterpreter(t *testing.T) {
	t.Run("nested", func(t *testing.T) {
		const rows, cols = 6, 40
		k := nestedKernel(rows, cols)
		c := replayCase{
			name: k.Name, k: k, parts: [][2]uint64{{0, 1}, {1, rows}},
			newData: func(m *machine.Machine) *ir.Data {
				d := setupData(m, k)
				fillNested(d, rows, cols)
				return d
			},
		}
		plan, err := compiler.Compile(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*compiler.Plan{plan, nil} {
			traces := checkReplay(t, c, p)
			// The nest must reach every shape: zero-trip LoopVal and While
			// instances, and stream elements under the plan.
			tr := traces[1]
			zeros := 0
			for _, n := range tr.Trips {
				if n == 0 {
					zeros++
				}
			}
			if zeros == 0 {
				t.Fatalf("no zero-trip loop instance in %d trip counts", len(tr.Trips))
			}
			if p != nil {
				n := 0
				for _, es := range tr.StreamElems {
					n += len(es)
				}
				if n == 0 {
					t.Fatal("the plan's streams recorded no elements")
				}
			}
		}
	})
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			w := workloads.Get(name, workloads.ScaleCI)
			plan, err := compiler.Compile(w.Kernel)
			if err != nil {
				t.Fatal(err)
			}
			total, err := OuterTrip(w.Kernel, w.Params)
			if err != nil {
				t.Fatal(err)
			}
			cores := machine.New(machine.CI()).Tiles()
			if uint64(cores) > total {
				cores = int(total)
			}
			parts := Partition(total, cores)
			checkReplay(t, replayCase{
				name: name, k: w.Kernel, params: w.Params,
				parts:   [][2]uint64{parts[0], parts[cores-1]},
				newData: func(m *machine.Machine) *ir.Data { return w.NewData(m.AS, 1) },
			}, plan)
		})
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
	fillNested(d, rows, cols)
	plan, err := compiler.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	var tb TraceBuilder
	first, err := GenTrace(&tb, m, k, plan, nil, d, 0, rows/2)
	if err != nil {
		t.Fatal(err)
	}
	trips, addrs := slices.Clone(first.Trips), slices.Clone(first.Addrs)
	elems := make([][]streamElem, len(first.StreamElems))
	for sid, es := range first.StreamElems {
		elems[sid] = slices.Clone(es)
	}

	second, err := GenTrace(&tb, m, k, plan, nil, d, rows/2, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) == 0 || slices.EqualFunc(second.StreamElems, elems, slices.Equal) {
		t.Fatal("no addresses, or both partitions produced the same stream elements; the check below would prove nothing")
	}
	// Trip counts and the chase's addresses repeat row to row, so a
	// second trace alone cannot show they are shared; overwrite the
	// builder's whole capacity as well.
	fill(tb.trips[:cap(tb.trips)], ^uint32(0))
	fill(tb.addrs[:cap(tb.addrs)], ^uint64(0))
	for _, es := range tb.elems {
		fill(es[:cap(es)], streamElem{pa: ^uint64(0)})
	}
	if !slices.Equal(first.Trips, trips) || !slices.Equal(first.Addrs, addrs) {
		t.Fatal("reusing the builder rewrote the first trace's trip counts or addresses")
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
// (trip counts, addresses and stream elements) per dynamic entry, the
// entries counted by replaying the trace as the core does.
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
	var tr *Trace
	var tb TraceBuilder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err = GenTrace(&tb, m, w.Kernel, plan, w.Params, d, part[0], part[1])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cr := &coreRun{trace: tr, k: w.Kernel, plan: plan}
	cr.startReplay(replayBody(w.Kernel))
	entries := 0
	for cr.decode() != nil {
		entries++
	}
	bytes := len(tr.Trips)*int(unsafe.Sizeof(uint32(0))) + len(tr.Addrs)*int(unsafe.Sizeof(uint64(0)))
	for _, es := range tr.StreamElems {
		bytes += len(es) * int(unsafe.Sizeof(streamElem{}))
	}
	b.ReportMetric(float64(bytes)/float64(entries), "B/entry")
}
