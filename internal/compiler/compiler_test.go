package compiler

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/workloads"
)

func mustCompile(t *testing.T, k *ir.Kernel) *Plan {
	t.Helper()
	p, err := Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func streamsOfCT(p *Plan, ct isa.ComputeType) []*Stream {
	var out []*Stream
	for _, s := range p.Streams {
		if s.CT == ct {
			out = append(out, s)
		}
	}
	return out
}

// --- Affine reduction: acc = Σ A[i] (Figure 4a shape) ---

func TestCompileAffineReduction(t *testing.T) {
	b := ir.NewKernel("sum").Array("A", ir.I64, 1024)
	b.Loop("i", 1024)
	v := b.Load(ir.I64, ir.AffineAddr("A", 0, map[int]int64{0: 1}))
	red := b.Reduce(ir.I64, ir.Add, "acc", v, -1, 0)
	k := b.Build()
	p := mustCompile(t, k)

	loads := streamsOfCT(p, isa.ComputeNone)
	if len(loads) != 1 || loads[0].Kind != isa.KindAffine {
		t.Fatalf("want 1 affine load stream, got %+v", p.Streams)
	}
	reds := streamsOfCT(p, isa.ComputeReduce)
	if len(reds) != 1 {
		t.Fatalf("want 1 reduction stream, got %d", len(reds))
	}
	r := reds[0]
	if r.ScalarOp != isa.OpAdd {
		t.Fatalf("reduce scalar op = %v, want add (SE PE eligible)", r.ScalarOp)
	}
	if len(r.ValueDepSids) != 1 || r.ValueDepSids[0] != loads[0].Sid {
		t.Fatalf("reduce value deps = %v", r.ValueDepSids)
	}
	if p.ClassOf(v) != CatStreamMem {
		t.Fatalf("load classified %v", p.ClassOf(v))
	}
	if p.ClassOf(red) != CatStreamCompute {
		t.Fatalf("reduce classified %v", p.ClassOf(red))
	}
}

// --- Multi-operand store: C[i] = A[i] + B[i] (Figure 4b shape) ---

func TestCompileMultiOpStore(t *testing.T) {
	b := ir.NewKernel("vadd").Array("A", ir.I64, 64).Array("B", ir.I64, 64).Array("C", ir.I64, 64)
	b.Loop("i", 64)
	av := b.Load(ir.I64, ir.AffineAddr("A", 0, map[int]int64{0: 1}))
	bv := b.Load(ir.I64, ir.AffineAddr("B", 0, map[int]int64{0: 1}))
	sum := b.Bin(ir.I64, ir.Add, av, bv)
	st := b.Store(ir.I64, ir.AffineAddr("C", 0, map[int]int64{0: 1}), sum)
	k := b.Build()
	p := mustCompile(t, k)

	stores := streamsOfCT(p, isa.ComputeStore)
	if len(stores) != 1 {
		t.Fatalf("want 1 store stream, got %+v", p.Streams)
	}
	s := stores[0]
	if len(s.ValueDepSids) != 2 {
		t.Fatalf("store value deps = %v, want both load streams", s.ValueDepSids)
	}
	if len(s.ComputeOps) != 1 || s.ComputeOps[0] != sum {
		t.Fatalf("store compute ops = %v", s.ComputeOps)
	}
	if p.ClassOf(st) != CatStreamMem || p.ClassOf(sum) != CatStreamCompute {
		t.Fatal("classification wrong")
	}
	// Nothing left on the core except nothing — all ops absorbed.
	for i := range k.Ops {
		if p.ClassOf(ir.ValueRef(i)) == CatCore {
			t.Fatalf("op %d unexpectedly on core", i)
		}
	}
}

// --- RMW merge: A[i] = A[i] + c ---

func TestCompileRMWMerge(t *testing.T) {
	b := ir.NewKernel("scale").Array("A", ir.I64, 64)
	b.Loop("i", 64)
	v := b.Load(ir.I64, ir.AffineAddr("A", 0, map[int]int64{0: 1}))
	c := b.Const(ir.I64, 3)
	nv := b.Bin(ir.I64, ir.Add, v, c)
	b.Store(ir.I64, ir.AffineAddr("A", 0, map[int]int64{0: 1}), nv)
	k := b.Build()
	p := mustCompile(t, k)

	if len(p.Streams) != 1 {
		t.Fatalf("RMW should merge into one stream, got %d", len(p.Streams))
	}
	s := p.Streams[0]
	if s.CT != isa.ComputeRMW || !s.Write {
		t.Fatalf("merged stream = %+v", s)
	}
	if p.ClassOf(v) != CatStreamMem {
		t.Fatal("load side of RMW not absorbed")
	}
}

// --- Indirect atomic with key extraction: hist[(A[i]>>s)&m]++ ---

func TestCompileHistogram(t *testing.T) {
	b := ir.NewKernel("hist").Array("A", ir.I32, 256).Array("hist", ir.I64, 256)
	b.Loop("i", 256)
	v := b.Load(ir.I32, ir.AffineAddr("A", 0, map[int]int64{0: 1}))
	sh := b.Const(ir.I32, 24)
	key32 := b.Bin(ir.I32, ir.Shr, v, sh)
	key := b.Convert(ir.I8, key32)
	one := b.Const(ir.I64, 1)
	at := b.Atomic(ir.I64, ir.AtomicAdd, ir.IndirectAddr("hist", key), one)
	k := b.Build()
	p := mustCompile(t, k)

	var loadS, atomS *Stream
	for _, s := range p.Streams {
		if s.AccessOp == v {
			loadS = s
		}
		if s.AccessOp == at {
			atomS = s
		}
	}
	if loadS == nil || atomS == nil {
		t.Fatalf("streams missing: %+v", p.Streams)
	}
	if atomS.Kind != isa.KindIndirect || !atomS.Atomic || atomS.BaseSid != loadS.Sid {
		t.Fatalf("atomic stream wrong: %+v", atomS)
	}
	if atomS.ScalarOp != isa.OpAdd {
		t.Fatalf("atomic scalar op = %v", atomS.ScalarOp)
	}
	// Key extraction outlined onto the base load stream (§II-B load
	// compute: 8-bit key from 32-bit value).
	if loadS.CT != isa.ComputeLoad {
		t.Fatalf("base stream CT = %v, want load-compute", loadS.CT)
	}
	if loadS.RetBytes != 1 {
		t.Fatalf("base stream returns %dB, want 1 (the key)", loadS.RetBytes)
	}
	if p.ClassOf(key32) != CatStreamCompute || p.ClassOf(key) != CatStreamCompute {
		t.Fatal("key computation not outlined")
	}
	// Atomic result unused → nothing returns to the core.
	if atomS.RetBytes != 0 {
		t.Fatalf("atomic ret bytes = %d, want 0 (result unused)", atomS.RetBytes)
	}
}

// --- Nested indirect reduce (pr_pull shape):
// out[u] = Σ_e contrib[col[off[u]+e]] ---

func prPullKernel(syncFree bool) *ir.Kernel {
	b := ir.NewKernel("pr_pull").
		Array("deg", ir.I64, 64).Array("off", ir.I64, 64).
		Array("col", ir.I64, 512).Array("contrib", ir.F64, 64).
		Array("out", ir.F64, 64)
	if syncFree {
		b.SyncFree()
	}
	b.Loop("u", 64)
	deg := b.Load(ir.I64, ir.AffineAddr("deg", 0, map[int]int64{0: 1}))
	off := b.Load(ir.I64, ir.AffineAddr("off", 0, map[int]int64{0: 1}))
	b.LoopVal("e", deg)
	col := b.Load(ir.I64, ir.AffineBaseAddr("col", off, 0, map[int]int64{1: 1}))
	cv := b.Load(ir.F64, ir.IndirectAddr("contrib", col))
	b.Reduce(ir.F64, ir.Add, "sum", cv, 0, 0)
	b.AtLevel(0)
	sum := b.AccRead(ir.F64, "sum")
	b.Store(ir.F64, ir.AffineAddr("out", 0, map[int]int64{0: 1}), sum)
	return b.Build()
}

func TestCompilePrPull(t *testing.T) {
	p := mustCompile(t, prPullKernel(false))
	var colS, contribS, redS, outS *Stream
	for _, s := range p.Streams {
		switch {
		case s.CT == isa.ComputeReduce:
			redS = s
		case s.CT == isa.ComputeStore:
			outS = s
		case s.Kind == isa.KindIndirect:
			contribS = s
		case s.Addr.Array == "col":
			colS = s
		}
	}
	if colS == nil || contribS == nil || redS == nil || outS == nil {
		t.Fatalf("missing streams: %+v", p.Streams)
	}
	if !colS.Nested || colS.TripVal == ir.NoValue {
		t.Fatalf("col stream should be nested with data-dependent trip: %+v", colS)
	}
	if contribS.BaseSid != colS.Sid {
		t.Fatal("indirect base wiring wrong")
	}
	if redS.Kind != isa.KindIndirect {
		t.Fatalf("reduction kind = %v, want indirect", redS.Kind)
	}
	if redS.AccLevel != 0 {
		t.Fatalf("acc level = %d, want 0 (per-vertex)", redS.AccLevel)
	}
	// The store's value is the reduction result.
	found := false
	for _, sid := range outS.ValueDepSids {
		if sid == redS.Sid {
			found = true
		}
	}
	if !found {
		t.Fatalf("store deps %v missing reduction %d", outS.ValueDepSids, redS.Sid)
	}
}

func TestFullyDecoupledRequiresSyncFree(t *testing.T) {
	if p := mustCompile(t, prPullKernel(false)); p.FullyDecoupled {
		t.Fatal("decoupled without pragma")
	}
	if p := mustCompile(t, prPullKernel(true)); !p.FullyDecoupled {
		t.Fatal("sync-free pr_pull should fully decouple (§V)")
	}
}

// --- Pointer chase reduction (bin_tree / list shape) ---

func TestCompilePointerChase(t *testing.T) {
	b := ir.NewKernel("list").Array("nodes", ir.I64, 64).Array("heads", ir.I64, 8)
	b.SyncFree()
	b.Loop("q", 8)
	head := b.Load(ir.I64, ir.AffineAddr("heads", 0, map[int]int64{0: 1}))
	b.While("p", head)
	ptr := b.Chase()
	val := b.Load(ir.I64, ir.PointerAddr("nodes", ptr, 0))
	next := b.Load(ir.I64, ir.PointerAddr("nodes", ptr, 8))
	b.Reduce(ir.I64, ir.Add, "sum", val, -1, 0)
	one := b.Const(ir.I64, 1)
	b.SetNext(next)
	b.SetContinue(one)
	k := b.Build()
	p := mustCompile(t, k)

	var chase *Stream
	for _, s := range p.Streams {
		if s.Kind == isa.KindPointerChase && s.CT == isa.ComputeNone {
			chase = s
		}
	}
	if chase == nil {
		t.Fatalf("no chase stream: %+v", p.Streams)
	}
	if len(chase.ChaseFieldOps) != 1 || chase.ChaseFieldOps[0] != val {
		t.Fatalf("field loads = %v", chase.ChaseFieldOps)
	}
	reds := streamsOfCT(p, isa.ComputeReduce)
	if len(reds) != 1 || reds[0].Kind != isa.KindPointerChase {
		t.Fatalf("want ptr-chase reduction, got %+v", reds)
	}
	if !p.FullyDecoupled {
		t.Fatal("sync-free chase kernel should fully decouple")
	}
}

// --- Store fed by core value cannot stream ---

func TestStoreWithCoreValueRejected(t *testing.T) {
	// B[i] = f(A[B2[i]]) where the middle value also escapes to a second
	// store — closure violated for one consumer, so the value ops stay
	// split; simpler: value from an unclaimed atomic result chain where
	// the atomic is not a stream (pointer-form store target).
	b := ir.NewKernel("bad").Array("A", ir.I64, 64).Array("B", ir.I64, 64).Array("C", ir.I64, 64)
	b.Loop("i", 64)
	av := b.Load(ir.I64, ir.AffineAddr("A", 0, map[int]int64{0: 1}))
	dbl := b.Bin(ir.I64, ir.Add, av, av)
	// dbl escapes into TWO stores; each store's slice sees dbl used by
	// the other consumer → closure fails for both.
	b.Store(ir.I64, ir.AffineAddr("B", 0, map[int]int64{0: 1}), dbl)
	b.Store(ir.I64, ir.AffineAddr("C", 0, map[int]int64{0: 1}), dbl)
	k := b.Build()
	p := mustCompile(t, k)
	if len(streamsOfCT(p, isa.ComputeStore)) != 0 {
		t.Fatal("stores with escaping value slices must not stream")
	}
	// The load stream survives; dbl stays on core.
	if p.ClassOf(dbl) != CatCore {
		t.Fatalf("escaping compute classified %v", p.ClassOf(dbl))
	}
}

// --- sssp shape: atomic min dist[col[e]] with value w[e]+distU ---

func TestCompileSSSPShape(t *testing.T) {
	b := ir.NewKernel("sssp").
		Array("col", ir.I64, 256).Array("w", ir.I64, 256).Array("dist", ir.I64, 64)
	b.Loop("e", 256)
	col := b.Load(ir.I64, ir.AffineAddr("col", 0, map[int]int64{0: 1}))
	wv := b.Load(ir.I64, ir.AffineAddr("w", 0, map[int]int64{0: 1}))
	du := b.ParamVal(ir.I64, "distU")
	nd := b.Bin(ir.I64, ir.Add, wv, du)
	b.Atomic(ir.I64, ir.AtomicMin, ir.IndirectAddr("dist", col), nd)
	k := b.Build()
	p := mustCompile(t, k)
	var atom *Stream
	for _, s := range p.Streams {
		if s.Atomic {
			atom = s
		}
	}
	if atom == nil {
		t.Fatal("no atomic stream")
	}
	if atom.Kind != isa.KindIndirect || atom.ScalarOp != isa.OpMin {
		t.Fatalf("atomic stream: %+v", atom)
	}
	if len(atom.ValueDepSids) != 1 {
		t.Fatalf("value deps = %v, want the w[] stream", atom.ValueDepSids)
	}
	if p.ClassOf(nd) != CatStreamCompute {
		t.Fatal("value compute not outlined")
	}
	if atom.RetBytes != 0 {
		t.Fatal("unused atomic result should not return")
	}
}

// --- CAS result used by core (bfs_push): ret bytes > 0 ---

func TestCompileCASWithUsedResult(t *testing.T) {
	b := ir.NewKernel("bfs").
		Array("col", ir.I64, 256).Array("depth", ir.I64, 64)
	b.Loop("e", 256)
	col := b.Load(ir.I64, ir.AffineAddr("col", 0, map[int]int64{0: 1}))
	inf := b.Const(ir.I64, ^uint64(0))
	nd := b.ParamVal(ir.I64, "next")
	old := b.AtomicCAS(ir.I64, ir.IndirectAddr("depth", col), inf, nd)
	eq := b.Bin(ir.I64, ir.CmpEQ, old, inf)
	b.Reduce(ir.I64, ir.Add, "won", eq, -1, 0)
	k := b.Build()
	p := mustCompile(t, k)
	var atom *Stream
	for _, s := range p.Streams {
		if s.Atomic {
			atom = s
		}
	}
	if atom == nil || atom.ScalarOp != isa.OpCAS {
		t.Fatalf("CAS stream missing: %+v", p.Streams)
	}
	if atom.RetBytes != 8 {
		t.Fatalf("CAS with used result returns %dB, want 8", atom.RetBytes)
	}
	// The success-count reduce also streams, fed by the atomic stream.
	reds := streamsOfCT(p, isa.ComputeReduce)
	if len(reds) != 1 {
		t.Fatalf("want the won-count reduce to stream, got %+v", reds)
	}
}

// --- Vector stencil marks streams Vector ---

func TestVectorMarking(t *testing.T) {
	b := ir.NewKernel("stencil").Array("in", ir.F32, 256).Array("out", ir.F32, 256)
	b.Loop("i", 254)
	l := b.Load(ir.F32, ir.AffineAddr("in", 0, map[int]int64{0: 1}))
	c := b.Load(ir.F32, ir.AffineAddr("in", 1, map[int]int64{0: 1}))
	r := b.Load(ir.F32, ir.AffineAddr("in", 2, map[int]int64{0: 1}))
	s1 := b.VecBin(ir.F32, ir.Add, l, c)
	s2 := b.VecBin(ir.F32, ir.Add, s1, r)
	b.Store(ir.F32, ir.AffineAddr("out", 1, map[int]int64{0: 1}), s2)
	k := b.Build()
	p := mustCompile(t, k)
	stores := streamsOfCT(p, isa.ComputeStore)
	if len(stores) != 1 || !stores[0].Vector {
		t.Fatalf("vector store stream: %+v", stores)
	}
	if len(stores[0].ValueDepSids) != 3 {
		t.Fatalf("stencil deps = %v, want 3 load streams", stores[0].ValueDepSids)
	}
}

// --- Category accounting sanity ---

func TestClassOfConfigOps(t *testing.T) {
	b := ir.NewKernel("cfg").Array("A", ir.I64, 8)
	b.Loop("i", 8)
	cnst := b.Const(ir.I64, 1)
	prm := b.ParamVal(ir.I64, "p")
	v := b.Load(ir.I64, ir.AffineAddr("A", 0, map[int]int64{0: 1}))
	x := b.Bin(ir.I64, ir.Add, cnst, prm)
	y := b.Bin(ir.I64, ir.Add, v, x)
	_ = y
	k := b.Build()
	p := mustCompile(t, k)
	if p.ClassOf(cnst) != CatConfig || p.ClassOf(prm) != CatConfig {
		t.Fatal("consts/params must classify as config")
	}
	// y is dead compute on the core (no absorbing consumer).
	if p.ClassOf(y) != CatCore {
		t.Fatalf("dead compute classified %v", p.ClassOf(y))
	}
}

// TestISAConfigSizesTableIV pins the Table IV encoding sizes that
// configuration and migration messages are charged, through the one
// converter the runtime and nsdump share. Histogram's affine stream
// carries its near-stream computation, and its indirect bin-update
// stream an atomic RMW and its base stream; an encoding of the access
// pattern alone drops them (67/38 bytes instead of 77/48).
func TestISAConfigSizesTableIV(t *testing.T) {
	p := mustCompile(t, workloads.Get("histogram", workloads.ScaleCI).Kernel)
	want := []int{77, 48}
	if len(p.Streams) != len(want) {
		t.Fatalf("histogram compiles to %d streams, want %d", len(p.Streams), len(want))
	}
	for i, s := range p.Streams {
		for _, coreID := range []int{0, 5, 63} {
			if got := isa.EncodedBytes(s.ISAConfig(coreID)); got != want[i] {
				t.Errorf("s%d on core %d: %d bytes, want %d", s.Sid, coreID, got, want[i])
			}
		}
	}
}
