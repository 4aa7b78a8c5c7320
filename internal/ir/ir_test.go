package ir

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tlb"
)

func newData() *Data {
	return NewData(tlb.NewAddressSpace())
}

// sumKernel builds acc = Σ A[i] for N elements.
func sumKernel(n uint64) *Kernel {
	b := NewKernel("sum").Array("A", I64, n)
	b.Loop("i", n)
	v := b.Load(I64, AffineAddr("A", 0, map[int]int64{0: 1}))
	b.Reduce(I64, Add, "acc", v, -1, 0)
	return b.Build()
}

func TestSumKernel(t *testing.T) {
	k := sumKernel(100)
	d := newData()
	d.AllocArrays(k)
	a := d.Array("A")
	var want uint64
	for i := uint64(0); i < 100; i++ {
		a.Set(i, i*3)
		want += i * 3
	}
	accs, err := Exec(k, d, nil, 0, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accs["acc"] != want {
		t.Fatalf("acc = %d, want %d", accs["acc"], want)
	}
}

func TestPartitionedSum(t *testing.T) {
	// Σ over [0,50) + Σ over [50,100) = Σ over [0,100).
	k := sumKernel(100)
	d := newData()
	d.AllocArrays(k)
	a := d.Array("A")
	for i := uint64(0); i < 100; i++ {
		a.Set(i, i)
	}
	lo, err := Exec(k, d, nil, 0, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Exec(k, d, nil, 50, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lo["acc"]+hi["acc"] != 99*100/2 {
		t.Fatalf("partitioned sums = %d + %d", lo["acc"], hi["acc"])
	}
}

func TestVectorAdd(t *testing.T) {
	// C[i] = A[i] + B[i].
	b := NewKernel("vadd").Array("A", I64, 16).Array("B", I64, 16).Array("C", I64, 16)
	b.Loop("i", 16)
	av := b.Load(I64, AffineAddr("A", 0, map[int]int64{0: 1}))
	bv := b.Load(I64, AffineAddr("B", 0, map[int]int64{0: 1}))
	sum := b.Bin(I64, Add, av, bv)
	b.Store(I64, AffineAddr("C", 0, map[int]int64{0: 1}), sum)
	k := b.Build()
	d := newData()
	d.AllocArrays(k)
	for i := uint64(0); i < 16; i++ {
		d.Array("A").Set(i, i)
		d.Array("B").Set(i, 100+i)
	}
	if _, err := Exec(k, d, nil, 0, 16, nil); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 16; i++ {
		if got := d.Array("C").Get(i); got != 100+2*i {
			t.Fatalf("C[%d] = %d", i, got)
		}
	}
}

func TestIndirectAtomicHistogram(t *testing.T) {
	// hist[A[i]]++ via atomic add.
	b := NewKernel("hist").Array("A", I64, 32).Array("hist", I64, 4)
	b.Loop("i", 32)
	idx := b.Load(I64, AffineAddr("A", 0, map[int]int64{0: 1}))
	one := b.Const(I64, 1)
	b.Atomic(I64, AtomicAdd, IndirectAddr("hist", idx), one)
	k := b.Build()
	d := newData()
	d.AllocArrays(k)
	for i := uint64(0); i < 32; i++ {
		d.Array("A").Set(i, i%4)
	}
	if _, err := Exec(k, d, nil, 0, 32, nil); err != nil {
		t.Fatal(err)
	}
	for bkt := uint64(0); bkt < 4; bkt++ {
		if got := d.Array("hist").Get(bkt); got != 8 {
			t.Fatalf("hist[%d] = %d, want 8", bkt, got)
		}
	}
}

func TestNestedLoopWithDataDependentTrip(t *testing.T) {
	// CSR-style: for u: for e in [0, deg[u]): sum += col[off[u]+e].
	b := NewKernel("csr").
		Array("deg", I64, 3).Array("off", I64, 3).Array("col", I64, 6)
	b.Loop("u", 3)
	deg := b.Load(I64, AffineAddr("deg", 0, map[int]int64{0: 1}))
	off := b.Load(I64, AffineAddr("off", 0, map[int]int64{0: 1}))
	b.LoopVal("e", deg)
	v := b.Load(I64, AffineBaseAddr("col", off, 0, map[int]int64{1: 1}))
	b.Reduce(I64, Add, "sum", v, -1, 0)
	k := b.Build()
	d := newData()
	d.AllocArrays(k)
	// degrees 1,2,3; offsets 0,1,3; col = 10,20,30,40,50,60.
	for i, v := range []uint64{1, 2, 3} {
		d.Array("deg").Set(uint64(i), v)
	}
	for i, v := range []uint64{0, 1, 3} {
		d.Array("off").Set(uint64(i), v)
	}
	for i := uint64(0); i < 6; i++ {
		d.Array("col").Set(i, (i+1)*10)
	}
	accs, err := Exec(k, d, nil, 0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accs["sum"] != 10+20+30+40+50+60 {
		t.Fatalf("sum = %d", accs["sum"])
	}
}

func TestPerIterationAccumulatorAndEpilogue(t *testing.T) {
	// out[u] = Σ_e in[u*4+e]  (fresh accumulator per u, store in epilogue)
	b := NewKernel("rowsum").Array("in", I64, 12).Array("out", I64, 3)
	b.Loop("u", 3)
	b.Loop("e", 4)
	v := b.Load(I64, AffineAddr("in", 0, map[int]int64{0: 4, 1: 1}))
	b.Reduce(I64, Add, "row", v, 0, 0)
	b.AtLevel(0)
	sum := b.AccRead(I64, "row")
	b.Store(I64, AffineAddr("out", 0, map[int]int64{0: 1}), sum)
	k := b.Build()
	d := newData()
	d.AllocArrays(k)
	for i := uint64(0); i < 12; i++ {
		d.Array("in").Set(i, 1)
	}
	if _, err := Exec(k, d, nil, 0, 3, nil); err != nil {
		t.Fatal(err)
	}
	for u := uint64(0); u < 3; u++ {
		if got := d.Array("out").Get(u); got != 4 {
			t.Fatalf("out[%d] = %d, want 4 (accumulator must reset per u)", u, got)
		}
	}
}

func TestWhileLoopLinkedList(t *testing.T) {
	// Linked list of nodes [value, next]; sum values until nil.
	b := NewKernel("list").Array("nodes", I64, 8).Array("heads", I64, 1)
	b.Loop("q", 1)
	head := b.Load(I64, AffineAddr("heads", 0, map[int]int64{0: 1}))
	b.While("p", head)
	p := b.Chase()
	val := b.Load(I64, PointerAddr("nodes", p, 0))
	next := b.Load(I64, PointerAddr("nodes", p, 8))
	b.Reduce(I64, Add, "sum", val, -1, 0)
	one := b.Const(I64, 1)
	b.SetNext(next)
	b.SetContinue(one)
	k := b.Build()
	d := newData()
	d.AllocArrays(k)
	nodes := d.Array("nodes")
	// Three nodes at element pairs (0,1), (2,3), (4,5): values 5, 7, 9.
	nodes.Set(0, 5)
	nodes.Set(1, nodes.AddrOf(2))
	nodes.Set(2, 7)
	nodes.Set(3, nodes.AddrOf(4))
	nodes.Set(4, 9)
	nodes.Set(5, 0) // nil
	d.Array("heads").Set(0, nodes.AddrOf(0))
	accs, err := Exec(k, d, nil, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accs["sum"] != 21 {
		t.Fatalf("list sum = %d, want 21", accs["sum"])
	}
}

func TestCAS(t *testing.T) {
	b := NewKernel("cas").Array("flag", I64, 1)
	b.Loop("i", 3)
	exp := b.Const(I64, 0)
	val := b.Const(I64, 7)
	old := b.AtomicCAS(I64, AffineAddr("flag", 0, nil), exp, val)
	b.Reduce(I64, Add, "olds", old, -1, 0)
	k := b.Build()
	d := newData()
	d.AllocArrays(k)
	var events []MemEvent
	accs, err := Exec(k, d, nil, 0, 3, &Hooks{OnMem: func(ev MemEvent) { events = append(events, ev) }})
	if err != nil {
		t.Fatal(err)
	}
	if d.Array("flag").Get(0) != 7 {
		t.Fatal("CAS did not install value")
	}
	// First CAS succeeds (old 0), next two fail (old 7): olds = 0+7+7.
	if accs["olds"] != 14 {
		t.Fatalf("olds = %d", accs["olds"])
	}
	if !events[0].Changed || events[1].Changed || events[2].Changed {
		t.Fatal("Changed flags wrong; MRSW locking depends on them")
	}
}

func TestFloatOps(t *testing.T) {
	b := NewKernel("fp").Array("A", F64, 4).Array("B", F64, 4)
	b.Loop("i", 4)
	v := b.Load(F64, AffineAddr("A", 0, map[int]int64{0: 1}))
	c := b.ConstF(F64, 2.5)
	prod := b.Bin(F64, Mul, v, c)
	b.Store(F64, AffineAddr("B", 0, map[int]int64{0: 1}), prod)
	b.Reduce(F64, Add, "s", prod, -1, floatBits(F64, 0))
	k := b.Build()
	d := newData()
	d.AllocArrays(k)
	for i := uint64(0); i < 4; i++ {
		d.Array("A").SetF(i, float64(i))
	}
	accs, err := Exec(k, d, nil, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := bitsToFloat(F64, accs["s"]); math.Abs(got-15.0) > 1e-12 {
		t.Fatalf("float sum = %v, want 15", got)
	}
	if got := d.Array("B").GetF(2); got != 5.0 {
		t.Fatalf("B[2] = %v", got)
	}
}

func TestMemEventAddresses(t *testing.T) {
	k := sumKernel(8)
	d := newData()
	d.AllocArrays(k)
	base := d.Array("A").Base
	var addrs []uint64
	_, err := Exec(k, d, nil, 0, 8, &Hooks{OnMem: func(ev MemEvent) { addrs = append(addrs, ev.Addr) }})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		if a != base+uint64(i)*8 {
			t.Fatalf("addr[%d] = %#x, want %#x", i, a, base+uint64(i)*8)
		}
	}
}

func TestValidationRejectsForwardRef(t *testing.T) {
	k := &Kernel{
		Name:  "bad",
		Loops: []Loop{{Var: "i", Trip: 1, TripVal: NoValue}},
		Ops: []Op{
			{Kind: OpBin, Type: I64, Bin: Add, A: 1, B: 1, Val: NoValue, Expected: NoValue, Cond: NoValue,
				Addr: Addr{Base: NoValue, IndexVal: NoValue, Pointer: NoValue}},
			{Kind: OpConst, Type: I64, Val: NoValue, Expected: NoValue, A: NoValue, B: NoValue, Cond: NoValue,
				Addr: Addr{Base: NoValue, IndexVal: NoValue, Pointer: NoValue}},
		},
	}
	if k.Validate() == nil {
		t.Fatal("forward reference accepted")
	}
}

func TestValidationRejectsUndeclaredArray(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("undeclared array accepted")
		}
	}()
	b := NewKernel("bad")
	b.Loop("i", 1)
	b.Load(I64, AffineAddr("missing", 0, nil))
	b.Build()
}

func TestBinOpIntProperties(t *testing.T) {
	// min/max bracket; add/sub inverse (I64).
	f := func(a, b int64) bool {
		mn := int64(binOp(I64, Min, uint64(a), uint64(b)))
		mx := int64(binOp(I64, Max, uint64(a), uint64(b)))
		if mn > mx {
			return false
		}
		sum := binOp(I64, Add, uint64(a), uint64(b))
		back := int64(binOp(I64, Sub, sum, uint64(b)))
		return back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConvertWidths(t *testing.T) {
	if convert(I8, I64, 0x1ff) != 0xff {
		t.Fatal("I64→I8 truncation wrong")
	}
	if convert(I32, I64, 1<<40|5) != 5 {
		t.Fatal("I64→I32 truncation wrong")
	}
	if bitsToFloat(F64, convert(F64, I64, 3)) != 3.0 {
		t.Fatal("int→float conversion wrong")
	}
	if convert(I64, F64, floatBits(F64, 7.9)) != 7 {
		t.Fatal("float→int conversion wrong")
	}
	if bitsToFloat(F32, convert(F32, F64, floatBits(F64, 1.5))) != 1.5 {
		t.Fatal("F64→F32 conversion wrong")
	}
}

func TestResolvePointer(t *testing.T) {
	d := newData()
	a := d.Alloc(ArrayDecl{Name: "x", Type: I64, Len: 10})
	bArr := d.Alloc(ArrayDecl{Name: "y", Type: I32, Len: 10})
	arr, idx := d.Resolve(a.AddrOf(3))
	if arr.Decl.Name != "x" || idx != 3 {
		t.Fatalf("resolve = %s[%d]", arr.Decl.Name, idx)
	}
	arr, idx = d.Resolve(bArr.AddrOf(7))
	if arr.Decl.Name != "y" || idx != 7 {
		t.Fatalf("resolve = %s[%d]", arr.Decl.Name, idx)
	}
}

func TestResolveOutOfRangePanics(t *testing.T) {
	d := newData()
	d.Alloc(ArrayDecl{Name: "x", Type: I64, Len: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("resolve past end should panic")
		}
	}()
	d.Resolve(d.Array("x").EndAddr() + 1024*1024*16)
}
