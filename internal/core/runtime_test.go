package core

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
)

// testMachine builds a small 4×4 machine with scaled-down caches (so the
// §IV-B footprint-based offload policy fires on test-sized arrays) and the
// right prefetcher setting for a system.
func testMachine(sys System) *machine.Machine {
	cfg := machine.CI()
	cfg.Cache.L1.SizeBytes = 2 << 10
	cfg.Cache.L2.SizeBytes = 8 << 10
	cfg.Cache.L3Bank.SizeBytes = 64 << 10
	cfg.EnablePrefetchers = policyFor(sys).prefetchers
	return machine.New(cfg)
}

// reduceKernel: acc = Σ A[i], large enough to exceed the private L2 so the
// offload policy fires.
func reduceKernel(n uint64) *ir.Kernel {
	b := ir.NewKernel("sum").Array("A", ir.I64, n)
	b.Loop("i", n)
	v := b.Load(ir.I64, ir.AffineAddr("A", 0, map[int]int64{0: 1}))
	b.Reduce(ir.I64, ir.Add, "acc", v, -1, 0)
	return b.Build()
}

// storeKernel: C[i] = A[i] + B[i] (multi-operand store).
func storeKernel(n uint64) *ir.Kernel {
	b := ir.NewKernel("vadd").Array("A", ir.I64, n).Array("B", ir.I64, n).Array("C", ir.I64, n)
	b.Loop("i", n)
	av := b.Load(ir.I64, ir.AffineAddr("A", 0, map[int]int64{0: 1}))
	bv := b.Load(ir.I64, ir.AffineAddr("B", 0, map[int]int64{0: 1}))
	sum := b.Bin(ir.I64, ir.Add, av, bv)
	b.Store(ir.I64, ir.AffineAddr("C", 0, map[int]int64{0: 1}), sum)
	return b.Build()
}

// atomicKernel: hist[A[i]%buckets]++ — indirect atomic.
func atomicKernel(n, buckets uint64) *ir.Kernel {
	b := ir.NewKernel("hist").Array("A", ir.I64, n).Array("hist", ir.I64, buckets)
	b.Loop("i", n)
	v := b.Load(ir.I64, ir.AffineAddr("A", 0, map[int]int64{0: 1}))
	mask := b.Const(ir.I64, buckets-1)
	key := b.Bin(ir.I64, ir.And, v, mask)
	one := b.Const(ir.I64, 1)
	b.Atomic(ir.I64, ir.AtomicAdd, ir.IndirectAddr("hist", key), one)
	return b.Build()
}

// chaseKernel: sum over a linked list per query (pointer-chase reduce).
func chaseKernel(queries, nodes uint64) *ir.Kernel {
	b := ir.NewKernel("list").Array("nodes", ir.I64, nodes*2).Array("heads", ir.I64, queries)
	b.SyncFree()
	b.LoopN("q", "queries")
	b.Param("queries", queries)
	head := b.Load(ir.I64, ir.AffineAddr("heads", 0, map[int]int64{0: 1}))
	b.While("p", head)
	ptr := b.Chase()
	val := b.Load(ir.I64, ir.PointerAddr("nodes", ptr, 0))
	next := b.Load(ir.I64, ir.PointerAddr("nodes", ptr, 8))
	b.Reduce(ir.I64, ir.Add, "sum", val, -1, 0)
	one := b.Const(ir.I64, 1)
	b.SetNext(next)
	b.SetContinue(one)
	return b.Build()
}

func setupData(m *machine.Machine, k *ir.Kernel) *ir.Data {
	d := ir.NewData(m.AS)
	d.AllocArrays(k)
	return d
}

func fillSeq(d *ir.Data, name string, n uint64) {
	a := d.Array(name)
	for i := uint64(0); i < n; i++ {
		a.Set(i, i)
	}
}

// runOn executes kernel k on system sys and returns the result.
func runOn(t *testing.T, sys System, k *ir.Kernel, fill func(*machine.Machine, *ir.Data)) *RunResult {
	t.Helper()
	m := testMachine(sys)
	d := setupData(m, k)
	if fill != nil {
		fill(m, d)
	}
	res, err := Run(m, k, sys, DefaultParams(m.Tiles()), nil, d)
	if err != nil {
		t.Fatalf("%v: %v", sys, err)
	}
	if res.Cycles == 0 {
		t.Fatalf("%v: zero cycles", sys)
	}
	return res
}

// runWarm runs the kernel twice on one machine (warming the LLC — the
// paper's workloads are LLC-resident) and returns the second run's result
// with traffic/cycles measured as the deltas.
func runWarm(t *testing.T, sys System, k *ir.Kernel, fill func(*machine.Machine, *ir.Data)) *RunResult {
	t.Helper()
	m := testMachine(sys)
	d := setupData(m, k)
	if fill != nil {
		fill(m, d)
	}
	p := DefaultParams(m.Tiles())
	if _, err := Run(m, k, sys, p, nil, d); err != nil {
		t.Fatalf("%v warmup: %v", sys, err)
	}
	before := m.Counters()
	startCycle := m.Engine.Now()
	res, err := Run(m, k, sys, p, nil, d)
	if err != nil {
		t.Fatalf("%v: %v", sys, err)
	}
	for name, v := range res.Stats {
		res.Stats[name] = v - before[name]
	}
	res.Cycles = res.Cycles - startCycle
	return res
}

const testN = 1 << 16 // 64k × 8B = 32 KB per core-partition — exceeds the 16 KB test L2

func TestAllSystemsCompleteReduction(t *testing.T) {
	k := reduceKernel(testN)
	want := uint64(testN) * (testN - 1) / 2
	for _, sys := range AllSystems() {
		res := runOn(t, sys, k, func(m *machine.Machine, d *ir.Data) { fillSeq(d, "A", testN) })
		var got uint64
		for _, accs := range res.Accs {
			got += accs["acc"]
		}
		if got != want {
			t.Fatalf("%v: functional sum = %d, want %d", sys, got, want)
		}
	}
}

func TestAllSystemsCompleteStore(t *testing.T) {
	k := storeKernel(testN)
	for _, sys := range AllSystems() {
		m := testMachine(sys)
		d := setupData(m, k)
		fillSeq(d, "A", testN)
		fillSeq(d, "B", testN)
		_, err := Run(m, k, sys, DefaultParams(m.Tiles()), nil, d)
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		// Functional result is computed during trace generation.
		if got := d.Array("C").Get(100); got != 200 {
			t.Fatalf("%v: C[100] = %d", sys, got)
		}
	}
}

func TestAllSystemsCompleteAtomics(t *testing.T) {
	k := atomicKernel(testN, 64)
	for _, sys := range AllSystems() {
		m := testMachine(sys)
		d := setupData(m, k)
		fillSeq(d, "A", testN)
		_, err := Run(m, k, sys, DefaultParams(m.Tiles()), nil, d)
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		var total uint64
		for i := uint64(0); i < 64; i++ {
			total += d.Array("hist").Get(i)
		}
		if total != testN {
			t.Fatalf("%v: histogram total = %d", sys, total)
		}
	}
}

func TestAllSystemsCompleteChase(t *testing.T) {
	const queries, nodes = 64, 4096
	k := chaseKernel(queries, nodes)
	fill := func(m *machine.Machine, d *ir.Data) {
		nd := d.Array("nodes")
		// Chains of 8 nodes each, values all 1.
		for i := uint64(0); i < nodes; i++ {
			nd.Set(i*2, 1)
			if i%8 == 7 {
				nd.Set(i*2+1, 0)
			} else {
				nd.Set(i*2+1, nd.AddrOf((i+1)*2))
			}
		}
		hd := d.Array("heads")
		for q := uint64(0); q < queries; q++ {
			hd.Set(q, nd.AddrOf(q*8*2%(nodes*2)))
		}
	}
	want := uint64(queries * 8)
	for _, sys := range AllSystems() {
		res := runOn(t, sys, k, fill)
		var got uint64
		for _, accs := range res.Accs {
			got += accs["sum"]
		}
		if got != want {
			t.Fatalf("%v: chase sum = %d, want %d", sys, got, want)
		}
	}
}

func TestNSOffloadsMostOps(t *testing.T) {
	k := reduceKernel(testN)
	res := runOn(t, NS, k, func(m *machine.Machine, d *ir.Data) { fillSeq(d, "A", testN) })
	streamable := res.DynOps[1] + res.DynOps[2] // mem + compute categories
	if streamable == 0 {
		t.Fatal("no stream-associable ops")
	}
	frac := float64(res.OffloadedOps) / float64(streamable)
	if frac < 0.9 {
		t.Fatalf("NS offloaded %.2f of streamable ops, want ≥0.9 (paper: 93%%)", frac)
	}
}

func TestNSReducesTrafficVsBase(t *testing.T) {
	k := reduceKernel(testN)
	fill := func(m *machine.Machine, d *ir.Data) { fillSeq(d, "A", testN) }
	base := runWarm(t, Base, k, fill)
	ns := runWarm(t, NS, k, fill)
	bTotal := base.Stats["noc.bytehops.data"] + base.Stats["noc.bytehops.control"] + base.Stats["noc.bytehops.offloaded"]
	nTotal := ns.Stats["noc.bytehops.data"] + ns.Stats["noc.bytehops.control"] + ns.Stats["noc.bytehops.offloaded"]
	if nTotal >= bTotal {
		t.Fatalf("NS traffic %d not below Base %d", nTotal, bTotal)
	}
	// The paper's headline: large reductions; here at least 2×.
	if float64(nTotal) > 0.5*float64(bTotal) {
		t.Fatalf("NS traffic %d vs Base %d: reduction below 2×", nTotal, bTotal)
	}
}

func TestNSFasterThanBaseOnReduction(t *testing.T) {
	k := reduceKernel(testN)
	fill := func(m *machine.Machine, d *ir.Data) { fillSeq(d, "A", testN) }
	base := runWarm(t, Base, k, fill)
	ns := runWarm(t, NS, k, fill)
	if ns.Cycles >= base.Cycles {
		t.Fatalf("NS (%d cycles) not faster than Base (%d)", ns.Cycles, base.Cycles)
	}
}

func TestDecoupleAtLeastAsFastAsNS(t *testing.T) {
	b := ir.NewKernel("sumsf").Array("A", ir.I64, testN)
	b.SyncFree()
	b.Loop("i", testN)
	v := b.Load(ir.I64, ir.AffineAddr("A", 0, map[int]int64{0: 1}))
	b.Reduce(ir.I64, ir.Add, "acc", v, -1, 0)
	k := b.Build()
	fill := func(m *machine.Machine, d *ir.Data) { fillSeq(d, "A", testN) }
	ns := runOn(t, NS, k, fill)
	dec := runOn(t, NSDecouple, k, fill)
	if dec.Cycles > ns.Cycles {
		t.Fatalf("NS_decouple (%d) slower than NS (%d)", dec.Cycles, ns.Cycles)
	}
}

func TestRangeSyncTrafficPresentOnlyInNS(t *testing.T) {
	k := storeKernel(testN)
	fill := func(m *machine.Machine, d *ir.Data) {
		fillSeq(d, "A", testN)
		fillSeq(d, "B", testN)
	}
	ns := runOn(t, NS, k, fill)
	nosync := runOn(t, NSNoSync, k, fill)
	if ns.Stats["noc.bytehops.offloaded"] <= nosync.Stats["noc.bytehops.offloaded"] {
		t.Fatalf("range-sync should add offload-class traffic: NS %d vs no-sync %d",
			ns.Stats["noc.bytehops.offloaded"], nosync.Stats["noc.bytehops.offloaded"])
	}
}

func TestMRSWReducesLockConflicts(t *testing.T) {
	// CAS kernel where most CASes fail (value already set): MRSW admits
	// them concurrently; exclusive serializes.
	const n = 1 << 14
	b := ir.NewKernel("cas").Array("idx", ir.I64, n).Array("flag", ir.I64, 64)
	b.Loop("i", n)
	iv := b.Load(ir.I64, ir.AffineAddr("idx", 0, map[int]int64{0: 1}))
	exp := b.Const(ir.I64, ^uint64(0))
	val := b.Const(ir.I64, 1)
	b.AtomicCAS(ir.I64, ir.IndirectAddr("flag", iv), exp, val)
	k := b.Build()
	fill := func(m *machine.Machine, d *ir.Data) {
		a := d.Array("idx")
		for i := uint64(0); i < n; i++ {
			a.Set(i, i%64)
		}
		// flags start at 0 ≠ expected → every CAS fails (no modify).
	}
	run := func(mrsw bool) uint64 {
		m := testMachine(NS)
		d := setupData(m, k)
		fill(m, d)
		p := DefaultParams(m.Tiles())
		p.MRSWLock = mrsw
		res, err := Run(m, k, NS, p, nil, d)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats["lock.conflicts"]
	}
	excl := run(false)
	mrsw := run(true)
	if mrsw >= excl && excl > 0 {
		t.Fatalf("MRSW conflicts %d not below exclusive %d", mrsw, excl)
	}
}

func TestOffloadPolicyKeepsSmallStreamsInCore(t *testing.T) {
	k := reduceKernel(512) // 4 KB — far below L2
	m := testMachine(NS)
	d := setupData(m, k)
	fillSeq(d, "A", 512)
	res, err := Run(m, k, NS, DefaultParams(m.Tiles()), nil, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.OffloadedOps != 0 {
		t.Fatalf("tiny stream offloaded (%d ops); the §IV-B policy should keep it in-core", res.OffloadedOps)
	}
}

func TestSINGLEChainsPointerWorkload(t *testing.T) {
	const queries, nodes = 64, 4096
	k := chaseKernel(queries, nodes)
	fill := func(m *machine.Machine, d *ir.Data) {
		nd := d.Array("nodes")
		for i := uint64(0); i < nodes; i++ {
			nd.Set(i*2, 1)
			if i%8 == 7 {
				nd.Set(i*2+1, 0)
			} else {
				nd.Set(i*2+1, nd.AddrOf((i+1)*2))
			}
		}
		hd := d.Array("heads")
		for q := uint64(0); q < queries; q++ {
			hd.Set(q, nd.AddrOf(q*8*2%(nodes*2)))
		}
	}
	res := runOn(t, SINGLE, k, fill)
	if res.Stats["single.chain_hops"] == 0 {
		t.Fatal("SINGLE did not chain the pointer workload")
	}
}

func TestINSTOffloadsPerIteration(t *testing.T) {
	k := atomicKernel(testN, 64)
	res := runOn(t, INST, k, func(m *machine.Machine, d *ir.Data) { fillSeq(d, "A", testN) })
	if res.Stats["inst.offloads"] == 0 {
		t.Fatal("INST issued no per-iteration offloads")
	}
}

func TestDeterministicCycles(t *testing.T) {
	k := reduceKernel(1 << 13)
	run := func() RunResult {
		m := testMachine(NS)
		d := setupData(m, k)
		fillSeq(d, "A", 1<<13)
		res, err := Run(m, k, NS, DefaultParams(m.Tiles()), nil, d)
		if err != nil {
			t.Fatal(err)
		}
		return *res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles {
		t.Fatalf("non-deterministic: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

func TestTrafficClassesPopulated(t *testing.T) {
	k := storeKernel(testN)
	fill := func(m *machine.Machine, d *ir.Data) {
		fillSeq(d, "A", testN)
		fillSeq(d, "B", testN)
	}
	ns := runOn(t, NS, k, fill)
	if ns.Stats["noc.bytehops.offloaded"] == 0 {
		t.Fatal("NS produced no offload-class traffic")
	}
	base := runOn(t, Base, k, fill)
	if base.Stats["noc.bytehops.data"] == 0 {
		t.Fatal("Base produced no data traffic")
	}
	if base.Stats["noc.bytehops.offloaded"] != 0 {
		t.Fatal("Base produced offload traffic")
	}
}
