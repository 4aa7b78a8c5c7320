package core

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
)

// moStoreKernel is a two-operand store kernel (the pattern Livia cannot
// express and Omni-Compute handles per-iteration).
func moStoreKernel(n uint64) *ir.Kernel {
	b := ir.NewKernel("mo").Array("A", ir.I64, n).Array("B", ir.I64, n).Array("C", ir.I64, n)
	b.Loop("i", n)
	av := b.Load(ir.I64, ir.AffineAddr("A", 0, map[int]int64{0: 1}))
	bv := b.Load(ir.I64, ir.AffineAddr("B", 0, map[int]int64{0: 1}))
	s := b.Bin(ir.I64, ir.Add, av, bv)
	b.Store(ir.I64, ir.AffineAddr("C", 0, map[int]int64{0: 1}), s)
	return b.Build()
}

func TestINSTUsesMeetBankOffloads(t *testing.T) {
	k := moStoreKernel(testN)
	m := testMachine(INST)
	d := setupData(m, k)
	fillSeq(d, "A", testN)
	fillSeq(d, "B", testN)
	res, err := Run(m, k, INST, DefaultParams(m.Tiles()), nil, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats["inst.offloads"] == 0 {
		t.Fatal("INST issued no offload requests for the MO store")
	}
	// Every iteration is one request: offloads ≈ element count.
	if got := res.Stats["inst.offloads"]; got != testN {
		t.Fatalf("INST offloads = %d, want %d (one per iteration)", got, testN)
	}
	// The per-iteration round trips show up as offload-class traffic.
	if res.Stats["noc.bytehops.offloaded"] == 0 {
		t.Fatal("INST produced no offload traffic")
	}
}

func TestINSTCannotOffloadReduction(t *testing.T) {
	k := reduceKernel(testN)
	m := testMachine(INST)
	d := setupData(m, k)
	fillSeq(d, "A", testN)
	res, err := Run(m, k, INST, DefaultParams(m.Tiles()), nil, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats["inst.offloads"] != 0 {
		t.Fatal("INST offloaded a reduction (unsupported per §VI)")
	}
	// But it still benefits from stream prefetching (§VI).
	if res.Stats["ns.sload"] == 0 {
		t.Fatal("INST lost its stream-prefetch benefit")
	}
}

func TestSINGLEFallsBackOnMultiOperand(t *testing.T) {
	k := moStoreKernel(testN)
	m := testMachine(SINGLE)
	d := setupData(m, k)
	fillSeq(d, "A", testN)
	fillSeq(d, "B", testN)
	res, err := Run(m, k, SINGLE, DefaultParams(m.Tiles()), nil, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats["single.invocations"] != 0 || res.Stats["single.chain_hops"] != 0 {
		t.Fatal("SINGLE offloaded a multi-operand function (unsupported per §II-C)")
	}
	if res.Stats["ns.sload"] == 0 {
		t.Fatal("SINGLE fallback lost stream prefetching")
	}
}

func TestSINGLEPerElementOnIndirectAtomic(t *testing.T) {
	k := atomicKernel(testN, 64)
	m := testMachine(SINGLE)
	d := setupData(m, k)
	fillSeq(d, "A", testN)
	res, err := Run(m, k, SINGLE, DefaultParams(m.Tiles()), nil, d)
	if err != nil {
		t.Fatal(err)
	}
	// "SINGLE cannot achieve autonomy on indirect atomics and falls back
	// to iteration-level offloading" (§VII-B).
	if res.Stats["single.invocations"] == 0 {
		t.Fatal("SINGLE did not fall back to per-element invocations")
	}
	if res.Stats["single.chain_hops"] != 0 {
		t.Fatal("indirect atomics must not chain")
	}
}

func TestChainStreamVisitsEveryElement(t *testing.T) {
	const queries, nodes = 32, 1024
	k := chaseKernel(queries, nodes)
	m := testMachine(SINGLE)
	d := setupData(m, k)
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
	res, err := Run(m, k, SINGLE, DefaultParams(m.Tiles()), nil, d)
	if err != nil {
		t.Fatal(err)
	}
	// 32 queries × 8 nodes = 256 chain hops (one per visited node).
	if got := res.Stats["single.chain_hops"]; got != queries*8 {
		t.Fatalf("chain hops = %d, want %d", got, queries*8)
	}
}

func TestBaselineOrderingOnMOStore(t *testing.T) {
	// §VII-B: on multi-operand array codes, NS beats both baselines.
	k := moStoreKernel(testN)
	fill := func(m *machine.Machine, d *ir.Data) {
		fillSeq(d, "A", testN)
		fillSeq(d, "B", testN)
	}
	run := func(sys System) uint64 {
		m := testMachine(sys)
		d := setupData(m, k)
		fill(m, d)
		res, err := Run(m, k, sys, DefaultParams(m.Tiles()), nil, d)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.Cycles)
	}
	ns := run(NS)
	inst := run(INST)
	single := run(SINGLE)
	if ns >= inst {
		t.Fatalf("NS (%d) not faster than INST (%d) on MO store", ns, inst)
	}
	if ns >= single {
		t.Fatalf("NS (%d) not faster than SINGLE (%d) on MO store", ns, single)
	}
}
