package core

import (
	"testing"
	"testing/quick"

	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sim"
)

func testIO4() cpu.Config { return cpu.IO4() }

func TestPartitionProperty(t *testing.T) {
	// Partition covers [0,total) exactly, contiguously, with balanced
	// chunk sizes.
	f := func(totalRaw uint16, coresRaw uint8) bool {
		total := uint64(totalRaw)
		cores := int(coresRaw%64) + 1
		parts := Partition(total, cores)
		if len(parts) != cores {
			return false
		}
		var covered uint64
		prev := uint64(0)
		var minC, maxC uint64 = ^uint64(0), 0
		for _, p := range parts {
			if p[0] != prev || p[1] < p[0] {
				return false
			}
			size := p[1] - p[0]
			covered += size
			if size < minC {
				minC = size
			}
			if size > maxC {
				maxC = size
			}
			prev = p[1]
		}
		return covered == total && prev == total && maxC-minC <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyPartitionCores(t *testing.T) {
	// More cores than iterations: trailing cores get empty ranges and
	// the run must still complete.
	b := ir.NewKernel("tiny").Array("A", ir.I64, 4)
	b.Loop("i", 4)
	v := b.Load(ir.I64, ir.AffineAddr("A", 0, map[int]int64{0: 1}))
	b.Reduce(ir.I64, ir.Add, "acc", v, -1, 0)
	k := b.Build()
	m := testMachine(NS)
	d := setupData(m, k)
	for i := uint64(0); i < 4; i++ {
		d.Array("A").Set(i, 1)
	}
	res, err := Run(m, k, NS, DefaultParams(m.Tiles()), nil, d)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, accs := range res.Accs {
		sum += accs["acc"]
	}
	if sum != 4 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestSingleElementStreams(t *testing.T) {
	b := ir.NewKernel("one").Array("A", ir.I64, 16).Array("B", ir.I64, 16)
	b.Loop("i", 1)
	v := b.Load(ir.I64, ir.AffineAddr("A", 0, map[int]int64{0: 1}))
	b.Store(ir.I64, ir.AffineAddr("B", 0, map[int]int64{0: 1}), v)
	k := b.Build()
	for _, sys := range AllSystems() {
		m := testMachine(sys)
		d := setupData(m, k)
		d.Array("A").Set(0, 7)
		if _, err := Run(m, k, sys, DefaultParams(m.Tiles()), nil, d); err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		if d.Array("B").Get(0) != 7 {
			t.Fatalf("%v: store lost", sys)
		}
	}
}

func TestSCMLatencyMonotone(t *testing.T) {
	// Figure 13's premise at unit level: higher SE_L3→SCM issue latency
	// never decreases compute completion time.
	var prev sim.Time
	for _, lat := range []uint64{1, 4, 16} {
		p := DefaultParams(16)
		p.SCMIssueLatency = lat
		scm := NewSCM(p)
		done := scm.Submit(8, true, 0)
		if done < prev {
			t.Fatalf("latency %d finished earlier (%d < %d)", lat, done, prev)
		}
		prev = done
	}
}

func TestSCMROBBoundsOverlap(t *testing.T) {
	// Figure 14's premise: with a tiny ROB, many concurrent instances of
	// a large function serialize; a big ROB overlaps them.
	run := func(rob int) sim.Time {
		p := DefaultParams(16)
		p.SCCROB = rob
		scm := NewSCM(p)
		var last sim.Time
		for i := 0; i < 32; i++ {
			if d := scm.Submit(16, true, 0); d > last {
				last = d
			}
		}
		return last
	}
	small, large := run(8), run(256)
	if small <= large {
		t.Fatalf("ROB 8 (%d) not slower than ROB 256 (%d)", small, large)
	}
}

func TestSCMThroughputScalesWithSCCs(t *testing.T) {
	run := func(sccs int) sim.Time {
		p := DefaultParams(16)
		p.SCCCount = sccs
		scm := NewSCM(p)
		var last sim.Time
		for i := 0; i < 64; i++ {
			if d := scm.Submit(8, false, 0); d > last {
				last = d
			}
		}
		return last
	}
	if one, two := run(1), run(2); two >= one {
		t.Fatalf("2 SCCs (%d) not faster than 1 (%d)", two, one)
	}
}

func TestScalarPEBypassesSCM(t *testing.T) {
	p := DefaultParams(16)
	scm := NewSCM(p)
	withPE := computeAt(scm, p, true, 1, false, 100)
	p2 := p
	p2.ScalarPE = false
	withoutPE := computeAt(scm, p2, true, 1, false, 100)
	if withPE >= withoutPE {
		t.Fatalf("scalar PE (%d) not faster than SCM path (%d)", withPE, withoutPE)
	}
	if withPE != 100+scalarPELatency {
		t.Fatalf("PE latency = %d", withPE-100)
	}
}

func TestSplitByChain(t *testing.T) {
	elems := []streamElem{
		{pa: 1, chain: 1}, {pa: 2, chain: 1},
		{pa: 3, chain: 2}, {pa: 4, chain: 3}, {pa: 5, chain: 3},
	}
	parts := splitByChain(elems, 2)
	if len(parts) != 2 {
		t.Fatalf("parts = %d", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += len(p)
		for i := 1; i < len(p); i++ {
			if p[i].chain == p[i-1].chain && p[i].pa < p[i-1].pa {
				t.Fatal("within-chain order broken")
			}
		}
	}
	if total != 5 {
		t.Fatalf("elements lost: %d", total)
	}
	if splitByChain(nil, 4) != nil {
		t.Fatal("empty split should be nil")
	}
}

func TestIO4CoreTypeRuns(t *testing.T) {
	cfg := machine.CI()
	cfg.Cache.L2.SizeBytes = 16 << 10
	cfg.CoreType = testIO4()
	m := machine.New(cfg)
	k := reduceKernel(1 << 14)
	d := setupData(m, k)
	fillSeq(d, "A", 1<<14)
	res, err := Run(m, k, NS, DefaultParams(m.Tiles()), nil, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles")
	}
}
