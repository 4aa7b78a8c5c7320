package core

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
)

// runWithSwitch runs the reduce kernel under NS with an optional
// coarse-grain context switch.
func runWithSwitch(t *testing.T, switchAt, gap uint64) (*RunResult, *machine.Machine) {
	t.Helper()
	k := reduceKernel(testN)
	m := testMachine(NS)
	d := setupData(m, k)
	fillSeq(d, "A", testN)
	p := DefaultParams(m.Tiles())
	p.ContextSwitchAt = switchAt
	p.ContextSwitchGap = gap
	res, err := Run(m, k, NS, p, nil, d)
	if err != nil {
		t.Fatal(err)
	}
	return res, m
}

func TestContextSwitchDrainsAndResumes(t *testing.T) {
	plain, _ := runWithSwitch(t, 0, 0)
	switched, m := runWithSwitch(t, 2000, 5000)

	if switched.Stats["ns.ctxswitch_drains"] == 0 {
		t.Fatal("no streams drained at the context switch")
	}
	if switched.Stats["ns.resumes"] == 0 {
		t.Fatal("no streams resumed after the context switch")
	}
	// Functional result unchanged (precise state preserved).
	var a, b uint64
	for _, accs := range plain.Accs {
		a += accs["acc"]
	}
	for _, accs := range switched.Accs {
		b += accs["acc"]
	}
	if a != b {
		t.Fatalf("context switch changed the result: %d vs %d", a, b)
	}
	// The switch costs time: at least part of the gap shows up.
	if switched.Cycles <= plain.Cycles {
		t.Fatalf("switched run (%d) not slower than plain (%d)", switched.Cycles, plain.Cycles)
	}
	_ = m
}

func TestContextSwitchDuringAtomics(t *testing.T) {
	// Atomic streams must release their RMW locks before draining — a
	// switch mid-histogram must neither deadlock nor corrupt counts.
	k := atomicKernel(testN, 64)
	m := testMachine(NS)
	d := setupData(m, k)
	fillSeq(d, "A", testN)
	p := DefaultParams(m.Tiles())
	p.ContextSwitchAt = 3000
	p.ContextSwitchGap = 2000
	if _, err := Run(m, k, NS, p, nil, d); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for i := uint64(0); i < 64; i++ {
		total += d.Array("hist").Get(i)
	}
	if total != testN {
		t.Fatalf("histogram total %d after context switch", total)
	}
}

func TestContextSwitchAfterCompletionHarmless(t *testing.T) {
	// A switch scheduled beyond the run's natural end must not deadlock
	// or fire resumes.
	b := ir.NewKernel("tiny2").Array("A", ir.I64, 1024)
	b.Loop("i", 1024)
	v := b.Load(ir.I64, ir.AffineAddr("A", 0, map[int]int64{0: 1}))
	b.Reduce(ir.I64, ir.Add, "acc", v, -1, 0)
	k := b.Build()
	m := testMachine(NS)
	d := setupData(m, k)
	p := DefaultParams(m.Tiles())
	p.ContextSwitchAt = 100_000_000
	p.ContextSwitchGap = 10
	if _, err := Run(m, k, NS, p, nil, d); err != nil {
		t.Fatal(err)
	}
}
