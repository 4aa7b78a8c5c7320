package cpu

import (
	"testing"

	"repro/internal/sim"
)

// genSource feeds an endless op stream from a recycled pool (it is an
// OpRecycler, like the stream runtime's source): gen fills op number seq
// in place. It stalls whenever budget runs out, so a caller can meter ops
// through the core and drain the engine in between.
type genSource struct {
	free   []*MicroOp
	gen    func(op *MicroOp, seq uint64)
	seq    uint64
	budget int
}

func (s *genSource) Next() (*MicroOp, FetchResult) {
	if s.budget == 0 {
		return nil, FetchStall
	}
	s.budget--
	var op *MicroOp
	if n := len(s.free); n > 0 {
		op = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		op = &MicroOp{Mem: &MemRef{}}
	}
	op.Deps = op.Deps[:0]
	op.ExtraLatency = 0
	s.gen(op, s.seq)
	s.seq++
	return op, FetchOp
}

func (s *genSource) Recycle(op *MicroOp) { s.free = append(s.free, op) }

// TestMemOpRoundTripAllocFree pins the core's side of the memory path: a
// load, issued through a stub MemFunc and completed by the engine, with a
// dependent op parked behind it in the issue queue and woken by its
// completion, allocates nothing once the window's slots are warm.
func TestMemOpRoundTripAllocFree(t *testing.T) {
	e := sim.NewEngine()
	src := &genSource{gen: func(op *MicroOp, seq uint64) {
		if seq%2 == 0 {
			op.Class = Load
			op.Mem.Addr = seq * 64
			return
		}
		op.Class = IntAlu
		op.Deps = append(op.Deps, seq-1)
	}}
	c := NewCore(e, OOO8(), src, fixedMem(e, 30))
	step := func() {
		src.budget = 2
		c.Wake()
		e.Run()
	}
	c.Start()
	for i := 0; i < 4*len(c.rob); i++ { // warm every ROB slot and LSQ slot
		step()
	}
	if a := testing.AllocsPerRun(1000, step); a != 0 {
		t.Errorf("load + dependent op round trip: %.1f allocs/op, want 0", a)
	}
	if c.OpsRetired != src.seq || c.MemOps != src.seq/2 {
		t.Fatalf("retired %d ops (%d memory) of %d fed", c.OpsRetired, c.MemOps, src.seq)
	}
}
