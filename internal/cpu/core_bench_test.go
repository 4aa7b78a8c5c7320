package cpu

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkCoreWindow measures the core model's host cost per simulated
// micro-op on a dependence-heavy stream: every op depends on one to three
// of the previous eight, and one in three is a load served by a
// fixed-latency stub memory, so the OOO8 issue queue stays full of ops
// parked behind in-flight loads. ns/op and allocs/op are per micro-op.
func BenchmarkCoreWindow(b *testing.B) {
	e := sim.NewEngine()
	r := sim.NewRand(1)
	src := &genSource{gen: func(op *MicroOp, seq uint64) {
		op.Class = IntAlu
		switch r.Intn(6) {
		case 0, 1:
			op.Class = Load
			op.Mem.Addr = uint64(r.Intn(1<<20)) * 8
		case 2:
			op.Class = FPAlu
		}
		for k := 1 + r.Intn(3); k > 0 && seq > 0; k-- {
			back := 1 + uint64(r.Intn(8))
			if back > seq {
				back = seq
			}
			op.Deps = append(op.Deps, seq-back)
		}
	}}
	c := NewCore(e, OOO8(), src, fixedMem(e, 40))
	src.budget = b.N
	b.ReportAllocs()
	b.ResetTimer()
	c.Start()
	e.Run()
	if c.OpsRetired != uint64(b.N) {
		b.Fatalf("retired %d of %d ops", c.OpsRetired, b.N)
	}
}
