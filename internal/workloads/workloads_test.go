package workloads

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/tlb"
)

// execute runs a workload functionally and returns its accumulators.
func execute(t *testing.T, w *Workload) (*ir.Data, map[string]uint64) {
	t.Helper()
	d := ir.NewData(tlb.NewAddressSpace())
	d.AllocArrays(w.Kernel)
	w.Init(d, sim.NewRand(99))
	total := outerTrip(t, w)
	accs, err := ir.Exec(w.Kernel, d, w.Params, 0, total, nil)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return d, accs
}

func outerTrip(t *testing.T, w *Workload) uint64 {
	l := w.Kernel.Loops[0]
	if l.Trip > 0 {
		return l.Trip
	}
	if v, ok := w.Params[l.TripParam]; ok {
		return v
	}
	if v, ok := w.Kernel.Params[l.TripParam]; ok {
		return v
	}
	t.Fatalf("%s: no outer trip", w.Name)
	return 0
}

func TestAllWorkloadsBuildAndValidate(t *testing.T) {
	for _, name := range Names() {
		w := Get(name, ScaleCI)
		if w.Name != name {
			t.Fatalf("name mismatch: %s vs %s", w.Name, name)
		}
		if err := w.Kernel.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.AddrClass == "" || w.CmpClass == "" {
			t.Fatalf("%s: missing taxonomy labels", name)
		}
	}
	if len(Names()) != 14 {
		t.Fatalf("want the 14 workloads of Table VI, got %d", len(Names()))
	}
}

func TestAllWorkloadsExecuteFunctionally(t *testing.T) {
	for _, name := range Names() {
		w := Get(name, ScaleCI)
		d, accs := execute(t, w)
		if w.Check != nil {
			if err := w.Check(d, accs); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestAllWorkloadsCompileToStreams(t *testing.T) {
	// Every workload must yield at least one stream, and its taxonomy
	// class must appear among the compiled streams.
	for _, name := range Names() {
		w := Get(name, ScaleCI)
		p, err := compiler.Compile(w.Kernel)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(p.Streams) == 0 {
			t.Fatalf("%s: no streams recognized", name)
		}
		var hasAtomic, hasReduce, hasStore, hasPtr bool
		for _, s := range p.Streams {
			if s.Atomic {
				hasAtomic = true
			}
			if s.CT == isa.ComputeReduce {
				hasReduce = true
			}
			if s.CT == isa.ComputeStore {
				hasStore = true
			}
			if s.Kind == isa.KindPointerChase {
				hasPtr = true
			}
		}
		switch w.CmpClass {
		case "Atomic":
			if !hasAtomic {
				t.Fatalf("%s: no atomic stream compiled", name)
			}
		case "Reduce":
			if !hasReduce {
				t.Fatalf("%s: no reduction stream compiled", name)
			}
		case "Store":
			if !hasStore {
				t.Fatalf("%s: no store stream compiled", name)
			}
		}
		if w.AddrClass == "Ptr." && !hasPtr {
			t.Fatalf("%s: no pointer-chase stream compiled", name)
		}
	}
}

func TestMOWorkloadsFullyDecouple(t *testing.T) {
	// The sync-free stencil kernels must fully decouple (§V, Figure 8).
	for _, name := range []string{"pathfinder", "srad", "hotspot", "hotspot3d"} {
		w := Get(name, ScaleCI)
		p, err := compiler.Compile(w.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		if !p.FullyDecoupled {
			t.Fatalf("%s: not fully decoupled under s_sync_free", name)
		}
	}
}

func TestKroneckerProperties(t *testing.T) {
	g := Kronecker(10, 8, 5)
	if g.Nodes != 1024 {
		t.Fatalf("nodes = %d", g.Nodes)
	}
	if g.Edges() != 8192 {
		t.Fatalf("edges = %d", g.Edges())
	}
	// CSR invariants.
	if g.Offsets[0] != 0 || g.Offsets[g.Nodes] != g.Edges() {
		t.Fatal("offsets endpoints wrong")
	}
	for u := uint64(0); u < g.Nodes; u++ {
		if g.Offsets[u] > g.Offsets[u+1] {
			t.Fatal("offsets not monotone")
		}
	}
	for _, c := range g.Cols {
		if c >= g.Nodes {
			t.Fatal("edge target out of range")
		}
	}
	for _, w := range g.Weights {
		if w < 1 || w > 255 {
			t.Fatalf("weight %d outside [1,255]", w)
		}
	}
	// Power-law-ish skew: max degree far above average.
	maxDeg := uint64(0)
	for u := uint64(0); u < g.Nodes; u++ {
		if d := g.Offsets[u+1] - g.Offsets[u]; d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 4*8 {
		t.Fatalf("max degree %d; Kronecker skew missing", maxDeg)
	}
}

func TestKroneckerDeterministic(t *testing.T) {
	a, b := Kronecker(8, 4, 9), Kronecker(8, 4, 9)
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			t.Fatal("same-seed graphs differ")
		}
	}
}

func TestHistogramTotals(t *testing.T) {
	w := Get("histogram", ScaleCI)
	d, accs := execute(t, w)
	if err := w.Check(d, accs); err != nil {
		t.Fatal(err)
	}
}

func TestBinTreeHitsPlausible(t *testing.T) {
	w := Get("bin_tree", ScaleCI)
	_, accs := execute(t, w)
	hits := accs["hits"]
	// Even keys exist, queries uniform over [0, 2N): ~half should hit.
	if hits == 0 {
		t.Fatal("bin_tree found nothing")
	}
	if hits > 2<<10 {
		t.Fatalf("hits %d exceed query count", hits)
	}
}

func TestHashJoinHitRate(t *testing.T) {
	w := Get("hash_join", ScaleCI)
	_, accs := execute(t, w)
	joined := accs["joined"]
	// ~1/8 of 8k probes should match (Table VI hit rate 1/8).
	if joined < 500 || joined > 2500 {
		t.Fatalf("hash_join matched %d of 8192; want ~1/8", joined)
	}
}

func TestSSSPNeverIncreasesDistance(t *testing.T) {
	w := Get("sssp", ScaleCI)
	d, _ := execute(t, w)
	di, dn := d.Array("dist"), d.Array("distNext")
	for u := uint64(0); u < di.Len(); u++ {
		if dn.Get(u) > di.Get(u) {
			t.Fatalf("sssp: distNext[%d]=%d > dist=%d", u, dn.Get(u), di.Get(u))
		}
	}
}

func TestPrPushConservesMass(t *testing.T) {
	w := Get("pr_push", ScaleCI)
	d, _ := execute(t, w)
	next := d.Array("next")
	var sum float64
	for u := uint64(0); u < next.Len(); u++ {
		sum += next.GetF(u)
	}
	// Each of ~32k edges pushed 1/N: total ≈ edges/N ≈ 8.
	if sum < 1 || sum > 32 {
		t.Fatalf("pr_push total mass %v implausible", sum)
	}
}

func TestPaperScaleSizesLarger(t *testing.T) {
	for _, name := range []string{"histogram", "bin_tree"} {
		ci := Get(name, ScaleCI)
		paper := Get(name, ScalePaper)
		var ciLen, paperLen uint64
		for _, a := range ci.Kernel.Arrays {
			ciLen += a.Len
		}
		for _, a := range paper.Kernel.Arrays {
			paperLen += a.Len
		}
		if paperLen <= ciLen {
			t.Fatalf("%s: paper scale (%d) not larger than CI (%d)", name, paperLen, ciLen)
		}
	}
}
