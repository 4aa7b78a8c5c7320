package harness

import (
	"math"
	"strings"
	"testing"
	tquick "testing/quick"

	"repro/internal/core"
)

// quick is a fast workload subset spanning the taxonomy: MO store, affine
// load + indirect atomic, indirect reduce, pointer-chase reduce.
var quick = []string{"pathfinder", "histogram", "pr_pull", "hash_join"}

// sharedExp memoizes simulations across this package's tests, exactly as
// one nsexp invocation shares a pool across figures. Results are
// immutable and every simulation is deterministic for its job digest, so
// sharing cannot couple test outcomes — it only stops tests from
// re-simulating the measurements they have in common (the quick-set
// matrix alone is requested by four different tests).
var sharedExp = NewExp(DefaultConfig())

// sharedRunOne is RunOne through the shared memo pool.
func sharedRunOne(name string, sys core.System) (*Result, error) {
	return sharedExp.Pool().RunOne(sharedExp.Config().Job(name, sys))
}

func TestRunOneAllQuickWorkloads(t *testing.T) {
	for _, name := range quick {
		for _, sys := range []core.System{core.Base, core.NS, core.NSDecouple} {
			r, err := sharedRunOne(name, sys)
			if err != nil {
				t.Fatal(err)
			}
			if r.Cycles == 0 || r.TotalOps == 0 {
				t.Fatalf("%s/%v: empty result", name, sys)
			}
			if r.Energy.Total() <= 0 {
				t.Fatalf("%s/%v: no energy", name, sys)
			}
		}
	}
}

func TestFig1aFractionsSane(t *testing.T) {
	tab, err := sharedExp.Fig1a(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		sum := r.Cells[0] + r.Cells[1] + r.Cells[2]
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("%s: fractions sum to %v", r.Name, sum)
		}
		if r.Cells[0]+r.Cells[1] < 0.3 {
			t.Fatalf("%s: streamable fraction %v too low", r.Name, r.Cells[0]+r.Cells[1])
		}
	}
}

func TestFig1bOrdering(t *testing.T) {
	tab, err := sharedExp.Fig1b(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		noPriv, perfPriv, nearLLC := r.Cells[0], r.Cells[1], r.Cells[2]
		if noPriv != 1.0 {
			t.Fatalf("%s: No-Priv$ must normalize to 1", r.Name)
		}
		if perfPriv > noPriv+1e-9 {
			t.Fatalf("%s: perfect caches increased traffic", r.Name)
		}
		if nearLLC > perfPriv+1e-9 {
			t.Fatalf("%s: near-LLC (%v) not below perfect caches (%v) — the paper's key motivation",
				r.Name, nearLLC, perfPriv)
		}
	}
}

// TestByteLRUSteadyStateNoAllocs checks Figure 1b's byteLRU: once warm, a
// touch that misses and evicts, or hits away from the head, allocates
// nothing. The lines cycle through twice the budget, so every new line
// misses and evicts the least recent one.
func TestByteLRUSteadyStateNoAllocs(t *testing.T) {
	const size, lines = 64, 128
	const cycle = 2 * lines * size
	l := newByteLRU(lines * size)
	addr := uint64(0)
	round := func() {
		prev := addr
		addr = (addr + size) % cycle
		if l.touch(addr, size) {
			t.Fatalf("line %#x hit, want a miss past the budget", addr)
		}
		if !l.touch(prev, size) || !l.touch(addr, size) {
			t.Fatalf("lines %#x and %#x must both still be resident", prev, addr)
		}
	}
	l.touch(addr, size)
	for i := 0; i < 2*lines; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("steady-state touches: %v allocs/op, want 0", allocs)
	}
	if l.used != lines*size {
		t.Fatalf("LRU holds %d bytes, want the %d-byte budget", l.used, lines*size)
	}
}

func TestFig9ShapeOnQuickSet(t *testing.T) {
	tab, err := sharedExp.Fig9(quick)
	if err != nil {
		t.Fatal(err)
	}
	gm := tab.Rows[len(tab.Rows)-1]
	if gm.Name != "geomean" {
		t.Fatal("missing geomean row")
	}
	get := func(col string) float64 {
		v, ok := tab.Cell("geomean", col)
		if !ok {
			t.Fatalf("missing column %s", col)
		}
		return v
	}
	ns, dec, inst := get("NS"), get("NS_decouple"), get("INST")
	if ns <= 1.0 {
		t.Fatalf("NS geomean speedup %v <= 1 over Base", ns)
	}
	if dec < ns*0.95 {
		t.Fatalf("NS_decouple (%v) should be at least NS (%v)", dec, ns)
	}
	if ns <= inst {
		t.Fatalf("NS (%v) must beat INST (%v) — the paper's headline", ns, inst)
	}
}

func TestFig11OffloadFraction(t *testing.T) {
	tab, err := sharedExp.Fig11(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		streamable, offloaded := r.Cells[0], r.Cells[1]
		if offloaded > streamable+1e-9 {
			t.Fatalf("%s: offloaded %v exceeds streamable %v", r.Name, offloaded, streamable)
		}
		if offloaded < 0.5*streamable {
			t.Fatalf("%s: offloaded %v below half of streamable %v", r.Name, offloaded, streamable)
		}
	}
}

func TestFig12TrafficReduction(t *testing.T) {
	tab, err := sharedExp.Fig12([]string{"pathfinder", "pr_pull"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		base := r.Cells[0] + r.Cells[1] + r.Cells[2]
		nsIdx := tab.Col("NS/data")
		ns := r.Cells[nsIdx] + r.Cells[nsIdx+1] + r.Cells[nsIdx+2]
		if ns >= base {
			t.Fatalf("%s: NS traffic %v not below Base %v", r.Name, ns, base)
		}
	}
}

func TestFig16MRSWHelpsFailedCAS(t *testing.T) {
	tab, err := sharedExp.Fig16([]string{"bfs_push"})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := tab.Cell("bfs_push", "conflict ratio")
	if !ok {
		t.Fatal("missing cell")
	}
	if v > 0.7 {
		t.Fatalf("MRSW conflict ratio %v; expected large reduction on failed CASes", v)
	}
}

func TestTableVParameters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 1 // paper scale
	tab, err := TableV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := tab.Cell("core ROB", "value"); !ok || v != 224 {
		t.Fatalf("OOO8 ROB = %v, want 224 (Table V)", v)
	}
	if v, ok := tab.Cell("mesh width", "value"); !ok || v != 8 {
		t.Fatalf("mesh = %v, want 8", v)
	}
	if v, ok := tab.Cell("range window R", "value"); !ok || v != 8 {
		t.Fatalf("R = %v, want 8 (§IV-B)", v)
	}
}

func TestStaticTables(t *testing.T) {
	t1, t2, t4, area := TableI(), TableII(), TableIV(), AreaReport()
	for _, tab := range []*Table{t1, t2, t4, area} {
		s := tab.String()
		if !strings.Contains(s, "==") || len(tab.Rows) == 0 {
			t.Fatalf("table %q renders empty", tab.Title)
		}
	}
	if v, ok := t1.Cell("Near-Stream", "patterns/16"); !ok || v != 16 {
		t.Fatal("Table I near-stream coverage wrong")
	}
	if v, ok := t4.Cell("affine", "bytes"); !ok || v < 40 || v > 96 {
		t.Fatalf("Table IV affine size %v", v)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "x", Cols: []string{"a", "b"}}
	tab.AddRow("r1", 1.5, 2.25)
	s := tab.String()
	if !strings.Contains(s, "r1") || !strings.Contains(s, "1.500") {
		t.Fatalf("render: %s", s)
	}
	if _, ok := tab.Cell("r1", "b"); !ok {
		t.Fatal("cell lookup failed")
	}
	if _, ok := tab.Cell("r1", "missing"); ok {
		t.Fatal("missing column found")
	}
}

func TestGeoMean(t *testing.T) {
	got := geoMean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("geoMean(1,4) = %v, want 2", got)
	}
	if geoMean(nil) != 0 {
		t.Fatal("geoMean(nil) should be 0")
	}
}

func TestGeoMeanProperty(t *testing.T) {
	// Property: geomean lies between min and max of positive inputs.
	f := func(raw []uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			xs = append(xs, float64(v)+1) // ensure positive
		}
		if len(xs) == 0 {
			return true
		}
		g := geoMean(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := tquick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeoMeanNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("geoMean with 0 should panic")
		}
	}()
	geoMean([]float64{1, 0})
}
