package nearstream

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

func TestWorkloadsList(t *testing.T) {
	if len(Workloads()) != 14 {
		t.Fatalf("want 14 workloads, got %d", len(Workloads()))
	}
	for _, n := range Workloads() {
		if GetWorkload(n, ScaleCI) == nil {
			t.Fatalf("workload %s missing", n)
		}
	}
}

func TestSystemsList(t *testing.T) {
	if len(Systems()) != 8 {
		t.Fatalf("want 8 design points, got %d", len(Systems()))
	}
	if Systems()[0] != Base || Systems()[len(Systems())-1] != NSDecouple {
		t.Fatal("system order changed")
	}
}

func TestRunKernelPublicAPI(t *testing.T) {
	const n = 1 << 14
	b := NewKernelBuilder("api_sum")
	b.Array("A", ir.I64, n)
	b.Loop("i", n)
	v := b.Load(ir.I64, ir.AffineAddr("A", 0, map[int]int64{0: 1}))
	b.Reduce(ir.I64, ir.Add, "acc", v, -1, 0)
	k := b.Build()

	plan, err := Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Streams) == 0 {
		t.Fatal("no streams compiled")
	}

	res, err := RunKernel(k, NS, DefaultConfig(), nil, func(d *ir.Data) {
		a := d.Array("A")
		for i := uint64(0); i < n; i++ {
			a.Set(i, 2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, accs := range res.Accs {
		sum += accs["acc"]
	}
	if sum != 2*n {
		t.Fatalf("sum = %d, want %d", sum, 2*n)
	}
}

// TestRunKernelUnknownCoreType checks that a configuration naming an
// unknown core type is an error from RunKernel, not a panic.
func TestRunKernelUnknownCoreType(t *testing.T) {
	b := NewKernelBuilder("api_bogus_core")
	b.Array("A", ir.I64, 16)
	b.Loop("i", 16)
	b.Load(ir.I64, ir.AffineAddr("A", 0, map[int]int64{0: 1}))
	cfg := DefaultConfig()
	cfg.CoreType = "bogus"
	_, err := RunKernel(b.Build(), NS, cfg, nil, nil)
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("RunKernel with core type bogus: err = %v, want one naming \"bogus\"", err)
	}
	if _, err := NewMachine(cfg, false); err == nil {
		t.Fatal("NewMachine accepted core type bogus")
	}
}

func TestFigureUnknownID(t *testing.T) {
	if _, err := Figure("99", DefaultConfig(), nil); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if _, err := StaticTable("99"); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := NewExperiment(DefaultConfig()).Figure("99", nil); err == nil {
		t.Fatal("unknown figure accepted by Experiment")
	}
}

func TestExperimentMemoizesAcrossFigures(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Jobs = 2
	exp := NewExperiment(cfg)
	tab1, err := exp.Figure("11", []string{"histogram"})
	if err != nil {
		t.Fatal(err)
	}
	// The same measurement requested again renders from the cache.
	tab2, err := exp.Figure("11", []string{"histogram"})
	if err != nil {
		t.Fatal(err)
	}
	if tab1.String() != tab2.String() {
		t.Fatal("re-rendered figure differs")
	}
	executed, hits := exp.CacheStats()
	if executed != 1 || hits != 1 {
		t.Fatalf("executed=%d hits=%d, want 1/1", executed, hits)
	}
}

func TestStaticTablesViaAPI(t *testing.T) {
	for _, id := range []string{"1", "2", "4", "area"} {
		tab, err := StaticTable(id)
		if err != nil || len(tab.Rows) == 0 {
			t.Fatalf("table %s: %v", id, err)
		}
	}
}
