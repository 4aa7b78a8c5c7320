package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestFigureOutputDeterministicAcrossWorkers is the headline guarantee of
// the experiment runner: every figure renders byte-identically at -j 1
// and -j 4, because each simulation is a self-contained single-threaded
// engine and figures consume pool results in declaration order. The
// subset spans the taxonomy (multi-operand store, pointer-chase reduce,
// indirect atomic via Fig 16's bfs_push), and the figure list covers
// plain system sweeps (Fig 9) and both override directions (Fig 15
// ranges, Fig 16 locks).
func TestFigureOutputDeterministicAcrossWorkers(t *testing.T) {
	cfg1 := DefaultConfig()
	cfg1.Jobs = 1
	cfg4 := DefaultConfig()
	cfg4.Jobs = 4
	e1, e4 := NewExp(cfg1), NewExp(cfg4)
	if e1.Pool().Workers() != 1 || e4.Pool().Workers() != 4 {
		t.Fatalf("worker counts %d/%d, want 1/4", e1.Pool().Workers(), e4.Pool().Workers())
	}
	for _, fc := range []struct {
		id     string
		subset []string
		render func(*Exp, []string) (*Table, error)
	}{
		{"9", []string{"pathfinder", "hash_join"}, (*Exp).Fig9},
		{"15", []string{"pathfinder"}, (*Exp).Fig15},
		{"16", []string{"bfs_push"}, (*Exp).Fig16},
	} {
		serial, err := fc.render(e1, fc.subset)
		if err != nil {
			t.Fatalf("fig %s -j1: %v", fc.id, err)
		}
		parallel, err := fc.render(e4, fc.subset)
		if err != nil {
			t.Fatalf("fig %s -j4: %v", fc.id, err)
		}
		if serial.String() != parallel.String() {
			t.Errorf("fig %s differs between -j1 and -j4:\n--- j1 ---\n%s--- j4 ---\n%s",
				fc.id, serial, parallel)
		}
	}
}

// TestMemoCacheSharesJobsAcrossFigures pins the memoization contract:
// across Figures 9, 12 and 10 rendered through one Exp, every shared
// measurement — in particular each (workload, Base) denominator —
// simulates exactly once.
func TestMemoCacheSharesJobsAcrossFigures(t *testing.T) {
	subset := []string{"pathfinder", "hash_join"}
	cfg := DefaultConfig()
	cfg.Jobs = 4
	e := NewExp(cfg)

	// Figure 9: per workload, Base + the 7 evaluated systems = 16 fresh.
	if _, err := e.Fig9(subset); err != nil {
		t.Fatal(err)
	}
	if ex, h := e.Pool().Executed(), e.Pool().Hits(); ex != 16 || h != 0 {
		t.Fatalf("after Fig9: executed=%d hits=%d, want 16/0", ex, h)
	}

	// Figure 12 requests the same (workload, system) matrix: everything —
	// including each (workload, Base) — must come from the cache.
	if _, err := e.Fig12(subset); err != nil {
		t.Fatal(err)
	}
	if ex, h := e.Pool().Executed(), e.Pool().Hits(); ex != 16 || h != 16 {
		t.Fatalf("after Fig12: executed=%d hits=%d, want 16/16 (no re-simulation)", ex, h)
	}

	// Figure 10 adds the IO4/OOO4 core types (2 × 2 workloads ×
	// Base/NS/NS_decouple = 12 fresh); its OOO8 leg (6 jobs) is cached.
	if _, err := e.Fig10(subset); err != nil {
		t.Fatal(err)
	}
	if ex, h := e.Pool().Executed(), e.Pool().Hits(); ex != 28 || h != 22 {
		t.Fatalf("after Fig10: executed=%d hits=%d, want 28/22", ex, h)
	}
}

// TestAttributionReportInvariantAcrossWorkers extends the worker-count
// guarantee to the cycle-attribution profiler, and pins that attribution
// observes without perturbing: Fig 9 over a taxonomy-spanning pair (Base
// plus every stream system's SE/cache/NoC/DRAM charges) must give the
// same canonical run report (Timing and Exec stripped, stalls and
// histograms kept) at -j 1 and -j 8, and the same figure bytes with
// attribution on and off.
func TestAttributionReportInvariantAcrossWorkers(t *testing.T) {
	render := func(jobs int, attribution bool) (fig, report string) {
		cfg := DefaultConfig()
		cfg.Jobs = jobs
		e := NewExp(cfg)
		c := obs.NewCollector(0, 0)
		c.Attribution = attribution
		e.Pool().Obs = c
		tab, err := e.Fig9([]string{"pathfinder", "hash_join"})
		if err != nil {
			t.Fatalf("fig 9 j=%d attribution=%v: %v", jobs, attribution, err)
		}
		var buf bytes.Buffer
		if err := c.Report().Canonical().WriteJSON(&buf); err != nil {
			t.Fatalf("report j=%d: %v", jobs, err)
		}
		return tab.String(), buf.String()
	}
	fig, want := render(1, true)
	if !strings.Contains(want, `"attribution"`) {
		t.Fatalf("report carries no attribution section:\n%s", want)
	}
	if strings.Contains(want, `"exec"`) {
		t.Fatalf("canonical report kept the execution-dependent exec section:\n%s", want)
	}
	if fig8, got := render(8, true); got != want {
		t.Errorf("canonical attribution report differs at j=8 vs j=1:\n--- j=1 ---\n%s--- j=8 ---\n%s", want, got)
	} else if fig8 != fig {
		t.Errorf("fig 9 differs at j=8 vs j=1:\n--- j=1 ---\n%s--- j=8 ---\n%s", fig, fig8)
	}
	if off, _ := render(8, false); off != fig {
		t.Errorf("fig 9 differs with attribution off:\n--- on ---\n%s--- off ---\n%s", fig, off)
	}
}

// goldenSubset mirrors cmd/nsexp's -quick subset: it spans the taxonomy
// (MO store, affine load + indirect atomic, indirect reduce, pointer-chase
// reduce), so the digests below cover every stream kind and system.
var goldenSubset = []string{"pathfinder", "histogram", "pr_pull", "hash_join"}

// goldenPath is the recorded figure digests. Regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/harness -run TestFigureDigestsMatchGolden
//
// but only when a figure's output is *meant* to change: the file pins the
// engine's event-ordering contract across event-queue and cache/NoC
// data-structure rewrites, which must keep every figure byte-identical.
//
// The digests were last regenerated when the NoC adopted its canonical
// routing order: same-cycle sends are routed in (src node, per-src
// sequence) order at the end of the cycle instead of in the engine's
// global insertion order, so the digests also pin that order.
const goldenPath = "figure_digests.json"

// TestFigureDigestsMatchGolden renders every figure at CI scale over the
// -quick subset and compares each table's sha256 against the digests
// recorded in testdata. A mismatch means simulated behavior changed — a
// perf-only refactor must not trip this.
func TestFigureDigestsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure matrix is slow; run without -short")
	}
	e := NewExp(DefaultConfig())
	got := make(map[string]string)
	for _, id := range FigureIDs() {
		tab, err := e.Figure(id, goldenSubset)
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		sum := sha256.Sum256([]byte(tab.String()))
		got[id] = hex.EncodeToString(sum[:])
	}
	path := filepath.Join("testdata", goldenPath)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), path)
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden digests (generate with UPDATE_GOLDEN=1): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if got[id] == "" {
			t.Errorf("figure %s: recorded in golden but not rendered", id)
		} else if got[id] != want[id] {
			t.Errorf("figure %s: digest %s, want %s (output changed vs pre-rewrite baseline)", id, got[id][:12], want[id][:12])
		}
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			t.Errorf("figure %s: rendered but missing from golden (regenerate with UPDATE_GOLDEN=1)", id)
		}
	}
}
