package runner

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// TestExecuteRepeatableInProcess pins that re-executing the same Job in
// one process reproduces the exact cycle count — the property memoization
// and the -j1/-jN byte-identity guarantee both rest on. hash_join is the
// regression workload: its pointer chase keeps >64 prefetcher regions
// open, which once made the Bingo generation cap evict by map iteration
// order and the cycle count drift between identical runs.
func TestExecuteRepeatableInProcess(t *testing.T) {
	j := Job{Workload: "hash_join", System: core.Base, Scale: workloads.ScaleCI,
		CoreType: "OOO8", Seed: 1}
	a, err := Execute(j)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(j)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("re-execution diverged:\n%+v\n%+v", a, b)
	}
}

// counterReads collects the string literals used as map indexes in the
// named function of a Go source file: the counter names it reads from a
// machine snapshot.
func counterReads(t *testing.T, file, fn string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != fn {
			continue
		}
		ast.Inspect(fd, func(n ast.Node) bool {
			if ix, ok := n.(*ast.IndexExpr); ok {
				if lit, ok := ix.Index.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					names = append(names, name)
				}
			}
			return true
		})
	}
	if len(names) == 0 {
		t.Fatalf("%s: no counter reads found in %s", file, fn)
	}
	return names
}

// TestResultCounterNamesInterned guards the string-keyed reads behind
// Figures 10, 12 and 16: every counter name energy.Estimate and
// simulate look up must be interned on a CI machine after a Base and
// after an NS run. A renamed counter would otherwise read as 0 and
// silently change the figures.
func TestResultCounterNamesInterned(t *testing.T) {
	names := append(counterReads(t, "runner.go", "simulate"),
		counterReads(t, "../energy/energy.go", "Estimate")...)
	for _, sys := range []core.System{core.Base, core.NS} {
		j := job("histogram", sys)
		m := machine.New(MachineConfig(j, sys == core.Base))
		_, err := simulate(m, j, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			found := false
			for _, r := range m.Registries() {
				found = found || r.Has(name)
			}
			if !found {
				t.Errorf("%v: counter %q is read but never interned", sys, name)
			}
		}
	}
}
