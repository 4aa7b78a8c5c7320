// Package harness runs the paper's experiment matrix: (workload × system
// × parameters) → statistics, and renders every table and figure of the
// evaluation (§VII) as text. See DESIGN.md's experiment index for the
// figure-to-function mapping.
package harness

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/workloads"
)

// Config selects scale, core type and parameter overrides for a run.
type Config struct {
	Scale    workloads.Scale
	CoreType string // "IO4", "OOO4", "OOO8" (default)
	// Overrides adjusts runtime parameters declaratively (sensitivity
	// studies); the zero value keeps the paper defaults.
	Overrides runner.Overrides
	// Seed feeds workload initialization.
	Seed uint64
	// Jobs bounds how many simulations run concurrently when rendering a
	// figure (the -j flag); 0 means GOMAXPROCS. Figure output is
	// byte-identical at any value: each simulation is a self-contained
	// deterministic machine and rows are assembled in declaration order.
	Jobs int

	// Shards is kept only for perfbench/, the repo benchmark, which sets
	// it; the next change to the benchmark removes it. Every machine runs
	// on one engine.
	//
	// Deprecated: Shards is ignored.
	Shards int
}

// DefaultConfig returns the CI-scale OOO8 configuration.
func DefaultConfig() Config {
	return Config{Scale: workloads.ScaleCI, CoreType: runner.DefaultCoreType, Seed: 1}
}

// ParseConfig returns DefaultConfig at the named scale and core type
// (the -scale and -core flags); an unknown name is an error listing the
// valid ones.
func ParseConfig(scale, coreType string) (Config, error) {
	cfg := DefaultConfig()
	var err error
	if cfg.Scale, err = workloads.ParseScale(scale); err != nil {
		return cfg, err
	}
	ct, err := runner.ParseCoreType(coreType)
	cfg.CoreType = ct.Name
	return cfg, err
}

// Job describes the measurement of one workload on one system under this
// configuration.
func (c Config) Job(wname string, sys core.System) runner.Job {
	return runner.Job{
		Workload:  wname,
		System:    sys,
		Scale:     c.Scale,
		CoreType:  c.CoreType,
		Seed:      c.Seed,
		Overrides: c.Overrides,
	}
}

// MachineConfig builds the machine for a configuration's scale (see
// runner.MachineConfig).
func MachineConfig(cfg Config, prefetchers bool) (machine.Config, error) {
	return runner.MachineConfig(cfg.Job("", core.Base), prefetchers)
}

// Result is one (workload, system) measurement.
type Result = runner.Result

// RunOne simulates one workload on one system. It is the serial,
// uncached entry point; figure rendering goes through an Exp's memoizing
// pool instead.
func RunOne(wname string, sys core.System, cfg Config) (*Result, error) {
	return runner.Execute(cfg.Job(wname, sys))
}

// Table is a rendered experiment: named rows × named columns of values.
type Table struct {
	Title string
	Cols  []string
	Rows  []TableRow
	Note  string
}

// TableRow is one row.
type TableRow struct {
	Name  string
	Cells []float64
}

// AddRow appends a row.
func (t *Table) AddRow(name string, cells ...float64) {
	t.Rows = append(t.Rows, TableRow{Name: name, Cells: cells})
}

// String renders aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	fmt.Fprintf(&b, "%-14s", "")
	for _, c := range t.Cols {
		fmt.Fprintf(&b, "%14s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s", r.Name)
		for _, v := range r.Cells {
			fmt.Fprintf(&b, "%14.3f", v)
		}
		b.WriteByte('\n')
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// Col returns a column index by name (-1 when missing).
func (t *Table) Col(name string) int {
	for i, c := range t.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Cell returns a named cell.
func (t *Table) Cell(row, col string) (float64, bool) {
	ci := t.Col(col)
	if ci < 0 {
		return 0, false
	}
	for _, r := range t.Rows {
		if r.Name == row && ci < len(r.Cells) {
			return r.Cells[ci], true
		}
	}
	return 0, false
}

// geoMean returns the geometric mean of xs, the aggregate the paper uses
// for cross-workload speedups; 0 when empty. Non-positive inputs panic.
func geoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("harness: geoMean of non-positive value %v", x))
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}
