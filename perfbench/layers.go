package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// simLayers are the program's own packages that get a <layer>.self_s
// row in the traced run's layer table. Every other repro package
// (flatmap, offload, energy, isa, harness, …) folds into "other".
var simLayers = []string{
	"sim", "cpu", "core", "cache", "noc", "mem", "tlb", "prefetch",
	"workloads", "ir", "compiler", "machine", "runner", "serve", "obs", "stats",
}

// allLayers are the rows of the layer table: simLayers plus the runtime
// and other buckets, which together cover every profile sample.
var allLayers = append(append([]string(nil), simLayers...), "runtime", "other")

// layerOf folds a profiled function symbol into its layer: one of
// simLayers, "runtime" (scheduler, GC, allocator, maps, memmove and the
// assembly stubs that carry no package), or "other".
func layerOf(fn string) string {
	pkg := packageOf(fn)
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		first, _, _ := strings.Cut(rest, "/")
		for _, l := range simLayers {
			if l == first {
				return l
			}
		}
		return "other"
	}
	if pkg == "" || pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// packageOf returns the import path of a Go function symbol such as
// "repro/internal/cache.(*Array).Lookup" or "runtime.memmove"; "" when
// the symbol has no package qualifier. Generic instantiations may carry
// import paths inside their brackets, so only the text before the first
// '[' is considered.
func packageOf(fn string) string {
	if i := strings.Index(fn, "["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return ""
	}
	return fn[:slash+1+dot]
}

// topLine matches one row of `go tool pprof -top -unit=ms`:
// flat flat% sum% cum cum% symbol [(inline)].
var topLine = regexp.MustCompile(`^\s*([0-9.]+)(ms)?\s+[0-9.]+%\s+[0-9.]+%\s+[0-9.]+(?:ms)?\s+[0-9.]+%\s+(.+?)(?:\s+\((?:partial-)?inline\))?\s*$`)

// foldTop sums the flat (self) milliseconds of a pprof -top listing per
// layer and per package.
func foldTop(r io.Reader) (layerMS, pkgMS map[string]float64, err error) {
	layerMS, pkgMS = map[string]float64{}, map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := topLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ms, perr := strconv.ParseFloat(m[1], 64)
		if perr != nil {
			return nil, nil, fmt.Errorf("pprof row %q: %w", sc.Text(), perr)
		}
		if ms == 0 {
			continue
		}
		layerMS[layerOf(m[3])] += ms
		pkgMS[packageOf(m[3])] += ms
	}
	return layerMS, pkgMS, sc.Err()
}

// foldProfile runs `go tool pprof` over a CPU profile and folds its
// self time by layer.
func foldProfile(path string) (layerMS, pkgMS map[string]float64, err error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-unit=ms", path)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return foldTop(strings.NewReader(string(out)))
}

// layerTable renders the folded self time as rows sorted by share, with
// the "other" bucket's largest packages named so nothing hides in it.
func layerTable(w io.Writer, layerMS, pkgMS map[string]float64) {
	total := 0.0
	for _, v := range layerMS {
		total += v
	}
	type row struct {
		name string
		ms   float64
	}
	var rows []row
	for _, l := range allLayers {
		rows = append(rows, row{l, layerMS[l]})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].ms > rows[j].ms })
	fmt.Fprintf(w, "layer table (CPU profile self time, %.2f s sampled):\n", total/1e3)
	sum := 0.0
	for _, r := range rows {
		share := frac(r.ms, total) * 100
		sum += share
		fmt.Fprintf(w, "  %-10s %8.3f s  %5.1f%%\n", r.name, r.ms/1e3, share)
	}
	fmt.Fprintf(w, "  %-10s %8.3f s  %5.1f%%\n", "total", total/1e3, sum)
	var other []row
	for p, v := range pkgMS {
		if layerOf(p+".f") == "other" {
			other = append(other, row{p, v})
		}
	}
	sort.Slice(other, func(i, j int) bool { return other[i].ms > other[j].ms })
	if len(other) > 6 {
		other = other[:6]
	}
	for _, r := range other {
		fmt.Fprintf(w, "    other: %-28s %7.3f s\n", r.name, r.ms/1e3)
	}
}
