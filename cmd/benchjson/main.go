// Command benchjson turns `go test -bench` output into the tracked
// bench/BENCH_sim.json performance baseline, and compares two baselines.
//
// Usage:
//
//	benchjson -o bench/BENCH_sim.json macro.txt micro.txt
//	benchjson -compare old.json new.json
//
// Positional arguments are files of `go test -bench -benchmem` output
// (use "-" for stdin). The report records the host's CPU count and
// GOMAXPROCS beside the parsed results, since ns/op is only comparable on
// a like host.
//
// With -compare, the two positional arguments are an old and a new report;
// per-benchmark ns/op and allocs/op deltas are printed and the exit status
// is non-zero when any benchmark regresses past -threshold (ratio of new
// to old) — `make benchcmp` wires this as the local performance gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Report is the BENCH_sim.json schema.
type Report struct {
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	NumCPU     int         `json:"num_cpu"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Date       string      `json:"date"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "bench/BENCH_sim.json", "output file")
	compare := flag.Bool("compare", false, "compare two reports (old.json new.json) instead of generating one")
	threshold := flag.Float64("threshold", 1.10, "with -compare: max tolerated new/old ratio per benchmark")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs exactly two arguments: old.json new.json"))
		}
		if !compareReports(flag.Arg(0), flag.Arg(1), *threshold) {
			os.Exit(1)
		}
		return
	}

	rep := Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	for _, f := range flag.Args() {
		benches, err := parseFile(f)
		if err != nil {
			fatal(err)
		}
		rep.Benchmarks = append(rep.Benchmarks, benches...)
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

func parseFile(path string) ([]Benchmark, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return parseBench(r)
}

// parseBench scans `go test -bench` output: "pkg:" lines set the current
// package; "BenchmarkX-N  iters  v unit  v unit ..." lines yield results.
func parseBench(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "BenchmarkX --- SKIP"
		}
		b := Benchmark{
			Package:    pkg,
			Name:       trimProcSuffix(fields[0]),
			Iterations: iters,
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				b.NsPerOp, _ = strconv.ParseFloat(v, 64)
			case "B/op":
				b.BytesPerOp, _ = strconv.ParseInt(v, 10, 64)
			case "allocs/op":
				b.AllocsPerOp, _ = strconv.ParseInt(v, 10, 64)
			}
		}
		out = append(out, b)
	}
	return out, sc.Err()
}

// trimProcSuffix drops the trailing -GOMAXPROCS from a benchmark name.
func trimProcSuffix(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// loadReport reads one BENCH_sim.json file.
func loadReport(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports prints per-benchmark deltas between two baselines and
// reports whether the new one passes: every shared benchmark's ns/op and
// allocs/op must stay within threshold× the old value. Improvements never
// fail, and benchmarks present in only one report are
// listed but not gated — a renamed benchmark should not block a change.
func compareReports(oldPath, newPath string, threshold float64) bool {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		fatal(err)
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		fatal(err)
	}
	key := func(b Benchmark) string { return b.Package + " " + b.Name }
	olds := make(map[string]Benchmark, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		olds[key(b)] = b
	}
	ratio := func(new, old float64) float64 {
		if old <= 0 {
			if new <= 0 {
				return 1
			}
			return math.Inf(1)
		}
		return new / old
	}
	fail := 0
	fmt.Printf("%-60s %14s %14s %8s %8s\n", "benchmark", "old ns/op", "new ns/op", "ns", "allocs")
	for _, nb := range newRep.Benchmarks {
		ob, ok := olds[key(nb)]
		if !ok {
			fmt.Printf("%-60s %14s %14.0f %8s %8s  (new)\n", key(nb), "-", nb.NsPerOp, "-", "-")
			continue
		}
		delete(olds, key(nb))
		rNs := ratio(nb.NsPerOp, ob.NsPerOp)
		rAl := ratio(float64(nb.AllocsPerOp), float64(ob.AllocsPerOp))
		mark := ""
		if rNs > threshold || rAl > threshold {
			mark = "  REGRESSION"
			fail++
		}
		fmt.Printf("%-60s %14.0f %14.0f %+7.1f%% %+7.1f%%%s\n",
			key(nb), ob.NsPerOp, nb.NsPerOp, (rNs-1)*100, (rAl-1)*100, mark)
	}
	for k := range olds {
		fmt.Printf("%-60s  (only in %s)\n", k, oldPath)
	}
	if fail > 0 {
		fmt.Printf("benchjson: %d regression(s) past the %.2fx threshold\n", fail, threshold)
		return false
	}
	fmt.Println("benchjson: within threshold")
	return true
}
