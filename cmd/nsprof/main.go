// Command nsprof renders the observability files a run writes. Its default
// mode turns the cycle-attribution section of a run report into a
// where-the-cycles-went breakdown. Feed it the JSON that
// `nsexp -report r.json` (or nsd's /api/v1/report) produces with
// attribution enabled:
//
//	nsexp -fig 9 -quick -report r.json
//	nsprof r.json                 # aggregate stall breakdown, all jobs
//	nsprof -job histogram r.json  # only jobs whose key matches
//	nsprof -per-job r.json        # one block per job instead of the sum
//	nsprof -top 5 r.json          # cap the breakdown at 5 rows
//	nsprof -                      # read the report from stdin
//
// It prints the stall breakdown (per reason: component, count, cycles,
// share of attributed cycles) with the canonical wait histograms.
//
// The trace subcommand summarizes a Chrome trace_event file written by
// `nsexp -trace` (or any obs.WriteChromeTrace output) instead:
//
//	nsexp -fig 9 -quick -trace t.json
//	nsprof trace t.json
//	nsprof trace -top 20 t.json
//
// For each traced job (one trace "process") it prints a per-tile
// timeline — event counts by category, busy cycles, and the active span —
// followed by the top-N longest-duration events, which are the stalls
// worth looking at first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches to the report breakdown or, when the first argument is
// "trace", to the trace summary; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "trace" {
		return runTrace(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("nsprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jobPat = fs.String("job", "", "only jobs whose key contains this substring")
		top    = fs.Int("top", 0, "show at most this many stall rows (0 = all)")
		perJob = fs.Bool("per-job", false, "print one breakdown per job instead of the aggregate")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: nsprof [-job substr] [-top n] [-per-job] report.json\n       nsprof trace [-top n] trace.json")
		return 2
	}
	rep, err := readReport(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	jobs := make([]obs.JobReport, 0, len(rep.Jobs))
	for _, j := range rep.Jobs {
		if *jobPat != "" && !strings.Contains(j.Key, *jobPat) {
			continue
		}
		if j.Attribution != nil {
			jobs = append(jobs, j)
		}
	}
	if len(jobs) == 0 {
		fmt.Fprintln(stdout, "no attribution data in the report (run with -stall-report or a report-enabled collector, and check -job)")
		return 0
	}

	if *perJob {
		for _, j := range jobs {
			fmt.Fprintf(stdout, "== %s ==\n", j.Key)
			printBreakdown(stdout, j.Attribution.Stalls, j.Attribution.Hists, j.SimCycles, *top)
			fmt.Fprintln(stdout)
		}
	} else {
		stalls, hists, cycles := aggregate(jobs)
		fmt.Fprintf(stdout, "== %d job(s) ==\n", len(jobs))
		printBreakdown(stdout, stalls, hists, cycles, *top)
		fmt.Fprintln(stdout)
	}
	return 0
}

// readReport loads a run report from path ("-" = stdin).
func readReport(path string) (*obs.RunReport, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var rep obs.RunReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// aggregate sums the jobs' stall entries by reason and their histograms
// by name; cycles is the summed simulated cycle count (the denominator
// of the share column).
func aggregate(jobs []obs.JobReport) ([]obs.StallEntry, []obs.HistogramReport, uint64) {
	type acc struct {
		component     string
		count, cycles uint64
	}
	byReason := map[string]*acc{}
	byHist := map[string]*obs.HistogramReport{}
	var cycles uint64
	var reasons, hists []string
	for _, j := range jobs {
		cycles += j.SimCycles
		for _, s := range j.Attribution.Stalls {
			a := byReason[s.Reason]
			if a == nil {
				a = &acc{component: s.Component}
				byReason[s.Reason] = a
				reasons = append(reasons, s.Reason)
			}
			a.count += s.Count
			a.cycles += s.Cycles
		}
		for _, h := range j.Attribution.Hists {
			m := byHist[h.Name]
			if m == nil {
				m = &obs.HistogramReport{Name: h.Name}
				byHist[h.Name] = m
				hists = append(hists, h.Name)
			}
			m.Count += h.Count
			m.Sum += h.Sum
		}
	}
	sort.Strings(reasons)
	sort.Strings(hists)
	outS := make([]obs.StallEntry, 0, len(reasons))
	for _, r := range reasons {
		a := byReason[r]
		outS = append(outS, obs.StallEntry{Reason: r, Component: a.component, Count: a.count, Cycles: a.cycles})
	}
	outH := make([]obs.HistogramReport, 0, len(hists))
	for _, h := range hists {
		outH = append(outH, *byHist[h])
	}
	return outS, outH, cycles
}

// printBreakdown renders stall rows sorted by attributed cycles (then
// count), with each row's share of the total attributed cycles.
func printBreakdown(w io.Writer, stalls []obs.StallEntry, hists []obs.HistogramReport, simCycles uint64, top int) {
	rows := append([]obs.StallEntry(nil), stalls...)
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Cycles != rows[j].Cycles {
			return rows[i].Cycles > rows[j].Cycles
		}
		return rows[i].Count > rows[j].Count
	})
	var totalCyc uint64
	for _, r := range rows {
		totalCyc += r.Cycles
	}
	if top > 0 && len(rows) > top {
		fmt.Fprintf(w, "(top %d of %d stall reasons)\n", top, len(rows))
		rows = rows[:top]
	}
	fmt.Fprintf(w, "%-22s %-6s %14s %14s %7s\n", "stall", "comp", "count", "cycles", "%cyc")
	for _, r := range rows {
		pct := 0.0
		if totalCyc > 0 {
			pct = 100 * float64(r.Cycles) / float64(totalCyc)
		}
		fmt.Fprintf(w, "%-22s %-6s %14d %14d %6.1f%%\n", r.Reason, r.Component, r.Count, r.Cycles, pct)
	}
	if simCycles > 0 && totalCyc > 0 {
		fmt.Fprintf(w, "attributed wait cycles: %d over %d simulated cycles\n", totalCyc, simCycles)
	}
	for _, h := range hists {
		mean := 0.0
		if h.Count > 0 {
			mean = float64(h.Sum) / float64(h.Count)
		}
		fmt.Fprintf(w, "hist %-26s count=%d sum=%d mean=%.2f\n", h.Name, h.Count, h.Sum, mean)
	}
}
