package obs

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"sort"
)

// Cycle attribution: where did the cycles go?
//
// An Attribution is a job's stall accounting. Every blocking site in
// the model — a core that cannot dispatch, a cache request merged into an
// in-flight miss, a NoC send queued behind a busy link, a DRAM access
// behind the controller — charges the stall to a typed reason. Charging
// follows the package invariant: a nil *Attribution is the off switch, the
// Charge/Observe methods are nil-receiver-safe single-branch no-ops, and
// an enabled charge is two fixed-array adds. No maps, no allocation, ever.
//
// Every charge site fires at a deterministic simulation event, so the
// totals are byte-identical at any -j. Host-side execution diagnostics
// (windows, idle-elision savings, wheel occupancy) are NOT charges: they
// describe how the engine ran, so they ride in the report's Exec section,
// which Canonical() strips alongside Timing and Env.

// StallReason enumerates the blocking causes the model charges cycles to.
type StallReason uint8

const (
	// cpu: the out-of-order core's own structural stalls.
	StallROBFull      StallReason = iota // retire blocked on unresolved ROB head
	StallLSQFull                         // dispatch blocked on a full load/store queue
	StallIQFull                          // dispatch blocked on a full issue queue
	StallFetchStarved                    // core idle waiting for upstream ops
	// core: the stream engine runtime.
	StallElementWait  // remote stream parked on an unproduced element
	StallMigration    // stream computation migrated to another bank
	StallOffloadQueue // stream advance blocked on its in-flight bound
	// cache: the coherence/banking substrate.
	StallMSHRMerge    // request merged into an in-flight miss (MSHR hit)
	StallLineLock     // line-lock acquire lost to a concurrent holder
	StallBankConflict // bank transaction queued behind a busy line
	// noc / mem: the interconnect and memory controllers.
	StallLinkBackpressure // send serialized behind earlier traffic on a link
	StallDRAMQueue        // access queued behind the controller's busy window

	NumStallReasons int = iota
)

// stallNames and stallComponents are indexed by StallReason.
var stallNames = [NumStallReasons]string{
	"rob_full", "lsq_full", "iq_full", "fetch_starved",
	"element_wait", "migration", "offload_queue",
	"mshr_merge", "line_lock", "bank_conflict",
	"link_backpressure", "dram_queue",
}

var stallComponents = [NumStallReasons]string{
	"cpu", "cpu", "cpu", "cpu",
	"core", "core", "core",
	"cache", "cache", "cache",
	"noc", "mem",
}

// String returns the reason's snake_case report name.
func (r StallReason) String() string { return stallNames[r] }

// Component returns the subsystem the reason belongs to.
func (r StallReason) Component() string { return stallComponents[r] }

// HistKind enumerates the model-level (canonical)
// log-bucketed histograms an Attribution carries.
type HistKind uint8

const (
	HistNoCLinkWait   HistKind = iota // per-link-traversal queue wait, cycles
	HistDRAMQueueWait                 // per-access controller queue wait, cycles

	NumHistKinds int = iota
)

var histNames = [NumHistKinds]string{
	"noc_link_wait_cycles",
	"dram_queue_wait_cycles",
}

// String returns the histogram's report/export name.
func (k HistKind) String() string { return histNames[k] }

// HistBuckets is the bucket count of a log-bucketed histogram: value v
// lands in bucket bits.Len64(v), so bucket 0 holds exact zeros and bucket
// i>0 holds [2^(i-1), 2^i-1]. 64-bit values need buckets 0..64.
const HistBuckets = 65

// Hist is a fixed-size log-bucketed histogram. Observing is two array
// adds; the zero value is ready to use.
type Hist struct {
	Buckets [HistBuckets]uint64
	Sum     uint64
	Count   uint64
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	h.Buckets[bits.Len64(v)]++
	h.Sum += v
	h.Count++
}

// BucketUpper returns bucket i's inclusive upper bound (2^i - 1).
func BucketUpper(i int) uint64 {
	return 1<<uint(i) - 1
}

// Attribution is one job's cycle attribution. The zero value is ready;
// a nil *Attribution means attribution is off and every method no-ops.
type Attribution struct {
	Counts [NumStallReasons]uint64
	Cycles [NumStallReasons]uint64
	Hists  [NumHistKinds]Hist
}

// NewAttribution returns an empty attribution.
func NewAttribution() *Attribution { return &Attribution{} }

// Enabled reports whether charges are being recorded. Charge sites with
// extra bookkeeping (computing a wait they would not otherwise need) may
// branch on it; plain charges just call Charge.
func (a *Attribution) Enabled() bool { return a != nil }

// Charge records one stall of the given reason. cycles is the stall's
// known duration, or 0 for count-only sites where the duration is not
// observable at the charge point (retry-polled stalls, queue merges).
func (a *Attribution) Charge(r StallReason, cycles uint64) {
	if a == nil {
		return
	}
	a.Counts[r]++
	a.Cycles[r] += cycles
}

// Observe records a value into one of the histograms.
func (a *Attribution) Observe(k HistKind, v uint64) {
	if a == nil {
		return
	}
	a.Hists[k].Observe(v)
}

// AttributionSchema versions the attribution section of a run report.
const AttributionSchema = 1

// StallEntry is one reason's merged totals in a report.
type StallEntry struct {
	Reason    string `json:"reason"`
	Component string `json:"component"`
	Count     uint64 `json:"count"`
	Cycles    uint64 `json:"cycles,omitempty"`
}

// HistogramBucket is one non-empty bucket of an exported histogram; Le is
// the bucket's inclusive upper bound.
type HistogramBucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramReport is a histogram's report form: only non-empty buckets,
// in ascending bound order, for compact deterministic JSON.
type HistogramReport struct {
	Name    string            `json:"name"`
	Count   uint64            `json:"count"`
	Sum     uint64            `json:"sum"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// ReportHist converts a histogram to its report form.
func ReportHist(name string, h *Hist) HistogramReport {
	out := HistogramReport{Name: name, Count: h.Count, Sum: h.Sum}
	for i, c := range h.Buckets {
		if c != 0 {
			out.Buckets = append(out.Buckets, HistogramBucket{Le: BucketUpper(i), Count: c})
		}
	}
	return out
}

// ExecReport is the execution-dependent side of an attribution report:
// how the engine ran the job rather than what the simulated machine did.
// Canonical() strips it, exactly like JobTiming and RunEnv.
type ExecReport struct {
	// Windows is the number of barrier-synchronized windows executed.
	Windows uint64 `json:"windows,omitempty"`
	// IdleElidedCycles is the total idle cycles the engine's time wheel
	// skipped instead of ticking through.
	IdleElidedCycles uint64 `json:"idle_elided_cycles,omitempty"`
	// WheelOccupancy is the distribution of pending wheel events observed
	// at slow-path scheduler steps.
	WheelOccupancy *HistogramReport `json:"wheel_occupancy,omitempty"`
}

// AttributionReport is the attribution section of a JobReport. Stalls and
// Hists are canonical — byte-identical for a job at any -j — and
// list entries in fixed enum order, skipping zeros. Exec is the
// execution-dependent remainder, stripped by RunReport.Canonical.
type AttributionReport struct {
	Schema int               `json:"schema"`
	Stalls []StallEntry      `json:"stalls,omitempty"`
	Hists  []HistogramReport `json:"histograms,omitempty"`
	Exec   *ExecReport       `json:"exec,omitempty"`
}

// Report assembles the canonical report section. The
// caller attaches the ExecReport, if any, afterwards.
func (a *Attribution) Report() *AttributionReport {
	if a == nil {
		return nil
	}
	rep := &AttributionReport{Schema: AttributionSchema}
	for r := 0; r < NumStallReasons; r++ {
		if a.Counts[r] == 0 && a.Cycles[r] == 0 {
			continue
		}
		rep.Stalls = append(rep.Stalls, StallEntry{
			Reason:    StallReason(r).String(),
			Component: StallReason(r).Component(),
			Count:     a.Counts[r],
			Cycles:    a.Cycles[r],
		})
	}
	for k := 0; k < NumHistKinds; k++ {
		if a.Hists[k].Count == 0 {
			continue
		}
		rep.Hists = append(rep.Hists, ReportHist(HistKind(k).String(), &a.Hists[k]))
	}
	return rep
}

// WriteStallTable renders the attribution sections of a report as a flat
// text table: one WriteStalls block per job, headed by its key. This is
// the -stall-report surface of nsexp and nsrun.
func WriteStallTable(w io.Writer, rep *RunReport) error {
	bw := bufio.NewWriter(w)
	blocks := 0
	for i := range rep.Jobs {
		j := &rep.Jobs[i]
		if j.Attribution == nil {
			continue
		}
		if blocks > 0 {
			fmt.Fprintln(bw)
		}
		blocks++
		fmt.Fprintf(bw, "%s\n", j.Key)
		WriteStalls(bw, j.Attribution, 0)
	}
	if blocks == 0 {
		fmt.Fprintln(bw, "no attribution data (report written without -stall-report?)")
	}
	return bw.Flush()
}

// WriteStalls renders one attribution block: reasons sorted by charged
// cycles (then count) with their share of the charged cycles, the wait
// histograms, and an engine footer when a carries an Exec section. top > 0
// keeps only the top rows, noting how many were cut.
func WriteStalls(w io.Writer, a *AttributionReport, top int) {
	if len(a.Stalls) == 0 {
		fmt.Fprintln(w, "  no stalls charged")
	} else {
		entries := make([]StallEntry, len(a.Stalls))
		copy(entries, a.Stalls)
		sort.SliceStable(entries, func(i, j int) bool {
			if entries[i].Cycles != entries[j].Cycles {
				return entries[i].Cycles > entries[j].Cycles
			}
			return entries[i].Count > entries[j].Count
		})
		var totalCycles uint64
		for _, e := range entries {
			totalCycles += e.Cycles
		}
		if top > 0 && len(entries) > top {
			fmt.Fprintf(w, "  (top %d of %d stall reasons)\n", top, len(entries))
			entries = entries[:top]
		}
		fmt.Fprintf(w, "  %-6s %-18s %14s %14s %7s\n", "comp", "reason", "count", "cycles", "%cyc")
		for _, e := range entries {
			pct := "-"
			if totalCycles > 0 && e.Cycles > 0 {
				pct = fmt.Sprintf("%.1f", 100*float64(e.Cycles)/float64(totalCycles))
			}
			fmt.Fprintf(w, "  %-6s %-18s %14d %14d %7s\n", e.Component, e.Reason, e.Count, e.Cycles, pct)
		}
	}
	for _, h := range a.Hists {
		fmt.Fprintf(w, "  hist %-24s count=%d sum=%d mean=%.1f\n",
			h.Name, h.Count, h.Sum, histMean(h))
	}
	if ex := a.Exec; ex != nil && (ex.IdleElidedCycles > 0 || ex.Windows > 0) {
		// Every machine runs on one engine; the shards=1 token keeps the
		// line's format for readers that parse it.
		fmt.Fprintf(w, "  exec: shards=1 windows=%d idle_elided_cycles=%d\n",
			ex.Windows, ex.IdleElidedCycles)
	}
}

// histMean returns the histogram's mean observation (0 when empty).
func histMean(h HistogramReport) float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}
