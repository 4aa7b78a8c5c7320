package core

import (
	"repro/internal/sim"
)

// SCM is a tile's stream computing manager (§III-C): it schedules
// instances of near-stream functions onto the tile's stream computing
// contexts (SCCs) — lightweight SMT thread contexts with a restricted ROB
// share and no LSQ. The SCM serves both the local SE_core and any remote
// SE_L3 that offloads computation to this tile.
//
// Each SCC is modelled as a pipelined server: an instance of a function
// with n micro-ops occupies an issue slot for the initiation interval
// (n / SCC issue width) and completes after the instance latency; the
// per-SCC ROB share bounds how many instances overlap. This reproduces the
// Figure 13/14 sensitivities: scalar graph kernels (few ops) are
// insensitive to ROB size, SIMD-heavy stencils need a larger window to
// hide the SE_L3→SCM issue latency.
type SCM struct {
	params Params

	// Per-SCC state.
	nextIssue []sim.Time   // earliest next initiation per SCC
	inflight  [][]sim.Time // completion times of recent instances per SCC

	// Instances counts scheduled computations.
	Instances uint64
}

// sccIssueWidth is the SCC issue width (2-wide lightweight contexts).
const sccIssueWidth = 2

// NewSCM builds a tile's SCM.
func NewSCM(params Params) *SCM {
	n := params.SCCCount
	if n <= 0 {
		n = 1
	}
	s := &SCM{
		params:    params,
		nextIssue: make([]sim.Time, n),
		inflight:  make([][]sim.Time, n),
	}
	return s
}

// instanceLatency returns the completion latency of one instance.
func instanceLatency(funcOps int, vector bool) sim.Time {
	if funcOps < 1 {
		funcOps = 1
	}
	per := sim.Time(1)
	if vector {
		per = 2 // AVX-512-style FP ops, Table V
	}
	return 4 + per*sim.Time(funcOps) // 4: FIFO read/write overhead
}

// initiationInterval returns cycles between instance starts on one SCC.
func initiationInterval(funcOps int) sim.Time {
	ii := sim.Time((funcOps + sccIssueWidth - 1) / sccIssueWidth)
	if ii < 1 {
		ii = 1
	}
	return ii
}

// maxOverlap bounds concurrent instances per SCC by its ROB share.
func (s *SCM) maxOverlap(funcOps int) int {
	robPer := s.params.SCCROB / len(s.nextIssue)
	if robPer < 1 {
		robPer = 1
	}
	if funcOps < 1 {
		funcOps = 1
	}
	ov := robPer / funcOps
	if ov < 1 {
		ov = 1
	}
	return ov
}

// Submit schedules one instance arriving at time at (plus the SE→SCM issue
// latency) and returns its completion time. Deterministic and
// side-effect-free besides server occupancy.
func (s *SCM) Submit(funcOps int, vector bool, at sim.Time) sim.Time {
	s.Instances++
	at += sim.Time(s.params.SCMIssueLatency)
	// Pick the SCC that can start earliest.
	best := 0
	bestStart := s.startTime(0, funcOps, at)
	for i := 1; i < len(s.nextIssue); i++ {
		if st := s.startTime(i, funcOps, at); st < bestStart {
			best, bestStart = i, st
		}
	}
	ii := initiationInterval(funcOps)
	lat := instanceLatency(funcOps, vector)
	s.nextIssue[best] = bestStart + ii
	done := bestStart + lat
	// Record in the overlap window.
	win := s.inflight[best]
	win = append(win, done)
	ov := s.maxOverlap(funcOps)
	if len(win) > ov {
		win = win[len(win)-ov:]
	}
	s.inflight[best] = win
	return done
}

func (s *SCM) startTime(scc, funcOps int, at sim.Time) sim.Time {
	st := at
	if s.nextIssue[scc] > st {
		st = s.nextIssue[scc]
	}
	// ROB bound: cannot start until the (overlap)-th previous instance
	// completed.
	ov := s.maxOverlap(funcOps)
	win := s.inflight[scc]
	if len(win) >= ov {
		if t := win[len(win)-ov]; t > st {
			st = t
		}
	}
	return st
}

// scalarPELatency is the SE's scalar processing element latency
// (fully pipelined, Figure 17).
const scalarPELatency sim.Time = 2

// computeAt returns the completion time of one near-stream computation
// instance arriving at at: the scalar PE when eligible and enabled,
// otherwise the SCM path.
func computeAt(scm *SCM, params Params, scalarEligible bool, funcOps int, vector bool, at sim.Time) sim.Time {
	if scalarEligible && !vector && params.ScalarPE {
		return at + scalarPELatency
	}
	return scm.Submit(funcOps, vector, at)
}
