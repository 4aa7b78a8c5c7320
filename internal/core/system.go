// Package core implements the paper's primary contribution: the
// near-stream computing runtime. It wires the compiled stream plan
// (internal/compiler) onto the machine model (internal/machine): the
// core-side stream engine (SE_core) with FIFO prefetching and offload
// policy, the bank-side stream engines (SE_L3) with migration, data
// forwarding, scalar-PE/SCM computation and MRSW atomic locking, and the
// range-based synchronization protocol of §IV-B.
//
// The same runtime, parameterized by System, also models the prior-work
// comparison points of §VI: INST (Omni-Compute-style iteration-granularity
// offloading), SINGLE (Livia-style single-line function offloading),
// NS_core (SSP-style in-core streams) and NS_no_comp (Stream-Floating-
// style address-only offloading).
package core

import (
	"fmt"
	"strings"
)

// System selects the evaluated design point (§VI "Systems and
// Comparison").
type System int

const (
	// Base is the OOO core with Bingo L1 + stride L2 prefetchers.
	Base System = iota
	// INST offloads near-stream computations at iteration granularity to
	// the "meet" of the operand banks (Omni-Compute-like). No reductions.
	INST
	// SINGLE offloads single-cache-line functions, chained bank-to-bank
	// (Livia-like). No multi-operand functions; sync-free semantics.
	SINGLE
	// NSCore uses SE_core as an in-core prefetcher only (SSP-like).
	NSCore
	// NSNoComp offloads streams without computation (Stream-Floating-like).
	NSNoComp
	// NS is full near-stream computing with range-based synchronization.
	NS
	// NSNoSync is NS with the s_sync_free pragma honored (§V).
	NSNoSync
	// NSDecouple is NSNoSync plus fully-decoupled-loop elimination (§V).
	NSDecouple
)

// String names the system like the paper's figures.
func (s System) String() string {
	switch s {
	case Base:
		return "Base"
	case INST:
		return "INST"
	case SINGLE:
		return "SINGLE"
	case NSCore:
		return "NS_core"
	case NSNoComp:
		return "NS_no_comp"
	case NS:
		return "NS"
	case NSNoSync:
		return "NS_no_sync"
	case NSDecouple:
		return "NS_decouple"
	default:
		return fmt.Sprintf("system(%d)", int(s))
	}
}

// AllSystems lists every design point in figure order.
func AllSystems() []System {
	return []System{Base, INST, SINGLE, NSCore, NSNoComp, NS, NSNoSync, NSDecouple}
}

// ParseSystem returns the system a figure name (System.String) names; an
// unknown name is an error listing the valid ones.
func ParseSystem(name string) (System, error) {
	var names []string
	for _, s := range AllSystems() {
		if s.String() == name {
			return s, nil
		}
		names = append(names, s.String())
	}
	return 0, fmt.Errorf("unknown system %q (want %s)", name, strings.Join(names, ", "))
}

// policy expands a System into runtime switches.
type policy struct {
	useStreams     bool // recognize streams at all
	offload        bool // streams may move to SE_L3
	offloadCompute bool // computation moves with them
	rangeSync      bool // §IV-B protocol active
	decouple       bool // §V fully-decoupled loops eliminated
	iterGrain      bool // INST: one offload request per iteration
	singleLine     bool // SINGLE: per-element chained functions
	prefetchers    bool // Bingo/stride hardware prefetchers
}

func policyFor(s System) policy {
	switch s {
	case Base:
		return policy{prefetchers: true}
	case INST:
		return policy{useStreams: true, iterGrain: true}
	case SINGLE:
		return policy{useStreams: true, singleLine: true}
	case NSCore:
		return policy{useStreams: true}
	case NSNoComp:
		return policy{useStreams: true, offload: true}
	case NS:
		return policy{useStreams: true, offload: true, offloadCompute: true, rangeSync: true}
	case NSNoSync:
		return policy{useStreams: true, offload: true, offloadCompute: true}
	case NSDecouple:
		return policy{useStreams: true, offload: true, offloadCompute: true, decouple: true}
	default:
		panic("core: unknown system")
	}
}

// Params are the runtime's tunables, each tied to a sensitivity study.
type Params struct {
	// RangeWindow is R, the iterations per range-sync window (§IV-B: 8).
	RangeWindow int
	// CreditWindows bounds how many windows an offloaded stream may run
	// ahead of the core's commits.
	CreditWindows int
	// SCMIssueLatency is the SE_L3→SCM hop (Figure 13: 1/4/16 cycles).
	SCMIssueLatency uint64
	// SCCROB is the total ROB entries across the tile's SCCs (Figure 14).
	SCCROB int
	// SCCCount is the number of stream computing contexts per tile.
	SCCCount int
	// ScalarPE enables the SE's scalar processing element (Figure 17).
	ScalarPE bool
	// MRSWLock selects the multi-reader single-writer atomic lock
	// (Figure 16; false = exclusive).
	MRSWLock bool
	// AffineRangesAtCore generates affine ranges at SE_core instead of
	// shipping them from SE_L3 (Figure 15; default true).
	AffineRangesAtCore bool
	// FIFODepth is the SE_core per-stream prefetch depth (Table V: 16).
	FIFODepth int
	// IndirectReduceMinLen is the offload threshold for indirect
	// reductions (§IV-C: 4× the number of banks).
	IndirectReduceMinLen uint64
	// ContextSwitchAt, when non-zero, triggers a coarse-grain context
	// switch at that cycle (§V): every offloaded stream drains to a
	// precise state, the machine idles for ContextSwitchGap cycles, and
	// the streams are re-dispatched.
	ContextSwitchAt  uint64
	ContextSwitchGap uint64
}

// DefaultParams returns the paper's defaults.
func DefaultParams(banks int) Params {
	return Params{
		RangeWindow:          8,
		CreditWindows:        8,
		SCMIssueLatency:      4,
		SCCROB:               64,
		SCCCount:             2,
		ScalarPE:             true,
		MRSWLock:             true,
		AffineRangesAtCore:   true,
		FIFODepth:            16,
		IndirectReduceMinLen: uint64(4 * banks),
	}
}
