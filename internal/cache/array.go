// Package cache models the on-chip memory hierarchy of Table V: private
// L1D and L2 caches per tile, a shared static-NUCA L3 sliced into one bank
// per tile (64 B line interleave), a full-map directory MESI protocol, and
// the line-lock machinery (exclusive and multi-reader-single-writer) that
// §IV-C uses to serve streaming atomics.
package cache

import (
	"fmt"

	"repro/internal/sim"
)

// LineState is the MESI state of a cached line.
type LineState uint8

const (
	Invalid LineState = iota
	Shared
	Exclusive
	Modified
)

// String names the state.
func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// ReplacementPolicy selects victims within a set.
type ReplacementPolicy uint8

const (
	// LRU is least-recently-used (L1, L2).
	LRU ReplacementPolicy = iota
	// BRRIP is Bimodal RRIP with p=0.03 (the L3 policy of Table V).
	BRRIP
)

// brripMax is the RRPV range for 2-bit RRIP.
const brripMax = 3

// brripLongProbX1000 is the bimodal probability (×1000) of inserting with a
// "long" re-reference prediction. Table V: p = 0.03.
const brripLongProbX1000 = 30

// Line is one cache line's bookkeeping. Aux carries owner-specific data
// (directory state at L3 banks, nothing for private caches).
type Line struct {
	Tag   uint64 // full line address (addr >> lineBits)
	State LineState
	Dirty bool
	lru   uint64
	rrpv  uint8
	Aux   any
}

// Valid reports whether the line holds data.
func (l Line) Valid() bool { return l.State != Invalid }

// ArrayConfig is the geometry of one cache array.
type ArrayConfig struct {
	SizeBytes int
	Ways      int
	LineBytes int
	Policy    ReplacementPolicy
	Latency   sim.Time
}

// Sets returns the number of sets implied by the geometry.
func (c ArrayConfig) Sets() int {
	return c.SizeBytes / (c.Ways * c.LineBytes)
}

// Array is a set-associative cache array.
type Array struct {
	cfg      ArrayConfig
	sets     int
	lineBits uint
	lines    [][]Line
	clock    uint64
	rng      *sim.Rand
}

// NewArray builds an array, validating the geometry.
func NewArray(cfg ArrayConfig, seed uint64) *Array {
	if cfg.LineBytes <= 0 || cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic("cache: non-positive geometry")
	}
	if cfg.SizeBytes%(cfg.Ways*cfg.LineBytes) != 0 {
		panic(fmt.Sprintf("cache: size %d not divisible by ways*line", cfg.SizeBytes))
	}
	sets := cfg.Sets()
	lines := make([][]Line, sets)
	for i := range lines {
		lines[i] = make([]Line, cfg.Ways)
	}
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineBytes {
		lineBits++
	}
	if 1<<lineBits != cfg.LineBytes {
		panic("cache: line size must be a power of two")
	}
	return &Array{cfg: cfg, sets: sets, lineBits: lineBits, lines: lines, rng: sim.NewRand(seed ^ 0xcafe)}
}

// Config returns the array geometry.
func (a *Array) Config() ArrayConfig { return a.cfg }

// LineAddr returns addr with the offset bits cleared.
func (a *Array) LineAddr(addr uint64) uint64 { return addr >> a.lineBits << a.lineBits }

func (a *Array) indexOf(addr uint64) (set int, tag uint64) {
	tag = addr >> a.lineBits
	return int(tag % uint64(a.sets)), tag
}

// Lookup returns the line holding addr, or nil on a miss. A hit updates
// replacement state.
func (a *Array) Lookup(addr uint64) *Line {
	set, tag := a.indexOf(addr)
	a.clock++
	for i := range a.lines[set] {
		l := &a.lines[set][i]
		if l.Valid() && l.Tag == tag {
			l.lru = a.clock
			l.rrpv = 0
			return l
		}
	}
	return nil
}

// Peek returns the line holding addr without touching replacement state.
func (a *Array) Peek(addr uint64) *Line {
	set, tag := a.indexOf(addr)
	for i := range a.lines[set] {
		l := &a.lines[set][i]
		if l.Valid() && l.Tag == tag {
			return l
		}
	}
	return nil
}

// Insert allocates a line for addr, returning the new line and the evicted
// victim (valid only when a live line was displaced). The caller handles
// writeback/invalidation of the victim before using the new line.
func (a *Array) Insert(addr uint64, state LineState) (line *Line, victim Line) {
	set, tag := a.indexOf(addr)
	a.clock++
	ways := a.lines[set]
	// Prefer an invalid way.
	var slot *Line
	for i := range ways {
		if !ways[i].Valid() {
			slot = &ways[i]
			break
		}
	}
	if slot == nil {
		slot = a.selectVictim(ways)
		victim = *slot
	}
	rrpv := uint8(brripMax - 1)
	if a.cfg.Policy == BRRIP {
		// Bimodal: mostly distant (max), occasionally long (max-1).
		if a.rng.Intn(1000) >= brripLongProbX1000 {
			rrpv = brripMax
		}
	}
	*slot = Line{Tag: tag, State: state, lru: a.clock, rrpv: rrpv}
	return slot, victim
}

func (a *Array) selectVictim(ways []Line) *Line {
	switch a.cfg.Policy {
	case LRU:
		v := &ways[0]
		for i := 1; i < len(ways); i++ {
			if ways[i].lru < v.lru {
				v = &ways[i]
			}
		}
		return v
	case BRRIP:
		for {
			for i := range ways {
				if ways[i].rrpv >= brripMax {
					return &ways[i]
				}
			}
			for i := range ways {
				ways[i].rrpv++
			}
		}
	default:
		panic("cache: unknown replacement policy")
	}
}

// Invalidate removes addr from the array, returning the prior line contents
// (zero Line if absent).
func (a *Array) Invalidate(addr uint64) Line {
	set, tag := a.indexOf(addr)
	for i := range a.lines[set] {
		l := &a.lines[set][i]
		if l.Valid() && l.Tag == tag {
			old := *l
			*l = Line{}
			return old
		}
	}
	return Line{}
}

// CountValid returns the number of valid lines (tests and occupancy stats).
func (a *Array) CountValid() int {
	n := 0
	for _, set := range a.lines {
		for i := range set {
			if set[i].Valid() {
				n++
			}
		}
	}
	return n
}

// ForEach visits every valid line.
func (a *Array) ForEach(fn func(*Line)) {
	for _, set := range a.lines {
		for i := range set {
			if set[i].Valid() {
				fn(&set[i])
			}
		}
	}
}
