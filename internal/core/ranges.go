package core

// RangeTable is SE_core's alias-check structure (§IV-B): offloaded streams
// report conservative physical address ranges [min, max) per window; when
// the core commits a load or store, the address is checked against every
// active range. A hit is a (possibly false-positive) alias: the offloaded
// stream must be terminated and precise state restored (Figure 7b).
//
// The evaluation workloads are alias-free (the compiler only offloads
// synchronization-free regions), so in practice the table's job is to be
// checked and miss; the unwind path is exercised by unit tests.
type RangeTable struct {
	ranges []streamRange
	// Checks and Aliases count lookups and hits.
	Checks, Aliases uint64
}

type streamRange struct {
	sid      int
	min, max uint64 // [min, max)
}

// Update installs or widens the range of stream sid.
func (rt *RangeTable) Update(sid int, min, max uint64) {
	for i := range rt.ranges {
		if rt.ranges[i].sid == sid {
			if min < rt.ranges[i].min {
				rt.ranges[i].min = min
			}
			if max > rt.ranges[i].max {
				rt.ranges[i].max = max
			}
			return
		}
	}
	rt.ranges = append(rt.ranges, streamRange{sid: sid, min: min, max: max})
}

// Release drops stream sid's range (stream ended or terminated).
func (rt *RangeTable) Release(sid int) {
	out := rt.ranges[:0]
	for _, r := range rt.ranges {
		if r.sid != sid {
			out = append(out, r)
		}
	}
	rt.ranges = out
}

// Check tests a committed core access [addr, addr+size) against every
// active range, returning the sid of the first aliasing stream (ok=false
// when none alias).
func (rt *RangeTable) Check(addr uint64, size int) (sid int, alias bool) {
	rt.Checks++
	end := addr + uint64(size)
	for _, r := range rt.ranges {
		if addr < r.max && end > r.min {
			rt.Aliases++
			return r.sid, true
		}
	}
	return 0, false
}

// Active returns the number of tracked ranges.
func (rt *RangeTable) Active() int { return len(rt.ranges) }

// rangeOfWindow computes the conservative [min,max) of one window of a
// stream's elements (what the SE_L3's range unit, or SE_core for affine
// patterns, produces).
func rangeOfWindow(elems []streamElem, start, end int) (lo, hi uint64) {
	if start >= len(elems) {
		return 0, 0
	}
	if end > len(elems) {
		end = len(elems)
	}
	lo, hi = elems[start].pa, elems[start].pa+uint64(elems[start].size)
	for _, e := range elems[start:end] {
		if e.pa < lo {
			lo = e.pa
		}
		if t := e.pa + uint64(e.size); t > hi {
			hi = t
		}
	}
	return lo, hi
}
