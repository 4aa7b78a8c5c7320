package core

import (
	"repro/internal/cache"
	"repro/internal/sim"
)

// inCoreStream models SE_core stream prefetching (§III-C): a load stream
// kept in the core. The SE issues the stream's line accesses up to
// FIFODepth elements ahead of the core's consumption; s_load then reads
// the FIFO with a short latency. Indirect streams chain behind their base
// stream's data; pointer-chase streams are strictly serial. This is the
// SSP-like mode (NS_core) and the stream-prefetch benefit INST/SINGLE
// retain on unsupported patterns (§VI).
type inCoreStream struct {
	cr    *coreRun
	elems []streamElem
	fifo  elemWaits // element i's data is in the FIFO

	issued   int
	consumed int
	serial   bool
	base     *inCoreStream

	// basePending marks an outstanding wait on the base stream: pump
	// registers at most one base waiter at a time (pumpFn, allocated
	// once), since every registration would resume the same idempotent
	// pump loop. Without the guard each pump call while blocked stacks
	// another waiter closure, and fired waiters immediately re-register
	// on the next blocked element — a self-sustaining cascade that
	// dominated the simulator's allocation profile.
	basePending bool
	pumpFn      func()

	// Per-line dedupe: consecutive elements on one line share a fetch;
	// linePend queues the element indices waiting on the owner's fill.
	lineDone map[uint64]sim.Time
	linePend map[uint64][]int
}

func newInCoreStream(cr *coreRun, elems []streamElem, serial bool) *inCoreStream {
	ics := &inCoreStream{
		cr: cr, elems: elems, serial: serial,
		fifo:     elemWaits{done: make([]bool, len(elems))},
		lineDone: map[uint64]sim.Time{},
		linePend: map[uint64][]int{},
	}
	ics.pumpFn = func() {
		ics.basePending = false
		ics.pump()
	}
	return ics
}

// consume is the s_load: done fires when element i's data is in the FIFO.
func (ics *inCoreStream) consume(i int, done func()) {
	if i >= len(ics.elems) {
		panic("core: s_load past end of stream")
	}
	if i+1 > ics.consumed {
		ics.consumed = i + 1
	}
	ics.pump()
	ics.fifo.wait(i, done)
}

// pump issues prefetches up to the FIFO depth ahead of consumption.
func (ics *inCoreStream) pump() {
	depth := ics.cr.params.FIFODepth
	for ics.issued < len(ics.elems) && ics.issued < ics.consumed+depth {
		i := ics.issued
		if ics.serial && i > 0 && !ics.fifo.done[i-1] && ics.elems[i].chain == ics.elems[i-1].chain {
			return // pointer chase: the next node's address needs this one
		}
		if ics.base != nil {
			bi := min(i, len(ics.base.elems)-1)
			if bi >= 0 && !ics.base.fifo.done[bi] {
				// Indirect: the index must arrive first; piggyback on the
				// base stream's FIFO fill.
				if !ics.basePending {
					ics.basePending = true
					ics.base.consume(bi, ics.pumpFn)
				}
				return
			}
		}
		ics.issued++
		ics.fetch(i)
	}
}

// fetch brings element i's line into the private cache.
func (ics *inCoreStream) fetch(i int) {
	e := ics.elems[i]
	line := ics.cr.m.Hier.LineAddr(e.pa)
	if t, okDone := ics.lineDone[line]; okDone {
		at := t
		if now := ics.cr.m.Engine.Now(); now > at {
			at = now
		}
		ics.complete(i, at+1)
		return
	}
	if pend, okPend := ics.linePend[line]; okPend {
		ics.linePend[line] = append(pend, i)
		return
	}
	ics.linePend[line] = nil // key presence marks the in-flight fill
	ics.cr.tile().Access(e.pa, false, sePrefetchPC, func(cache.Level) {
		at := ics.cr.m.Engine.Now()
		ics.lineDone[line] = at
		pend := ics.linePend[line]
		delete(ics.linePend, line)
		ics.complete(i, at)
		for _, j := range pend {
			ics.complete(j, at+1)
		}
	})
}

// sePrefetchPC tags SE-issued accesses for the (disabled) prefetchers.
const sePrefetchPC uint64 = 0x5E0

func (ics *inCoreStream) complete(i int, at sim.Time) {
	ics.cr.m.Engine.ScheduleAt(at, func() {
		ics.fifo.finish(i)
		ics.pump()
	})
}
