package core

import (
	"testing"

	"repro/internal/sim"
)

// mkInCore builds an inCoreStream over n sequential 8-byte elements.
func mkInCore(t *testing.T, n int, serial bool) (*coreRun, *inCoreStream) {
	t.Helper()
	m := testMachine(NSCore)
	cr := &coreRun{m: m, coreID: 0, params: DefaultParams(m.Tiles()), pol: policyFor(NSCore)}
	elems := make([]streamElem, n)
	for i := range elems {
		elems[i] = streamElem{pa: uint64(0x10000 + i*8), size: 8, chain: uint32(i / 4)}
	}
	return cr, newInCoreStream(cr, elems, serial)
}

func TestInCoreStreamConsumeDelivers(t *testing.T) {
	cr, ics := mkInCore(t, 32, false)
	got := 0
	for i := 0; i < 32; i++ {
		ics.consume(i, func() { got++ })
	}
	cr.m.Engine.Run()
	if got != 32 {
		t.Fatalf("delivered %d/32 elements", got)
	}
}

func TestInCoreStreamPrefetchesAhead(t *testing.T) {
	cr, ics := mkInCore(t, 64, false)
	// Consuming element 0 should trigger prefetches up to the FIFO depth.
	ics.consume(0, func() {})
	if ics.issued <= 1 {
		t.Fatalf("issued only %d; SE should run ahead of consumption", ics.issued)
	}
	if ics.issued > cr.params.FIFODepth+1 {
		t.Fatalf("issued %d exceeds FIFO depth %d", ics.issued, cr.params.FIFODepth)
	}
	cr.m.Engine.Run()
}

func TestInCoreStreamSecondConsumeIsFast(t *testing.T) {
	cr, ics := mkInCore(t, 32, false)
	var first, second sim.Time
	ics.consume(0, func() { first = cr.m.Engine.Now() })
	// Element 1 shares element 0's line: its FIFO-ready time must be
	// within a couple of cycles of element 0's (one line fetch serves
	// both). A plain wait does not advance consumption, so it observes
	// the prefetch that consuming element 0 started.
	ics.fifo.wait(1, func() { second = cr.m.Engine.Now() })
	cr.m.Engine.Run()
	if !ics.fifo.done[1] {
		t.Fatal("element 1 not prefetched alongside element 0")
	}
	if second > first+8 {
		t.Fatalf("same-line element slow: first=%d second=%d", first, second)
	}
}

func TestInCoreSerialChaseOrder(t *testing.T) {
	// Serial stream: element i's fetch may not begin before i-1 (same
	// chain) completed.
	cr, ics := mkInCore(t, 8, true)
	// Elements 0..3 are chain 0, 4..7 chain 1 (from mkInCore).
	ics.consume(7, func() {})
	// Only chain-boundary overlap allowed: issued counts stay small
	// until completions land.
	if ics.issued > 2 {
		t.Fatalf("serial chase issued %d immediately", ics.issued)
	}
	cr.m.Engine.Run()
	for i, done := range ics.fifo.done {
		if !done && i <= 7 {
			t.Fatalf("element %d never completed", i)
		}
	}
}

func TestInCoreIndirectWaitsForBase(t *testing.T) {
	cr, base := mkInCore(t, 16, false)
	elems := make([]streamElem, 16)
	for i := range elems {
		elems[i] = streamElem{pa: uint64(0x40000 + i*512), size: 8}
	}
	ind := newInCoreStream(cr, elems, false)
	ind.base = base
	done := false
	ind.consume(0, func() { done = true })
	// The indirect fetch needs base element 0 first; nothing can be done
	// until events run.
	if done {
		t.Fatal("indirect element completed before base data arrived")
	}
	cr.m.Engine.Run()
	if !done {
		t.Fatal("indirect element never completed")
	}
	if !base.fifo.done[0] {
		t.Fatal("base element not fetched")
	}
}

func TestInCoreConsumePastEndPanics(t *testing.T) {
	_, ics := mkInCore(t, 4, false)
	defer func() {
		if recover() == nil {
			t.Fatal("consume past end should panic")
		}
	}()
	ics.consume(4, func() {})
}
