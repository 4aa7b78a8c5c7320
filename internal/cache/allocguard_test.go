package cache

import (
	"testing"

	"repro/internal/obs"
)

// TestLockHotPathAllocFreeTracingDisabled pins the observability
// zero-cost contract on the cache side: with a tracer attached but
// disabled (the normal production state — nsexp without -trace), the
// line-lock acquire/release fast path must not allocate at all. The
// disabled check is a single branch; anything more shows up here.
func TestLockHotPathAllocFreeTracingDisabled(t *testing.T) {
	_, h := testMachine()
	h.SetTracer(obs.NewTracer(64)) // attached, not enabled
	bank := h.Bank(0)
	grant := func() {}
	for i := 0; i < 64; i++ { // warm the lock pool across the line set
		line := uint64(i) * 64
		bank.AcquireLock(line, 1, true, LockMRSW, grant)
		bank.ReleaseLock(line, 1, true, LockMRSW)
	}
	i := 0
	if a := testing.AllocsPerRun(1000, func() {
		line := uint64(i%64) * 64
		i++
		bank.AcquireLock(line, 1, true, LockMRSW, grant)
		bank.ReleaseLock(line, 1, true, LockMRSW)
	}); a != 0 {
		t.Errorf("lock acquire/release with disabled tracer: %.1f allocs/op, want 0", a)
	}
}

// TestLockHotPathAllocFreeWithAttribution pins the same contract for
// the cycle-attribution profiler: the uncontended lock fast path must
// not allocate whether attribution is off (nil lane — a single branch
// at the charge site) or on (charges are fixed-array adds). A contended
// acquire must actually charge line_lock; that path parks a retry
// closure by design, so only the uncontended loop is alloc-guarded.
func TestLockHotPathAllocFreeWithAttribution(t *testing.T) {
	for _, tc := range []struct {
		name string
		lane *obs.Attribution
	}{
		{"disabled", nil},
		{"enabled", obs.NewAttribution()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, h := testMachine()
			h.SetLaneAttrib(0, tc.lane)
			bank := h.Bank(0)
			grant := func() {}
			for i := 0; i < 64; i++ { // warm the lock pool across the line set
				line := uint64(i) * 64
				bank.AcquireLock(line, 1, true, LockMRSW, grant)
				bank.ReleaseLock(line, 1, true, LockMRSW)
			}
			i := 0
			if a := testing.AllocsPerRun(1000, func() {
				line := uint64(i%64) * 64
				i++
				bank.AcquireLock(line, 1, true, LockMRSW, grant)
				bank.ReleaseLock(line, 1, true, LockMRSW)
			}); a != 0 {
				t.Errorf("lock acquire/release with %s attribution: %.1f allocs/op, want 0", tc.name, a)
			}
			// Contended acquire: holder 1 keeps the line, holder 2 blocks.
			bank.AcquireLock(0, 1, true, LockMRSW, grant)
			bank.AcquireLock(0, 2, true, LockMRSW, func() {})
			if tc.lane != nil && tc.lane.Counts[obs.StallLineLock] == 0 {
				t.Error("contended acquire charged no line_lock stall")
			}
			bank.ReleaseLock(0, 1, true, LockMRSW)
		})
	}
}

// TestTileAccessAllocFree pins the demand-access contract of the private
// levels: once the tile's access-context pool is warm, an L1 hit and an
// L2 hit cost no allocation at all, and merging a second same-line miss
// into an outstanding MSHR adds none to the miss it joins (the bank's
// side of the miss is not part of this contract).
func TestTileAccessAllocFree(t *testing.T) {
	const line = 0x1000
	e, h := testMachine()
	lane := obs.NewAttribution()
	h.SetLaneAttrib(0, lane)
	tile := h.Tile(0)
	served := func(Level) {}
	hit := func(l1Cold bool) func() {
		return func() {
			if l1Cold {
				tile.l1.Invalidate(line)
			}
			tile.Access(line, false, 0, served)
			e.Run()
		}
	}
	// miss issues n same-cycle reads of a line no private level holds: the
	// first requests it, the rest merge into its MSHR.
	miss := func(n int) func() {
		return func() {
			tile.InvalidateLine(line)
			for i := 0; i < n; i++ {
				tile.Access(line, false, 0, served)
			}
			e.Run()
		}
	}
	for i := 0; i < 64; i++ { // warm the pools, tables and engine buckets
		miss(2)()
		hit(true)()
	}
	if !tile.HasLine(line) || lane.Counts[obs.StallMSHRMerge] == 0 {
		t.Fatal("warm-up did not cache the line and merge misses")
	}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"L1 hit", hit(false)},
		{"L2 hit", hit(true)},
	} {
		if a := testing.AllocsPerRun(1000, tc.fn); a != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, a)
		}
	}
	alone := testing.AllocsPerRun(1000, miss(1))
	merged := testing.AllocsPerRun(1000, miss(2))
	if merged != alone {
		t.Errorf("MSHR merge: a miss with a merged second access costs %.1f allocs/op, alone %.1f; want no extra", merged, alone)
	}
	if got := counter(h, "l1.hits"); got == 0 {
		t.Error("no L1 hits counted")
	}
	if got := counter(h, "l2.hits"); got == 0 {
		t.Error("no L2 hits counted")
	}
}
