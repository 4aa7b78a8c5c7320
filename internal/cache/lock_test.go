package cache

import "testing"

func lockBank() *Bank {
	_, h := testMachine()
	return h.Bank(0)
}

// Holder keys are small integers (packed core/stream ids in production;
// arbitrary distinct values here).
const (
	keyS1 = 1
	keyS2 = 2
	keyS3 = 3
	keyW  = 10
	keyR  = 20
)

func TestExclusiveLockSerializes(t *testing.T) {
	b := lockBank()
	got := []int{}
	b.AcquireLock(0, keyS1, false, LockExclusive, func() { got = append(got, keyS1) })
	b.AcquireLock(0, keyS2, false, LockExclusive, func() { got = append(got, keyS2) })
	if len(got) != 1 || got[0] != keyS1 {
		t.Fatalf("grants = %v, want only s1", got)
	}
	b.ReleaseLock(0, keyS1, false, LockExclusive)
	if len(got) != 2 || got[1] != keyS2 {
		t.Fatalf("grants after release = %v", got)
	}
	b.ReleaseLock(0, keyS2, false, LockExclusive)
	if b.LockHeld(0) {
		t.Fatal("lock still held after all releases")
	}
}

func TestMRSWReadersShare(t *testing.T) {
	b := lockBank()
	granted := 0
	b.AcquireLock(0, keyS1, false, LockMRSW, func() { granted++ })
	b.AcquireLock(0, keyS2, false, LockMRSW, func() { granted++ })
	b.AcquireLock(0, keyS3, false, LockMRSW, func() { granted++ })
	if granted != 3 {
		t.Fatalf("only %d readers granted, want 3 concurrent", granted)
	}
	if counter(b.h, "lock.conflicts") != 0 {
		t.Fatal("concurrent readers counted as conflicts")
	}
}

func TestMRSWWriterExcludesReaders(t *testing.T) {
	b := lockBank()
	b.AcquireLock(0, keyW, true, LockMRSW, func() {})
	readerIn := false
	b.AcquireLock(0, keyR, false, LockMRSW, func() { readerIn = true })
	if readerIn {
		t.Fatal("reader admitted while writer holds lock")
	}
	b.ReleaseLock(0, keyW, true, LockMRSW)
	if !readerIn {
		t.Fatal("reader not woken after writer release")
	}
}

func TestMRSWWriterBlockedByOtherReaders(t *testing.T) {
	b := lockBank()
	b.AcquireLock(0, keyR, false, LockMRSW, func() {})
	writerIn := false
	b.AcquireLock(0, keyW, true, LockMRSW, func() { writerIn = true })
	if writerIn {
		t.Fatal("writer admitted while another stream reads")
	}
	if counter(b.h, "lock.conflicts") != 1 {
		t.Fatalf("conflicts = %d, want 1", counter(b.h, "lock.conflicts"))
	}
	b.ReleaseLock(0, keyR, false, LockMRSW)
	if !writerIn {
		t.Fatal("writer not woken")
	}
}

func TestSameStreamAlwaysProceeds(t *testing.T) {
	// §IV-C: atomics from the same stream can always proceed even when
	// they modify the same line — the SE_L3 orders them.
	b := lockBank()
	grants := 0
	b.AcquireLock(0, keyS1, true, LockMRSW, func() { grants++ })
	b.AcquireLock(0, keyS1, true, LockMRSW, func() { grants++ })
	b.AcquireLock(0, keyS1, false, LockMRSW, func() { grants++ })
	if grants != 3 {
		t.Fatalf("same-stream grants = %d, want 3", grants)
	}
	if counter(b.h, "lock.conflicts") != 0 {
		t.Fatal("same-stream re-entry counted as conflict")
	}
	b.ReleaseLock(0, keyS1, true, LockMRSW)
	b.ReleaseLock(0, keyS1, true, LockMRSW)
	b.ReleaseLock(0, keyS1, false, LockMRSW)
	if b.LockHeld(0) {
		t.Fatal("lock leaked")
	}
}

func TestLocksIndependentPerLine(t *testing.T) {
	b := lockBank()
	aIn, bIn := false, false
	b.AcquireLock(0, keyS1, true, LockExclusive, func() { aIn = true })
	b.AcquireLock(64, keyS2, true, LockExclusive, func() { bIn = true })
	if !aIn || !bIn {
		t.Fatal("locks on different lines interfered")
	}
}

func TestReleaseUnheldPanics(t *testing.T) {
	b := lockBank()
	defer func() {
		if recover() == nil {
			t.Fatal("release of unheld lock should panic")
		}
	}()
	b.ReleaseLock(0, keyS1, true, LockExclusive)
}

func TestWaiterQueueFairDrain(t *testing.T) {
	b := lockBank()
	var order []int
	b.AcquireLock(0, keyS1, true, LockExclusive, func() { order = append(order, keyS1) })
	b.AcquireLock(0, keyS2, true, LockExclusive, func() { order = append(order, keyS2) })
	b.AcquireLock(0, keyS3, true, LockExclusive, func() { order = append(order, keyS3) })
	b.ReleaseLock(0, keyS1, true, LockExclusive)
	b.ReleaseLock(0, keyS2, true, LockExclusive)
	b.ReleaseLock(0, keyS3, true, LockExclusive)
	if len(order) != 3 || order[0] != keyS1 || order[1] != keyS2 || order[2] != keyS3 {
		t.Fatalf("grant order = %v", order)
	}
	if b.LockHeld(0) {
		t.Fatal("lock leaked after drain")
	}
}

// TestLockPoolRecycles pins the free-list contract: a line's lock slot is
// reclaimed once idle and reused by later lock traffic, so a long run
// holds at most as many pooled locks as its peak concurrency.
func TestLockPoolRecycles(t *testing.T) {
	b := lockBank()
	for i := 0; i < 1000; i++ {
		line := uint64(i) * 64
		b.AcquireLock(line, keyS1, true, LockExclusive, func() {})
		b.ReleaseLock(line, keyS1, true, LockExclusive)
	}
	if got := len(b.lockPool); got != 1 {
		t.Fatalf("lock pool grew to %d entries for serial lock traffic, want 1", got)
	}
	if len(b.locks) != 0 {
		t.Fatalf("%d lock table entries leaked", len(b.locks))
	}
}

// TestLockSteadyStateNoAllocs pins the hot-path contract from the issue:
// acquiring and releasing an uncontended lock allocates nothing once the
// pool is warm (no string keys, no per-line lock objects).
func TestLockSteadyStateNoAllocs(t *testing.T) {
	b := lockBank()
	grantNop := func() {}
	b.AcquireLock(0, keyS1, true, LockExclusive, grantNop)
	b.ReleaseLock(0, keyS1, true, LockExclusive)
	allocs := testing.AllocsPerRun(1000, func() {
		b.AcquireLock(64, keyS2, true, LockExclusive, grantNop)
		b.ReleaseLock(64, keyS2, true, LockExclusive)
	})
	// Stats.Inc on the acquire path may allocate on first touch only; the
	// steady state must be zero.
	if allocs != 0 {
		t.Fatalf("uncontended acquire/release allocates %.1f per op, want 0", allocs)
	}
}
