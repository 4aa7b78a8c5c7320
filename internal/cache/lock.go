package cache

import "repro/internal/obs"

// Line locking for streaming atomics (§IV-C). The target cache line is
// locked in the L3 while an offloaded atomic's read-modify-write and (under
// range-sync) its commit round trip are in flight.
//
// Two lock types are modelled, matching Figure 16:
//
//   - Exclusive: every atomic locks the line exclusively.
//   - MRSW (multi-reader single-writer): atomics that do not change the
//     value (compare-exchange misses in bfs, non-improving min in sssp) are
//     recorded as "readers" in the coherence state and served concurrently;
//     only value-modifying atomics take the writer role.
//
// Atomics from the same stream always proceed even when they modify the
// same line, because the SE_L3 orders them; the lock is therefore keyed by
// a holder key (stream identity), and re-entrant per key.
//
// Holders are identified by small non-negative integers (core/stream ids
// packed by the caller), and lock state lives in a per-bank pool indexed
// through an open-addressed line table: the acquire/release hot path does
// no string formatting and, once warm, no allocation.

// LockMode selects the locking discipline.
type LockMode int

const (
	// LockExclusive serializes all atomics to a line.
	LockExclusive LockMode = iota
	// LockMRSW allows concurrent non-modifying atomics.
	LockMRSW
)

// String names the mode like Figure 16's legend.
func (m LockMode) String() string {
	if m == LockMRSW {
		return "mrsw"
	}
	return "exclusive"
}

// NoHolder is the writer sentinel; holder keys must be non-negative.
const noHolder = -1

// readerHold counts one holder key's concurrent read holds.
type readerHold struct {
	key int
	n   int
}

// lineLock is the lock state of one line. The readers list is a small
// linear-scanned slice: concurrent distinct readers are bounded by the
// handful of streams that can target one line at once, and the slice's
// capacity survives pooled reuse.
type lineLock struct {
	writer  int // key of the writer (noHolder when none)
	wcount  int // writer recursion depth
	readers []readerHold
	waiters []func()
}

func (l *lineLock) idle() bool {
	return l.writer == noHolder && len(l.readers) == 0 && len(l.waiters) == 0
}

// otherReaders reports whether a reader with a different key holds the lock.
func (l *lineLock) otherReaders(key int) bool {
	for i := range l.readers {
		if l.readers[i].key != key {
			return true
		}
	}
	return false
}

// addReader records one read hold for key.
func (l *lineLock) addReader(key int) {
	for i := range l.readers {
		if l.readers[i].key == key {
			l.readers[i].n++
			return
		}
	}
	l.readers = append(l.readers, readerHold{key: key, n: 1})
}

// dropReader releases one read hold for key, panicking on a release
// without a matching acquire.
func (l *lineLock) dropReader(key int) {
	for i := range l.readers {
		if l.readers[i].key == key {
			l.readers[i].n--
			if l.readers[i].n == 0 {
				last := len(l.readers) - 1
				l.readers[i] = l.readers[last]
				l.readers = l.readers[:last]
			}
			return
		}
	}
	panic("cache: reader release mismatch")
}

// lockAt resolves a pool index to the lock state. Callers must re-resolve
// after running any callback: pool growth moves entries.
func (b *Bank) lockAt(idx int32) *lineLock { return &b.lockPool[idx] }

// lockFor returns the pool index of line's lock, allocating from the free
// list (or growing the pool) when the line is unlocked.
func (b *Bank) lockFor(line uint64) int32 {
	if idx, ok := b.locks.Get(line); ok {
		return idx
	}
	var idx int32
	if n := len(b.lockFree); n > 0 {
		idx = b.lockFree[n-1]
		b.lockFree = b.lockFree[:n-1]
	} else {
		b.lockPool = append(b.lockPool, lineLock{writer: noHolder})
		idx = int32(len(b.lockPool) - 1)
	}
	b.locks.Put(line, idx)
	return idx
}

// releaseIdleLock returns line's lock to the free list, keeping the
// readers/waiters capacity for reuse.
func (b *Bank) releaseIdleLock(line uint64, idx int32) {
	l := b.lockAt(idx)
	l.writer = noHolder
	l.wcount = 0
	l.readers = l.readers[:0]
	l.waiters = l.waiters[:0]
	b.locks.Delete(line)
	b.lockFree = append(b.lockFree, idx)
}

// AcquireLock requests the line lock at this bank. key identifies the
// holder (a packed core/stream id, non-negative); modifies marks a
// value-changing atomic; mode selects the discipline. granted fires
// (possibly immediately) when the lock is held. Blocked attempts are
// counted as contention for Figure 16.
func (b *Bank) AcquireLock(line uint64, key int, modifies bool, mode LockMode, granted func()) {
	if key < 0 {
		panic("cache: lock holder key must be non-negative")
	}
	idx := b.lockFor(line)
	b.ob.ctr.lockAcquires.Inc()
	asWriter := modifies || mode == LockExclusive
	if b.tryLock(idx, key, asWriter) {
		granted()
		return
	}
	// Conflict path: park a retry closure on the lock. Only this path
	// allocates; the uncontended acquire above is allocation-free.
	b.ob.ctr.lockConflicts.Inc()
	b.ob.attrib.Charge(obs.StallLineLock, 0)
	var wait func()
	wait = func() {
		if b.tryLock(idx, key, asWriter) {
			granted()
			return
		}
		l := b.lockAt(idx)
		l.waiters = append(l.waiters, wait)
	}
	l := b.lockAt(idx)
	l.waiters = append(l.waiters, wait)
}

// tryLock attempts one acquire on the pooled lock at idx, recording the
// hold on success.
func (b *Bank) tryLock(idx int32, key int, asWriter bool) bool {
	l := b.lockAt(idx)
	if asWriter {
		if (l.writer == noHolder || l.writer == key) && !l.otherReaders(key) {
			l.writer = key
			l.wcount++
			return true
		}
		return false
	}
	if l.writer == noHolder || l.writer == key {
		l.addReader(key)
		return true
	}
	return false
}

// ReleaseLock drops one hold on the line lock and wakes waiters.
func (b *Bank) ReleaseLock(line uint64, key int, modifies bool, mode LockMode) {
	idx, ok := b.locks.Get(line)
	if !ok {
		panic("cache: release of unheld line lock")
	}
	l := b.lockAt(idx)
	asWriter := modifies || mode == LockExclusive
	if asWriter {
		if l.writer != key || l.wcount <= 0 {
			panic("cache: writer release mismatch")
		}
		l.wcount--
		if l.wcount == 0 {
			l.writer = noHolder
		}
	} else {
		l.dropReader(key)
	}
	// Wake all waiters; unsatisfiable ones re-queue themselves. Waiter
	// callbacks may acquire other locks (growing the pool), so the state is
	// re-resolved afterwards.
	waiters := l.waiters
	l.waiters = nil
	for _, w := range waiters {
		w()
	}
	if idx, ok := b.locks.Get(line); ok {
		if l := b.lockAt(idx); l.idle() {
			b.releaseIdleLock(line, idx)
		}
	}
}

// LockHeld reports whether any holder owns the line lock (tests).
func (b *Bank) LockHeld(line uint64) bool {
	idx, ok := b.locks.Get(line)
	if !ok {
		return false
	}
	l := b.lockAt(idx)
	return l.writer != noHolder || len(l.readers) > 0
}
