// Package sim provides the discrete-event simulation engine that every
// other timing model in this repository is built on. The engine is
// deliberately single-threaded: events fire in (time, sequence) order, so a
// simulation with a fixed seed is bit-for-bit deterministic, which the test
// suite relies on.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Time is a simulation timestamp in core clock cycles.
type Time uint64

// MaxTime is the largest representable simulation time.
const MaxTime Time = math.MaxUint64

// Event is a callback scheduled to run at a particular cycle.
type Event func()

// scheduled is one queued event. Events live by value inside the engine's
// wheel slab and overflow heap: once those have grown to the most events
// pending at once, Schedule neither allocates nor boxes through any.
type scheduled struct {
	at  Time
	seq uint64
	fn  Event
}

// lessSched orders events by (at, seq): FIFO within a cycle.
func lessSched(a, b *scheduled) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The near-horizon time wheel covers [now, now+wheelSize). Nearly every
// event a cycle-level model schedules is a handful of cycles out (cache
// latencies, link hops, pipeline stages), so wheelSize only has to exceed
// the longest common component latency — DRAM round-trips of a few hundred
// cycles — for the heap to stay cold. 1024 slots is the smallest
// power of two with comfortable margin; the whole wheel (buckets plus
// occupancy bitmap) stays resident in L2.
const (
	wheelBits  = 10
	wheelSize  = 1 << wheelBits
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// node is one wheel event in the engine's slab, linked into its slot's
// FIFO list (or the free list) by next. Index 0 is a sentinel that never
// holds an event, so a zero link means "none".
type node struct {
	scheduled
	next int32
}

// bucket is one wheel slot: the head and tail of a singly linked list of
// slab nodes in seq order. Because all wheel events lie in a
// window of exactly wheelSize cycles, a slot never holds two distinct
// timestamps at once.
type bucket struct {
	head, tail int32
}

// Engine is a deterministic discrete-event scheduler.
//
// Events are kept in a two-level structure. The first level is a time
// wheel: a power-of-two ring of per-cycle buckets covering the next
// wheelSize cycles, giving O(1) schedule and pop for the short delays that
// dominate cycle-level models. Buckets are linked lists threaded through
// one engine-owned node slab with a free list, so wheel storage follows
// the events pending, like gem5's per-tick event bins. The second level
// is an index-based binary min-heap of scheduled values ordered by
// (time, sequence) that absorbs the rare far-future events (delay >=
// wheelSize). An occupancy bitmap over the wheel slots makes "find the
// next non-empty cycle" a handful of word scans.
//
// Events fire in (time, sequence) order, FIFO within a cycle; at equal
// timestamps heap and wheel events are compared by sequence explicitly
// rather than by structural position. Once a cycle that fired an event
// has none left, the engine runs its end-of-cycle hooks (see AtCycleEnd)
// before the clock moves on.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now Time
	seq uint64

	// Near level: wheel[t&wheelMask] lists the events for cycle t, with
	// occ's bit t&wheelMask set while the bucket is non-empty. Every wheel
	// event lives in nodes; popped nodes go on the free list headed by
	// free, so the slab's length is the most wheel events ever pending at
	// once, not the sum of each slot's largest burst.
	wheel      []bucket
	occ        []uint64
	wheelCount int
	nodes      []node
	free       int32

	// Far level: overflow min-heap for events >= wheelSize cycles out.
	queue []scheduled

	// cycleEnd holds the end-of-cycle hooks; live is set while the
	// current cycle has fired an event its hooks have not yet followed.
	cycleEnd []*func()
	live     bool

	// Executed counts events that have fired, mostly for tests and
	// runaway-simulation guards.
	Executed uint64
	// IdleElided accumulates simulated cycles the slow path jumped over
	// without visiting — the engine's idle-elision savings. Like Executed
	// it is always on (one add per slow-path step) and host-side only: it
	// never feeds back into the model, so report consumers treat it as
	// execution data, not model data.
	IdleElided uint64
	// occHist buckets the wheel occupancy (pending wheel events) observed
	// at each slow-path step by bit length; occSum/occObs carry the sum
	// and count for mean occupancy. Read via WheelOccupancy.
	occHist [occBuckets]uint64
	occSum  uint64
	occObs  uint64
}

// occBuckets is the log-bucket count of the wheel-occupancy histogram:
// value v lands in bucket bits.Len64(v), so 64-bit values need 0..64.
const occBuckets = 65

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{
		wheel: make([]bucket, wheelSize),
		occ:   make([]uint64, wheelWords),
		nodes: make([]node, 1, 64), // nodes[0] is the nil sentinel
	}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Schedule runs fn delay cycles from now. A zero delay runs fn after all
// events already scheduled for the current cycle (FIFO within a cycle).
func (e *Engine) Schedule(delay Time, fn Event) {
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute time at. Scheduling in the past panics:
// it always indicates a model bug rather than a recoverable condition.
func (e *Engine) ScheduleAt(at Time, fn Event) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", at, e.now))
	}
	e.seq++
	s := scheduled{at: at, seq: e.seq, fn: fn}
	if at-e.now < wheelSize {
		// seq only grows, so a bucket's order is append order.
		slot := int(at & wheelMask)
		e.link(slot, e.alloc(s))
		return
	}
	e.queue = append(e.queue, s)
	e.siftUp(len(e.queue) - 1)
}

// alloc stores s in a slab node, reusing a freed one when there is one,
// and returns its index. Appending may move the slab, so callers take
// node pointers only after alloc.
func (e *Engine) alloc(s scheduled) int32 {
	i := e.free
	if i == 0 {
		e.nodes = append(e.nodes, node{scheduled: s})
		return int32(len(e.nodes) - 1)
	}
	n := &e.nodes[i]
	e.free = n.next
	n.scheduled = s
	n.next = 0
	return i
}

// link appends node i to the bucket at slot and marks the slot occupied.
func (e *Engine) link(slot int, i int32) {
	b := &e.wheel[slot]
	if b.tail == 0 {
		b.head = i
	} else {
		e.nodes[b.tail].next = i
	}
	b.tail = i
	e.occ[slot>>6] |= 1 << uint(slot&63)
	e.wheelCount++
}

// less orders the heap by (time, sequence).
func (e *Engine) less(i, j int) bool {
	return lessSched(&e.queue[i], &e.queue[j])
}

func (e *Engine) siftUp(i int) {
	q := e.queue
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	q := e.queue
	n := len(q)
	for {
		least := 2*i + 1
		if least >= n {
			return
		}
		if r := least + 1; r < n && e.less(r, least) {
			least = r
		}
		if !e.less(least, i) {
			return
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
}

// pop removes and returns the minimum heap event. The caller guarantees
// the heap is non-empty.
func (e *Engine) pop() scheduled {
	n := len(e.queue)
	top := e.queue[0]
	e.queue[0] = e.queue[n-1]
	// Clear the vacated slot so the backing array does not retain the
	// event's closure after it fires.
	e.queue[n-1].fn = nil
	e.queue = e.queue[:n-1]
	e.siftDown(0)
	return top
}

// popBucket removes the front event of the bucket at slot and returns
// its node to the free list, its closure cleared so the slab does not
// retain it. When the bucket empties its occupancy bit is cleared before
// the caller runs the event, so a same-cycle Schedule from inside the
// callback starts a fresh list for the current slot.
func (e *Engine) popBucket(b *bucket, slot int) scheduled {
	i := b.head
	n := &e.nodes[i]
	s := n.scheduled
	b.head = n.next
	if b.head == 0 {
		b.tail = 0
		e.occ[slot>>6] &^= 1 << uint(slot&63)
	}
	n.fn = nil
	n.next = e.free
	e.free = i
	e.wheelCount--
	return s
}

// nextWheelSlot returns the slot holding the earliest wheel event, or -1
// when the wheel is empty. All wheel events lie in [now, now+wheelSize),
// so scanning the occupancy bitmap from now's slot, wrapping once, visits
// slots in increasing-time order; a slot holds a single timestamp, read
// off its first pending event via slotTime.
func (e *Engine) nextWheelSlot() int {
	if e.wheelCount == 0 {
		return -1
	}
	start := int(e.now & wheelMask)
	w := start >> 6
	if x := e.occ[w] &^ (1<<uint(start&63) - 1); x != 0 {
		return w<<6 | bits.TrailingZeros64(x)
	}
	for i := 1; i <= wheelWords; i++ {
		// The final iteration re-reads word w: its bits at or above
		// start were just seen clear, so any hit is a wrapped slot.
		ww := (w + i) & (wheelWords - 1)
		if x := e.occ[ww]; x != 0 {
			return ww<<6 | bits.TrailingZeros64(x)
		}
	}
	panic("sim: wheel count positive but occupancy bitmap empty")
}

func (e *Engine) slotTime(slot int) Time {
	return e.nodes[e.wheel[slot].head].at
}

// NextTime returns the earliest pending timestamp, or MaxTime when the
// engine is idle.
func (e *Engine) NextTime() Time {
	// The current cycle's bucket being non-empty pins the wheel minimum
	// at now without a bitmap scan (the slot cannot hold any other time).
	if e.wheel[e.now&wheelMask].head != 0 {
		return e.now
	}
	t := MaxTime
	if slot := e.nextWheelSlot(); slot >= 0 {
		t = e.slotTime(slot)
	}
	if len(e.queue) > 0 && e.queue[0].at < t {
		t = e.queue[0].at
	}
	return t
}

// Pending reports the number of events waiting to fire, counting both
// wheel buckets and the overflow heap. A parked Recurring contributes
// nothing (its tick is only queued while armed), so Pending == 0 is the
// engine's authoritative "fully idle" test: a drained engine with parked
// components reports zero even though those components could be re-armed
// by a later Wake. Pending never counts already-fired events.
func (e *Engine) Pending() int { return e.wheelCount + len(e.queue) }

// AtCycleEnd registers fn as an end-of-cycle hook and returns the
// function that unregisters it. Once a cycle that fired an event has no
// event left — wheel, zero-delay or overflow-heap — the engine calls
// every hook, in registration order, before the clock advances; Run
// calls them once more when the queue drains. An event a hook schedules
// at Now fires before the clock advances, and the hooks then run again
// after it. A hook that only reads the model — a sampler — observes it
// once per active cycle without changing which events fire or when.
func (e *Engine) AtCycleEnd(fn func()) (remove func()) {
	h := &fn
	e.cycleEnd = append(e.cycleEnd, h)
	return func() {
		e.cycleEnd = slices.DeleteFunc(e.cycleEnd, func(x *func()) bool { return x == h })
	}
}

// endCycle runs the end-of-cycle hooks.
func (e *Engine) endCycle() {
	e.live = false
	for _, fn := range e.cycleEnd {
		(*fn)()
	}
}

// Step fires the single next event, advancing time to it. When the
// current cycle has no event left it runs the end-of-cycle hooks first.
// It reports false when the queue is empty.
func (e *Engine) Step() bool {
	// Fast path: the current cycle's bucket has events and no heap event
	// orders before its head.
	if b := &e.wheel[e.now&wheelMask]; b.head != 0 {
		if len(e.queue) == 0 || !lessSched(&e.queue[0], &e.nodes[b.head].scheduled) {
			s := e.popBucket(b, int(e.now&wheelMask))
			e.Executed++
			e.live = true
			s.fn()
			return true
		}
	}
	// Slow path: advance to the earliest pending event across both levels.
	slot := e.nextWheelSlot()
	wt := MaxTime
	if slot >= 0 {
		wt = e.slotTime(slot)
	}
	ht := MaxTime
	if len(e.queue) > 0 {
		ht = e.queue[0].at
	}
	if e.live && min(wt, ht) != e.now {
		// The cycle is over. Its hooks may schedule more; if they do,
		// look again, since an event at now fires before the clock moves.
		seq := e.seq
		e.endCycle()
		if e.seq != seq {
			return e.Step()
		}
	}
	if ht == MaxTime && wt == MaxTime {
		return false
	}
	var s scheduled
	useHeap := ht < wt
	if ht == wt {
		useHeap = lessSched(&e.queue[0], &e.nodes[e.wheel[slot].head].scheduled)
	}
	if useHeap {
		s = e.pop()
	} else {
		s = e.popBucket(&e.wheel[slot], slot)
	}
	if s.at > e.now {
		// Every cycle in (now, s.at) had no event and was never visited;
		// the jump itself lands on an event cycle, so it elides gap-1.
		e.IdleElided += uint64(s.at-e.now) - 1
	}
	e.occHist[bits.Len64(uint64(e.wheelCount))]++
	e.occSum += uint64(e.wheelCount)
	e.occObs++
	e.now = s.at
	e.Executed++
	e.live = true
	s.fn()
	return true
}

// WheelOccupancy returns the slow-path wheel-occupancy observations:
// per-log2-bucket counts (bucket i holds occupancies of bit length i),
// the observation count and the occupancy sum. Fast-path steps (events in
// the current cycle's bucket) are not observed — the histogram samples
// the wheel each time the scheduler has to look for the next cycle.
func (e *Engine) WheelOccupancy() (buckets [occBuckets]uint64, count, sum uint64) {
	return e.occHist, e.occObs, e.occSum
}

// Run fires events until the queue drains, then runs the end-of-cycle
// hooks once more, and repeats while they schedule events. It returns
// the final simulation time, the last fired event's cycle.
func (e *Engine) Run() Time {
	for {
		for e.Step() {
		}
		e.endCycle()
		if e.Pending() == 0 {
			return e.now
		}
	}
}

// Recurring is a reusable periodic event: one closure is allocated at
// construction and re-enqueued for every tick, so steady-state ticking is
// allocation-free (the queue stores events by value). Model code that used
// to capture fresh closures per cycle — core issue loops, drain polls —
// holds one Recurring instead.
//
// A Recurring doubles as the idle-elision primitive: a clocked component
// returns false from its tick function to stop consuming engine events
// while it has no work, and any input that could create work calls Wake
// to re-arm it. Wake is idempotent, so the waker never needs to know
// whether the component is currently ticking. To avoid lost wakeups the
// component must (1) decide "no work" only from state a waker updates
// before calling Wake, and (2) call Wake after every such update — a Wake
// during the tick function itself is honored even when the tick returns
// false.
type Recurring struct {
	e      *Engine
	period Time
	fn     func() bool
	tick   Event
	queued bool
}

// NewRecurring builds a parked recurring event firing every period
// cycles once woken. fn reports whether the event should fire again;
// returning false parks the series until the next Wake.
func (e *Engine) NewRecurring(period Time, fn func() bool) *Recurring {
	if period == 0 {
		panic("sim: recurring event needs a non-zero period")
	}
	r := &Recurring{e: e, period: period, fn: fn}
	r.tick = func() {
		r.queued = false
		again := r.fn()
		if r.queued {
			// fn re-armed the series itself (a Wake reached it during
			// the tick); that schedule wins over both the periodic
			// re-enqueue and a false return, else the wakeup is lost.
			return
		}
		if again {
			r.queued = true
			r.e.Schedule(r.period, r.tick)
		}
	}
	return r
}

// Wake arms the series to tick in the current cycle. It is idempotent: if
// a tick is already queued the series keeps that tick's timing (the
// engine has no event cancellation, so a queued tick is never moved).
func (r *Recurring) Wake() {
	if !r.queued {
		r.queued = true
		r.e.Schedule(0, r.tick)
	}
}
