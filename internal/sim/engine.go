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
//
// stamp is the event's logical scheduling time: the cycle the cause of the
// event happened. Plain Schedule/ScheduleAt set stamp = now, so ordering
// by (at, stamp, seq) is exactly the classic (at, seq) FIFO. The window
// barrier exchange (ScheduleStampedAt) back-dates stamp to the send time,
// which slots a deferred delivery at the position it would have had if
// scheduled the moment it was sent (see Windowed).
type scheduled struct {
	at    Time
	stamp Time
	seq   uint64
	fn    Event
}

// lessSched orders events by (at, stamp, seq): FIFO within a cycle for
// same-stamp events, causal-time order across stamps.
func lessSched(a, b *scheduled) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.stamp != b.stamp {
		return a.stamp < b.stamp
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
// slab nodes in (stamp, seq) order. Because all wheel events lie in a
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
// The ordering contract generalizes the heap-only engine's: events fire
// in (time, stamp, sequence) order, where stamp is the cycle the event was
// scheduled (back-dated by ScheduleStampedAt for barrier-routed
// deliveries). For events scheduled through plain Schedule/ScheduleAt the
// stamp is the monotone engine clock, so (time, stamp, sequence) order
// coincides exactly with the classic (time, sequence) FIFO-within-a-cycle
// order; at equal timestamps heap and wheel events are compared by
// (stamp, sequence) explicitly rather than by structural position.
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
	s := scheduled{at: at, stamp: e.now, seq: e.seq, fn: fn}
	if at-e.now < wheelSize {
		// Plain schedules carry stamp = now, and now is monotone, so a
		// bucket's (stamp, seq) order is append order: no sorted insert.
		slot := int(at & wheelMask)
		e.link(slot, e.wheel[slot].tail, e.alloc(s))
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

// link inserts node i into the bucket at slot right after node prev (0:
// at the head) and marks the slot occupied.
func (e *Engine) link(slot int, prev, i int32) {
	b := &e.wheel[slot]
	n := &e.nodes[i]
	if prev == 0 {
		n.next = b.head
		b.head = i
	} else {
		p := &e.nodes[prev]
		n.next = p.next
		p.next = i
	}
	if n.next == 0 {
		b.tail = i
	}
	e.occ[slot>>6] |= 1 << uint(slot&63)
	e.wheelCount++
}

// ScheduleStampedAt runs fn at absolute time at with a back-dated logical
// scheduling time stamp <= at. It exists for the window exchange: a
// message captured at send time stamp and routed at a window barrier is
// delivered in exactly the order it would have occupied had it been
// scheduled the moment it was sent, because events fire in
// (at, stamp, seq) order and plain schedules stamp with the engine clock.
// Scheduling in the past (at < now) or with stamp > at panics.
func (e *Engine) ScheduleStampedAt(at, stamp Time, fn Event) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", at, e.now))
	}
	if stamp > at {
		panic(fmt.Sprintf("sim: stamp %d after event time %d", stamp, at))
	}
	e.seq++
	s := scheduled{at: at, stamp: stamp, seq: e.seq, fn: fn}
	if at-e.now < wheelSize {
		// A back-dated stamp may order before events already listed; s
		// goes right after the last node that does not order after it.
		// Barrier deliveries for one cycle arrive in canonical order, so
		// the tail usually is that node.
		slot := int(at & wheelMask)
		b := &e.wheel[slot]
		prev := b.tail
		if prev != 0 && lessSched(&s, &e.nodes[prev].scheduled) {
			prev = 0
			for i := b.head; i != 0; i = e.nodes[i].next {
				if !lessSched(&s, &e.nodes[i].scheduled) {
					prev = i
				}
			}
		}
		e.link(slot, prev, e.alloc(s))
		return
	}
	e.queue = append(e.queue, s)
	e.siftUp(len(e.queue) - 1)
}

// less orders the heap by (time, stamp, sequence).
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

// peekTime returns the earliest pending timestamp, or MaxTime when the
// engine is idle.
func (e *Engine) peekTime() Time {
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

// Step fires the single next event, advancing time to it. It reports false
// when the queue is empty.
func (e *Engine) Step() bool {
	// Fast path: the current cycle's bucket has events and no heap event
	// orders before its head. (Equal-time events compare by (stamp, seq) —
	// see the ordering note on Engine.)
	if b := &e.wheel[e.now&wheelMask]; b.head != 0 {
		if len(e.queue) == 0 || e.queue[0].at > e.now || !lessSched(&e.queue[0], &e.nodes[b.head].scheduled) {
			s := e.popBucket(b, int(e.now&wheelMask))
			e.Executed++
			s.fn()
			return true
		}
	} else if e.wheelCount == 0 && len(e.queue) == 0 {
		return false
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
	if ht == MaxTime && wt == MaxTime {
		return false
	}
	var s scheduled
	useHeap := ht < wt
	if ht == wt && ht != MaxTime {
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

// Run fires events until the queue drains. It returns the final
// simulation time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunTo fires events with timestamps <= limit; it is one window's step
// of the Windowed loop. Events beyond the limit stay queued. While work
// remains beyond limit the clock parks at limit; when the queue drains it
// stays at the last fired event, so a run's end time is its last event's
// cycle whatever the window edges. It returns true if the queue drained.
func (e *Engine) RunTo(limit Time) bool {
	for {
		t := e.peekTime()
		if t == MaxTime {
			return true
		}
		if t > limit {
			e.now = limit
			return false
		}
		e.Step()
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
