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
// wheel buckets and overflow heap: Schedule neither allocates a node nor
// boxes through any.
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

// bucket holds the events of one wheel slot in insertion (= sequence)
// order. head indexes the next event to fire; the slice is reset, not
// reallocated, when it empties, so steady-state operation is allocation
// free. Because all wheel events lie in a window of exactly wheelSize
// cycles, a slot never holds two distinct timestamps at once.
type bucket struct {
	head int
	ev   []scheduled
}

// Engine is a deterministic discrete-event scheduler.
//
// Events are kept in a two-level structure. The first level is a time
// wheel: a power-of-two ring of per-cycle buckets covering the next
// wheelSize cycles, giving O(1) schedule and pop for the short delays that
// dominate cycle-level models. The second level is an index-based binary
// min-heap of scheduled values ordered by (time, sequence) that absorbs
// the rare far-future events (delay >= wheelSize). An occupancy bitmap
// over the wheel slots makes "find the next non-empty cycle" a handful of
// word scans.
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

	// Near level: wheel[t&wheelMask] buckets events for cycle t, with
	// occ's bit t&wheelMask set while the bucket is non-empty.
	wheel      []bucket
	occ        []uint64
	wheelCount int

	// Far level: overflow min-heap for events >= wheelSize cycles out.
	queue []scheduled

	stopped bool
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
	e := &Engine{
		wheel: make([]bucket, wheelSize),
		occ:   make([]uint64, wheelWords),
	}
	// Seed every bucket with a small slice of one shared backing array so
	// that scheduling into a never-before-used slot does not allocate; a
	// slot that ever holds more events grows (and keeps) its own larger
	// slice through the usual append doubling.
	const seedCap = 2
	backing := make([]scheduled, wheelSize*seedCap)
	for i := range e.wheel {
		e.wheel[i].ev = backing[i*seedCap : i*seedCap : (i+1)*seedCap]
	}
	return e
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
	if at-e.now < wheelSize {
		slot := int(at & wheelMask)
		b := &e.wheel[slot]
		// Plain schedules carry stamp = now, and now is monotone, so a
		// bucket's (stamp, seq) order is append order: no sorted insert.
		b.ev = append(b.ev, scheduled{at: at, stamp: e.now, seq: e.seq, fn: fn})
		e.occ[slot>>6] |= 1 << uint(slot&63)
		e.wheelCount++
		return
	}
	e.queue = append(e.queue, scheduled{at: at, stamp: e.now, seq: e.seq, fn: fn})
	e.siftUp(len(e.queue) - 1)
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
		slot := int(at & wheelMask)
		b := &e.wheel[slot]
		// A back-dated stamp may order before events already appended;
		// insert at the sorted position (scanning from the back — barrier
		// deliveries for one cycle arrive in canonical order, so inserts
		// cluster near the tail).
		i := len(b.ev)
		for i > b.head && lessSched(&s, &b.ev[i-1]) {
			i--
		}
		b.ev = append(b.ev, scheduled{})
		copy(b.ev[i+1:], b.ev[i:])
		b.ev[i] = s
		e.occ[slot>>6] |= 1 << uint(slot&63)
		e.wheelCount++
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

// popBucket removes the front event of the bucket at slot. When the
// bucket empties it is reset — and its occupancy bit cleared — before the
// caller runs the event, so a same-cycle Schedule from inside the
// callback starts a fresh bucket for the current slot.
func (e *Engine) popBucket(b *bucket, slot int) scheduled {
	s := b.ev[b.head]
	b.ev[b.head].fn = nil
	b.head++
	if b.head == len(b.ev) {
		b.ev = b.ev[:0]
		b.head = 0
		e.occ[slot>>6] &^= 1 << uint(slot&63)
	}
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
	b := &e.wheel[slot]
	return b.ev[b.head].at
}

// peekTime returns the earliest pending timestamp, or MaxTime when the
// engine is idle.
func (e *Engine) peekTime() Time {
	// The current cycle's bucket being non-empty pins the wheel minimum
	// at now without a bitmap scan (the slot cannot hold any other time).
	if b := &e.wheel[e.now&wheelMask]; b.head < len(b.ev) {
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
// wheel buckets and the overflow heap. A sleeping Recurring contributes
// nothing (its tick is only queued while armed), so Pending == 0 is the
// engine's authoritative "fully idle" test: a drained engine with sleeping
// components reports zero even though those components could be re-armed
// by a later Wake. Pending never counts already-fired events, and a
// stopped engine still reports its queued (frozen) events.
func (e *Engine) Pending() int { return e.wheelCount + len(e.queue) }

// Stop makes Run and RunUntil return after the current event completes.
// The stop is final: every later Step/Run/RunUntil call is a no-op (time
// does not advance, events stay queued), so a stopped simulation cannot
// silently resume. Stopped reports the state.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called. While true,
// Step/Run/RunUntil/RunTo fire nothing and time is frozen at the stopping
// event's cycle; Schedule/ScheduleAt still accept events (they stay
// queued), and Pending still counts them.
func (e *Engine) Stopped() bool { return e.stopped }

// Step fires the single next event, advancing time to it. It reports false
// when the queue is empty.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	// Fast path: the current cycle's bucket has events and no heap event
	// orders before its head. (Equal-time events compare by (stamp, seq) —
	// see the ordering note on Engine.)
	if b := &e.wheel[e.now&wheelMask]; b.head < len(b.ev) {
		if len(e.queue) == 0 || e.queue[0].at > e.now || !lessSched(&e.queue[0], &b.ev[b.head]) {
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
		b := &e.wheel[slot]
		useHeap = lessSched(&e.queue[0], &b.ev[b.head])
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

// Run fires events until the queue drains or Stop is called. It returns the
// final simulation time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil fires events with timestamps <= limit. Events beyond the limit
// stay queued. Time advances to min(limit, last event), except after Stop:
// a stopped engine stays frozen at the stopping event's time and fires
// nothing further (see Stop). It returns true if the queue drained (no
// work remains at or before any time).
func (e *Engine) RunUntil(limit Time) bool {
	for !e.stopped {
		t := e.peekTime()
		if t == MaxTime {
			break
		}
		if t > limit {
			e.now = limit
			return false
		}
		e.Step()
	}
	if !e.stopped && e.now < limit {
		e.now = limit
	}
	return e.Pending() == 0
}

// RunTo fires events with timestamps <= limit like RunUntil, except that
// when the queue drains it leaves the clock at the last fired event
// instead of advancing to limit. Observers that sample the model at a
// fixed cadence from outside the event loop use it so the final partial
// epoch cannot inflate a run's end time: interleaving RunTo calls with
// snapshots fires exactly the same events at the same times as one Run.
// It returns true if the queue drained.
func (e *Engine) RunTo(limit Time) bool {
	for !e.stopped {
		t := e.peekTime()
		if t == MaxTime {
			break
		}
		if t > limit {
			e.now = limit
			return false
		}
		e.Step()
	}
	return e.Pending() == 0
}

// Recurring is a reusable periodic event: one closure is allocated at
// construction and re-enqueued for every tick, so steady-state ticking is
// allocation-free (the queue stores events by value). Model code that used
// to capture fresh closures per cycle — core issue loops, drain polls —
// holds one Recurring instead.
//
// A Recurring doubles as the idle-elision primitive: a clocked component
// returns false from its tick function (or calls Sleep) to stop consuming
// engine events while it has no work, and any input that could create
// work calls Wake/WakeAt to re-arm it. Both sides are idempotent, so the
// component never needs to know whether it is currently ticking. To avoid
// lost wakeups the component must (1) decide "no work" only from state a
// waker updates before calling Wake, and (2) call Wake after every such
// update — a Wake during the tick function itself is honored even when
// the tick returns false.
type Recurring struct {
	e      *Engine
	period Time
	fn     func() bool
	tick   Event
	active bool
	queued bool
}

// NewRecurring builds a recurring event firing every period cycles once
// started. fn reports whether the event should fire again; returning false
// (or calling Cancel) stops the series.
func (e *Engine) NewRecurring(period Time, fn func() bool) *Recurring {
	if period == 0 {
		panic("sim: recurring event needs a non-zero period")
	}
	r := &Recurring{e: e, period: period, fn: fn}
	r.tick = func() {
		r.queued = false
		if !r.active {
			return
		}
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
		} else {
			r.active = false
		}
	}
	return r
}

// Start schedules the first firing delay cycles from now and re-arms the
// series. Starting an active series panics: the engine would fire it twice
// per period, which is never intended. Restarting after Cancel while the
// canceled tick is still queued resumes that tick's original timing.
func (r *Recurring) Start(delay Time) {
	if r.active {
		panic("sim: recurring event started twice")
	}
	r.active = true
	if !r.queued {
		r.queued = true
		r.e.Schedule(delay, r.tick)
	}
}

// Cancel stops the series after any tick already queued; it may be
// restarted with Start.
func (r *Recurring) Cancel() { r.active = false }

// Sleep parks the series: Cancel under the name the idle-elision protocol
// uses. A sleeping component consumes no engine events until re-armed
// with Wake or WakeAt.
func (r *Recurring) Sleep() { r.active = false }

// Wake re-arms the series to tick in the current cycle. Unlike Start it
// is idempotent: waking an already-active series is a no-op, so wakers
// need not track the sleep state.
func (r *Recurring) Wake() { r.WakeAt(r.e.now) }

// WakeAt re-arms the series with its next tick at absolute time at
// (clamped to now). Idempotent: if a tick is already queued — the series
// is active, or was parked after the tick was enqueued — the series
// simply resumes with that tick's original timing; the engine has no
// event cancellation, so an in-flight tick can never be accelerated.
func (r *Recurring) WakeAt(at Time) {
	if at < r.e.now {
		at = r.e.now
	}
	r.active = true
	if !r.queued {
		r.queued = true
		r.e.ScheduleAt(at, r.tick)
	}
}

// Active reports whether the series is armed.
func (r *Recurring) Active() bool { return r.active }
