package sim

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"unsafe"
)

// refScheduler is the heap-only ordering oracle the wheel engine is
// checked against: a plain sorted queue fired strictly in (time, stamp,
// sequence) order. It reimplements none of the Engine's structure on
// purpose — any ordering bug the two-level design introduces shows up as
// a divergence.
type refScheduler struct {
	clock Time
	seq   uint64
	queue []scheduled
}

func (r *refScheduler) schedule(delay Time, fn Event) {
	r.insert(r.clock+delay, r.clock, fn)
}

func (r *refScheduler) scheduleStamped(delay, back Time, fn Event) {
	r.insert(r.clock+delay, r.clock-back, fn)
}

func (r *refScheduler) insert(at, stamp Time, fn Event) {
	r.seq++
	s := scheduled{at: at, stamp: stamp, seq: r.seq, fn: fn}
	i := sort.Search(len(r.queue), func(i int) bool { return lessSched(&s, &r.queue[i]) })
	r.queue = append(r.queue, scheduled{})
	copy(r.queue[i+1:], r.queue[i:])
	r.queue[i] = s
}

func (r *refScheduler) step() bool {
	if len(r.queue) == 0 {
		return false
	}
	s := r.queue[0]
	r.queue = r.queue[1:]
	r.clock = s.at
	s.fn()
	return true
}

func (r *refScheduler) reset() {
	r.clock = 0
	r.seq = 0
	r.queue = nil
}

// testScheduler abstracts the engine under test and the oracle so one
// workload drives both. scheduleStamped back-dates the event's stamp by
// back cycles (back <= now), as the window exchange does.
type testScheduler interface {
	schedule(delay Time, fn Event)
	scheduleStamped(delay, back Time, fn Event)
	step() bool
	now() Time
	reset()
}

// engineAdapter drives an Engine; reset discards it for a new one, so
// nothing still queued on the old engine can fire afterwards. lands
// counts where each stamped wheel insert went in its slot's list, so the
// test can check the workload reached every insert position.
type engineAdapter struct {
	e     *Engine
	lands map[string]int
}

func (a *engineAdapter) schedule(delay Time, fn Event) { a.e.Schedule(delay, fn) }
func (a *engineAdapter) step() bool                    { return a.e.Step() }
func (a *engineAdapter) now() Time                     { return a.e.now }
func (a *engineAdapter) reset()                        { a.e = NewEngine() }

func (a *engineAdapter) scheduleStamped(delay, back Time, fn Event) {
	e := a.e
	at, stamp := e.now+delay, e.now-back
	if delay < wheelSize {
		b := e.wheel[at&wheelMask]
		s := scheduled{at: at, stamp: stamp, seq: e.seq + 1}
		var where string
		switch {
		case b.head == 0:
			where = "empty"
		case lessSched(&s, &e.nodes[b.head].scheduled):
			where = "head"
		case !lessSched(&s, &e.nodes[b.tail].scheduled):
			where = "tail"
		default:
			where = "middle"
		}
		if delay == 0 && b.head != 0 {
			where += " of firing"
		}
		if a.lands == nil {
			a.lands = map[string]int{}
		}
		a.lands[where]++
	}
	e.ScheduleStampedAt(at, stamp, fn)
}

func (r *refScheduler) now() Time { return r.clock }

// fired is one log entry: which event ran and when.
type fired struct {
	id int
	at Time
}

// runWorkload drives a randomized self-scheduling workload on s and
// returns the firing log. Delays straddle the wheel horizon (so events
// land in buckets, in the overflow heap, and migrate between runs of the
// clock), events schedule children from inside callbacks (same-cycle
// included), a fraction of events are "canceled" by flag before firing,
// and partway through the scheduler is replaced by a new one with events
// still pending, and a second workload runs on the replacement. With
// stamped set, a third of the events are scheduled with a stamp
// back-dated by up to 96 cycles, so they sort into their slot's list
// anywhere from its head to its tail — the current cycle's included.
func runWorkload(s testScheduler, seed int64, stamped bool) []fired {
	rng := rand.New(rand.NewSource(seed))
	var log []fired
	canceled := make(map[int]bool)
	nextID := 0
	total := 0
	const maxEvents = 4000

	randDelay := func() Time {
		switch rng.Intn(10) {
		case 0: // far past the wheel horizon
			return Time(wheelSize + rng.Intn(4*wheelSize))
		case 1: // exactly at the boundary
			return wheelSize
		case 2: // same cycle
			return 0
		default: // the common near case
			return Time(rng.Intn(64) + 1)
		}
	}

	var spawn func()
	spawn = func() {
		id := nextID
		nextID++
		if rng.Intn(8) == 0 {
			canceled[id] = true
		}
		fn := func() {
			if canceled[id] {
				return
			}
			log = append(log, fired{id: id, at: s.now()})
			for c := rng.Intn(3); c > 0 && total < maxEvents; c-- {
				total++
				spawn()
			}
		}
		if delay := randDelay(); stamped && rng.Intn(3) == 0 {
			s.scheduleStamped(delay, min(Time(rng.Intn(97)), s.now()), fn)
		} else {
			s.schedule(delay, fn)
		}
	}

	phase := func(roots int) {
		for i := 0; i < roots && total < maxEvents; i++ {
			total++
			spawn()
		}
		for s.step() {
		}
	}

	phase(40)
	// Replace the scheduler with events still pending: schedule a batch,
	// fire only some, then start over. Nothing from before may fire
	// afterwards.
	for i := 0; i < 20; i++ {
		total++
		spawn()
	}
	for i := 0; i < 5; i++ {
		s.step()
	}
	s.reset()
	log = append(log, fired{id: -1, at: s.now()}) // phase marker
	phase(40)
	return log
}

// TestWheelMatchesReferenceEngine is the property test for the two-level
// scheduler: under randomized delays, nested scheduling, cancellation and
// a mid-run restart, the wheel+heap engine must fire exactly the same events
// at exactly the same times, in exactly the same order, as a heap-only
// reference — with plain schedules only, and with back-dated stamped
// schedules mixed in. The stamped runs must have inserted at the head,
// middle and tail of a slot's list, and into the list now firing.
func TestWheelMatchesReferenceEngine(t *testing.T) {
	lands := map[string]int{}
	for _, stamped := range []bool{false, true} {
		for seed := int64(1); seed <= 12; seed++ {
			eng := &engineAdapter{e: NewEngine()}
			got := runWorkload(eng, seed, stamped)
			want := runWorkload(&refScheduler{}, seed, stamped)
			for k, n := range eng.lands {
				lands[k] += n
			}
			if len(got) != len(want) {
				t.Fatalf("stamped=%v seed %d: engine fired %d events, reference %d", stamped, seed, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("stamped=%v seed %d: firing %d diverges: engine (id=%d at=%d), reference (id=%d at=%d)",
						stamped, seed, i, got[i].id, got[i].at, want[i].id, want[i].at)
				}
			}
		}
	}
	for _, where := range []string{"head", "middle", "tail", "middle of firing"} {
		if lands[where] == 0 {
			t.Errorf("no stamped insert landed at the %s of a slot's list (lands %v)", where, lands)
		}
	}
}

// TestHeapBeatsWheelAtEqualTime pins the cross-level ordering invariant
// directly: an event that entered the overflow heap fires before a wheel
// event with the same timestamp, because the heap insertion necessarily
// happened earlier (smaller sequence number).
func TestHeapBeatsWheelAtEqualTime(t *testing.T) {
	e := NewEngine()
	var order []string
	target := Time(wheelSize + 10)
	e.ScheduleAt(target, func() { order = append(order, "heap") }) // far: heap
	e.Schedule(wheelSize, func() {
		// now = wheelSize: target is 10 cycles out, so this lands in the
		// wheel — at the same absolute time as the heap event.
		e.ScheduleAt(target, func() { order = append(order, "wheel") })
	})
	e.Run()
	if len(order) != 2 || order[0] != "heap" || order[1] != "wheel" {
		t.Fatalf("equal-time firing order = %v, want [heap wheel]", order)
	}
	if e.Now() != target {
		t.Fatalf("final time %d, want %d", e.Now(), target)
	}
}

// TestRecurringSleepWake covers the idle-elision protocol: a false
// return parks the series, Wake re-arms it for the current cycle, and
// Wake is idempotent.
func TestRecurringSleepWake(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	r := e.NewRecurring(2, func() bool {
		ticks = append(ticks, e.Now())
		return len(ticks)%2 == 1 // park after every second tick
	})
	e.Schedule(1, r.Wake)
	e.Run()
	if want := []Time{1, 3}; !timesEqual(ticks, want) {
		t.Fatalf("ticks before parking = %v, want %v", ticks, want)
	}
	if e.Pending() != 0 {
		t.Fatal("series still queued after its fn returned false")
	}

	// Waking re-arms at the current cycle; double Wake must not double-fire.
	e.Schedule(7, func() { r.Wake(); r.Wake() })
	ticks = ticks[:0]
	e.Run()
	if want := []Time{10, 12}; !timesEqual(ticks, want) {
		t.Fatalf("ticks after Wake = %v, want %v", ticks, want)
	}

	// A parked series stays parked: time passing alone fires nothing.
	e.Schedule(5, func() {})
	ticks = ticks[:0]
	e.Run()
	if len(ticks) != 0 {
		t.Fatalf("parked series ticked at %v", ticks)
	}
}

// TestRecurringWakeWhileTickQueued pins the resume semantics: waking a
// series whose tick is already queued keeps that tick's timing — no
// duplicate tick, no acceleration (the engine has no event cancellation).
func TestRecurringWakeWhileTickQueued(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	r := e.NewRecurring(4, func() bool {
		ticks = append(ticks, e.Now())
		return e.Now() < 16
	})
	e.Schedule(4, r.Wake)
	e.Schedule(5, r.Wake) // tick for t=8 is already queued: must NOT enqueue a second tick at t=5
	e.Run()
	if want := []Time{4, 8, 12, 16}; !timesEqual(ticks, want) {
		t.Fatalf("ticks = %v, want %v (queued tick kept, not duplicated)", ticks, want)
	}
}

// TestRecurringWakeDuringTick pins the lost-wakeup rule: a Wake that
// lands while the tick function is running — e.g. a component's own
// processing produces the input that should keep it awake — wins over the
// tick returning false.
func TestRecurringWakeDuringTick(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	var r *Recurring
	r = e.NewRecurring(3, func() bool {
		ticks = append(ticks, e.Now())
		if len(ticks) == 1 {
			r.Wake()
		}
		return false // "no work" — but the Wake above must win
	})
	e.Schedule(2, r.Wake)
	e.Run()
	if want := []Time{2, 2}; !timesEqual(ticks, want) {
		t.Fatalf("ticks = %v, want %v (wake during tick was lost)", ticks, want)
	}
	if e.Pending() != 0 {
		t.Fatal("series queued after final tick returned false with no wake")
	}
}

func timesEqual(a, b []Time) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWheelStorageFollowsPending pins what bounds the wheel's storage:
// the most events pending at once. Every slot in turn fires a burst that
// chains 600 events into the same cycle, one slot after another, so
// storage kept per slot would retain a full burst in each of the
// wheelSize slots, while storage that follows the pending events holds
// about one burst. Retained bytes are measured on the heap, so the check
// holds whatever the engine's layout.
func TestWheelStorageFollowsPending(t *testing.T) {
	const burst = 600
	// An event costs its record plus, at most, two slab links.
	const perEvent = uint64(unsafe.Sizeof(scheduled{})) + 8

	heapInUse := func() uint64 {
		// Two cycles: sync.Pool contents survive the first one.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	e := NewEngine()
	before := heapInUse()

	peak := 0
	noop := Event(func() {})
	var driver Event
	driver = func() {
		// The driver fires at cycle t-1 and fills cycle t's slot.
		for i := 0; i < burst; i++ {
			e.Schedule(1, noop)
		}
		peak = max(peak, e.Pending())
		if e.Now()+1 < wheelSize {
			e.Schedule(1, driver)
		}
	}
	e.Schedule(0, driver)
	e.Run()
	if want := uint64(wheelSize * (burst + 1)); e.Executed != want {
		t.Fatalf("executed %d events, want %d", e.Executed, want)
	}
	var retained uint64
	if after := heapInUse(); after > before {
		retained = after - before
	}
	runtime.KeepAlive(e)
	if limit := 2 * uint64(peak) * perEvent; retained > limit {
		t.Fatalf("engine retains %d B of event storage after a peak of %d pending events; want at most %d B (2x peak)",
			retained, peak, limit)
	}
}
