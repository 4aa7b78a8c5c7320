package sim

import (
	"fmt"
	"slices"
	"testing"
)

// TestCycleEndHookTiming pins when the end-of-cycle hooks run: once per
// active cycle, after every event of that cycle — wheel events, zero-delay
// schedules made during the cycle, and overflow-heap events due then —
// and once more when Run drains. An event a hook schedules at the current
// cycle fires before the clock advances, and the hooks follow it again.
// Splitting a cycle into two hook calls (say, whenever the current wheel
// bucket empties while heap events are still due) would split one
// cycle's NoC sends into two routing batches.
func TestCycleEndHookTiming(t *testing.T) {
	e := NewEngine()
	var log []string
	ev := func(name string) Event {
		return func() { log = append(log, fmt.Sprintf("%s@%d", name, e.Now())) }
	}
	hookCalls := 0
	remove := e.AtCycleEnd(func() {
		log = append(log, fmt.Sprintf("hook@%d", e.Now()))
		if hookCalls++; hookCalls == 1 {
			e.Schedule(0, ev("from-hook"))
		}
	})
	e.Schedule(3, func() {
		ev("a1")()
		e.Schedule(0, ev("zero"))
	})
	e.Schedule(3, ev("a2"))
	// Two overflow-heap events share cycle 2000 with a wheel event
	// scheduled at 1990; the first heap event adds a zero-delay event.
	e.ScheduleAt(2000, func() {
		ev("h1")()
		e.Schedule(0, ev("h-zero"))
	})
	e.ScheduleAt(2000, ev("h2"))
	e.ScheduleAt(1990, func() {
		ev("w-sched")()
		e.Schedule(10, ev("w"))
	})
	e.Run()
	want := []string{
		"a1@3", "a2@3", "zero@3", "hook@3", "from-hook@3", "hook@3",
		"w-sched@1990", "hook@1990",
		"h1@2000", "h2@2000", "w@2000", "h-zero@2000", "hook@2000",
		"hook@2000", // drain
	}
	if !slices.Equal(log, want) {
		t.Fatalf("firing log\n got %v\nwant %v", log, want)
	}

	// An unregistered hook no longer runs.
	remove()
	log = log[:0]
	e.Schedule(5, ev("late"))
	e.Run()
	if !slices.Equal(log, []string{"late@2005"}) {
		t.Fatalf("after remove: %v", log)
	}
}

// TestEngineHotPathsAllocFree pins the zero-allocation contract of the
// event queue as a hard test (the benchmarks report the same numbers but
// only a human reads those): steady-state Schedule/Step churn and
// Recurring ticks must not allocate at all.
func TestEngineHotPathsAllocFree(t *testing.T) {
	e := NewEngine()
	fn := Event(func() {})
	for j := 0; j < 64; j++ { // grow the queue's backing array once
		e.Schedule(Time(j%13)+1, fn)
	}
	e.Run()
	if a := testing.AllocsPerRun(1000, func() {
		e.Schedule(1, fn)
		e.Step()
	}); a != 0 {
		t.Errorf("Schedule/Step churn: %.1f allocs/op, want 0", a)
	}

	ticks := 0
	r := e.NewRecurring(1, func() bool {
		ticks++
		return ticks%16 != 0
	})
	r.Wake()
	e.Run() // warm: the Recurring's closure is the only allocation
	if a := testing.AllocsPerRun(100, func() {
		r.Wake()
		e.Run()
	}); a != 0 {
		t.Errorf("Recurring ticks: %.1f allocs/op, want 0", a)
	}

	// The far path — events past the wheel horizon landing in the
	// overflow heap — holds the same contract.
	far := NewEngine()
	for j := 0; j < 64; j++ { // grow the heap's backing array once
		far.Schedule(wheelSize+Time(j%13)+1, fn)
	}
	far.Run()
	if a := testing.AllocsPerRun(1000, func() {
		far.Schedule(wheelSize+7, fn)
		far.Step()
	}); a != 0 {
		t.Errorf("far Schedule/Step churn: %.1f allocs/op, want 0", a)
	}

	// So does the idle-elision protocol: parking and re-arming a
	// Recurring is pure flag-and-queue work.
	idler := e.NewRecurring(1, func() bool { return false })
	idler.Wake()
	e.Run()
	if a := testing.AllocsPerRun(1000, func() {
		idler.Wake()
		e.Run()
	}); a != 0 {
		t.Errorf("Recurring Wake/park churn: %.1f allocs/op, want 0", a)
	}
}

// TestEngineProfilingCountersAlwaysOnAndFree pins the execution-profile
// counters the attribution profiler reads (idle-elision savings, wheel
// occupancy): they are always on — no enable switch — so they must be
// pure array/field adds. The alloc guard runs them on the slow path,
// then checks both actually recorded.
func TestEngineProfilingCountersAlwaysOnAndFree(t *testing.T) {
	e := NewEngine()
	fn := Event(func() {})
	// Sparse far-apart events force the slow path (occupancy observed
	// there) and idle gaps (elided rather than ticked through).
	e.Schedule(1, fn)
	e.Run()
	gap := Time(1000)
	if a := testing.AllocsPerRun(500, func() {
		e.Schedule(gap, fn)
		e.Run()
	}); a != 0 {
		t.Errorf("profiled slow-path churn: %.1f allocs/op, want 0", a)
	}
	if e.IdleElided == 0 {
		t.Error("idle gaps ran without recording IdleElided cycles")
	}
	// Occupancy is observed at the slow-path step after the due event
	// pops, so a single in-flight event legitimately observes 0 — only
	// the observation count is load-bearing here.
	if _, count, _ := e.WheelOccupancy(); count == 0 {
		t.Errorf("slow-path steps recorded no wheel occupancy (count=%d)", count)
	}
	// The counters are per engine: a new one starts from zero.
	fresh := NewEngine()
	if fresh.IdleElided != 0 {
		t.Error("new engine starts with IdleElided cycles")
	}
	if _, count, _ := fresh.WheelOccupancy(); count != 0 {
		t.Error("new engine starts with wheel-occupancy observations")
	}
}
