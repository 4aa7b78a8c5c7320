package sim

import "testing"

// TestRunToStopsAtLimit pins the epoch-stepping contract the sampler
// depends on: RunTo fires everything up to the limit, parks the clock at
// the limit while work remains, and — crucially — does NOT advance the
// clock to the limit once the queue drains, so external sampling epochs
// never inflate a run's end time.
func TestRunToStopsAtLimit(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(5, func() { fired++ })
	e.Schedule(15, func() { fired++ })
	if e.RunTo(10) {
		t.Fatal("RunTo(10) reported drained with an event pending at 15")
	}
	if e.Now() != 10 || fired != 1 {
		t.Fatalf("after RunTo(10): now=%d fired=%d, want now=10 fired=1", e.Now(), fired)
	}
	if !e.RunTo(100) {
		t.Fatal("RunTo(100) did not drain the queue")
	}
	if e.Now() != 15 || fired != 2 {
		t.Fatalf("after drain: now=%d fired=%d, want now=15 (last event, not the limit) fired=2", e.Now(), fired)
	}
	// An already-empty queue reports drained without touching the clock.
	if !e.RunTo(200) || e.Now() != 15 {
		t.Fatalf("RunTo on empty queue moved the clock to %d", e.Now())
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
	r.Start(1)
	e.Run() // warm: the Recurring's closure is the only allocation
	if a := testing.AllocsPerRun(100, func() {
		r.Start(1)
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
	idler.Start(0)
	e.Run()
	if a := testing.AllocsPerRun(1000, func() {
		idler.Wake()
		e.Run()
	}); a != 0 {
		t.Errorf("Recurring Wake/Sleep churn: %.1f allocs/op, want 0", a)
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
