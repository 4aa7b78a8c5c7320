package sim

import "testing"

// The engine benchmarks pin the allocation-free contract of the event
// queue: Schedule/Step churn with a pre-built Event must not allocate at
// all (the heap stores events by value), and recurring events must not
// allocate per tick. allocs/op regressions here mean every simulated
// cycle got slower — treat them as review blockers.

// BenchmarkEngineScheduleStepChurn measures the raw queue cost: a rotating
// window of pending events, each firing scheduling the next. The Event is
// hoisted so the measurement isolates heap push/pop from closure creation.
func BenchmarkEngineScheduleStepChurn(b *testing.B) {
	e := NewEngine()
	var fn Event
	i := 0
	fn = func() {
		if i < b.N {
			i++
			e.Schedule(Time(i%13)+1, fn)
		}
	}
	// Keep a 64-event window in flight, like a busy bank's transaction mix.
	for j := 0; j < 64; j++ {
		e.Schedule(Time(j%13)+1, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for e.Step() && i < b.N {
	}
}

// BenchmarkEngineScheduleRunBatch mirrors the historical whole-queue
// benchmark: fill with 1000 events, drain, repeat.
func BenchmarkEngineScheduleRunBatch(b *testing.B) {
	fn := Event(func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j%17), fn)
		}
		e.Run()
	}
}

// BenchmarkEngineFarScheduleChurn measures the overflow-heap path: every
// delay lands past the wheel horizon, so this is the worst case the
// two-level design can hit (and roughly what the old heap-only engine
// paid on every event).
func BenchmarkEngineFarScheduleChurn(b *testing.B) {
	e := NewEngine()
	fn := Event(func() {})
	for j := 0; j < 64; j++ {
		e.Schedule(wheelSize+Time(j%13)+1, fn)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(wheelSize+Time(i%13)+1, fn)
		e.Step()
	}
}

// BenchmarkEngineRecurring measures timer-wheel-style periodic events: N
// ticks of a Recurring must cost zero allocations after construction.
func BenchmarkEngineRecurring(b *testing.B) {
	e := NewEngine()
	n := 0
	r := e.NewRecurring(1, func() bool {
		n++
		return n < b.N
	})
	r.Wake()
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
