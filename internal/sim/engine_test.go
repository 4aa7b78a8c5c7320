package sim

import (
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(10, func() { order = append(order, 2) })
	e.Schedule(5, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 3) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 20 {
		t.Fatalf("final time = %d, want 20", e.Now())
	}
}

func TestSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(7, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events not FIFO at %d: got %d", i, v)
		}
	}
}

func TestZeroDelayRunsSameCycle(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(3, func() {
		e.Schedule(0, func() {
			fired = true
			if e.Now() != 3 {
				t.Errorf("zero-delay event at %d, want 3", e.Now())
			}
		})
	})
	e.Run()
	if !fired {
		t.Fatal("zero-delay event never fired")
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 50 {
			e.Schedule(1, tick)
		}
	}
	e.Schedule(1, tick)
	e.Run()
	if count != 50 {
		t.Fatalf("count = %d, want 50", count)
	}
	if e.Now() != 50 {
		t.Fatalf("time = %d, want 50", e.Now())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	drained := e.RunUntil(12)
	if drained {
		t.Fatal("RunUntil(12) reported drained with events pending")
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 5,10 only", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("now = %d, want 12", e.Now())
	}
	if !e.RunUntil(100) {
		t.Fatal("RunUntil(100) should drain")
	}
	if len(fired) != 4 {
		t.Fatalf("fired %v, want all four", fired)
	}
	if e.Now() != 100 {
		t.Fatalf("now = %d, want 100 (advanced to limit)", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i+1), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3 (stopped)", count)
	}
}

func TestStopIsSticky(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(1, func() { count++; e.Stop() })
	e.Schedule(2, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1 (stopped)", count)
	}
	if !e.Stopped() {
		t.Fatal("Stopped() false after Stop")
	}
	// A stopped engine must not silently resume: Run, RunUntil and Step
	// are all no-ops, with the second event still queued.
	if e.Run(); count != 1 {
		t.Fatal("Run resumed a stopped engine")
	}
	if e.RunUntil(100); count != 1 {
		t.Fatal("RunUntil resumed a stopped engine")
	}
	if e.Step() {
		t.Fatal("Step fired on a stopped engine")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want the unfired event kept", e.Pending())
	}
	if e.Now() != 1 {
		t.Fatalf("time advanced to %d on a stopped engine", e.Now())
	}
}

func TestStopThenRunUntilDoesNotAdvanceTime(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() { e.Stop() })
	e.Schedule(50, func() {})
	if e.RunUntil(100) {
		t.Fatal("RunUntil reported drained with an event pending after Stop")
	}
	if e.Now() != 5 {
		t.Fatalf("now = %d, want 5 (stop freezes time)", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.ScheduleAt(5, func() {})
	})
	e.Run()
}

func TestTimeMonotonicProperty(t *testing.T) {
	// Property: regardless of the delays scheduled, observed firing times
	// are monotonically non-decreasing.
	f := func(delays []uint16) bool {
		e := NewEngine()
		var last Time
		ok := true
		for _, d := range delays {
			d := Time(d)
			e.Schedule(d, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck generator")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j%17), func() {})
		}
		e.Run()
	}
}

func TestRecurring(t *testing.T) {
	e := NewEngine()
	var at []Time
	r := e.NewRecurring(3, func() bool {
		at = append(at, e.Now())
		return len(at) < 4
	})
	r.Start(2)
	e.Run()
	want := []Time{2, 5, 8, 11}
	if len(at) != len(want) {
		t.Fatalf("fired %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("fired %v, want %v", at, want)
		}
	}
	if r.Active() {
		t.Fatal("series still active after fn returned false")
	}
}

func TestRecurringCancelAndRestart(t *testing.T) {
	e := NewEngine()
	count := 0
	r := e.NewRecurring(1, func() bool { count++; return true })
	r.Start(1)
	e.Schedule(5, func() { r.Cancel() })
	e.RunUntil(20)
	// Ticks fire at t=1..4; the cancel event carries an earlier sequence
	// number than the t=5 tick, so it wins the t=5 cycle and the tick is a
	// no-op.
	if count != 4 {
		t.Fatalf("count = %d, want 4 (canceled at t=5)", count)
	}
	if r.Active() {
		t.Fatal("Active after Cancel")
	}
	// Restart from t=20: ticks at 21..25.
	r.Start(1)
	e.RunUntil(25)
	if count != 9 {
		t.Fatalf("count = %d after restart, want 9", count)
	}
	// Double Start panics.
	defer func() {
		if recover() == nil {
			t.Fatal("second Start on an active series did not panic")
		}
	}()
	r.Start(1)
}
