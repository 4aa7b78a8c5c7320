package core

import (
	"slices"
	"testing"
)

func TestElemWaits(t *testing.T) {
	cases := []struct {
		name string
		// run drives w, appending to log: "w<k>" when waiter k runs, "f"
		// just before finish(0) returns control to the test.
		run  func(w *elemWaits, log *[]string)
		want []string
	}{
		{
			name: "wait-before-finish-runs-at-finish",
			run: func(w *elemWaits, log *[]string) {
				w.wait(0, func() { *log = append(*log, "w1") })
				*log = append(*log, "f")
				w.finish(0)
			},
			want: []string{"f", "w1"},
		},
		{
			name: "wait-after-finish-runs-at-once",
			run: func(w *elemWaits, log *[]string) {
				w.finish(0)
				*log = append(*log, "f")
				w.wait(0, func() { *log = append(*log, "w1") })
			},
			want: []string{"f", "w1"},
		},
		{
			name: "three-waiters-in-registration-order",
			run: func(w *elemWaits, log *[]string) {
				for _, k := range []string{"w1", "w2", "w3"} {
					w.wait(0, func() { *log = append(*log, k) })
				}
				*log = append(*log, "f")
				w.finish(0)
			},
			want: []string{"f", "w1", "w2", "w3"},
		},
		{
			name: "finish-without-waiters-is-a-no-op",
			run: func(w *elemWaits, log *[]string) {
				w.wait(1, func() { *log = append(*log, "w1") })
				*log = append(*log, "f")
				w.finish(0)
			},
			want: []string{"f"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := elemWaits{done: make([]bool, 2)}
			var log []string
			tc.run(&w, &log)
			if !slices.Equal(log, tc.want) {
				t.Fatalf("ran %v, want %v", log, tc.want)
			}
			if !w.done[0] {
				t.Fatal("finished element not marked done")
			}
			// A second finish must not run any waiter again.
			w.finish(0)
			if !slices.Equal(log, tc.want) {
				t.Fatalf("second finish re-ran waiters: %v", log)
			}
		})
	}
}

// TestElemWaitsSteadyStateNoAllocs: once the first-waiter slots exist, a
// wait on a pending element plus its finish allocates nothing — the
// per-element path every stream consumer takes.
func TestElemWaitsSteadyStateNoAllocs(t *testing.T) {
	const n = 1 << 10
	w := elemWaits{done: make([]bool, n)}
	fired := 0
	fn := func() { fired++ }
	w.wait(n-1, fn) // allocates the slot array
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		w.wait(i, fn)
		w.finish(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("wait+finish allocates %.1f/op, want 0", allocs)
	}
	if fired != i {
		t.Fatalf("%d waiters ran for %d finishes", fired, i)
	}
}
