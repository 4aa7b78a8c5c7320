package mem

import (
	"testing"

	"repro/internal/sim"
)

func TestControllerInterleave(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, DefaultConfig())
	if m.ControllerFor(0) != 0 || m.ControllerFor(64) != 1 || m.ControllerFor(128) != 2 || m.ControllerFor(192) != 3 || m.ControllerFor(256) != 0 {
		t.Fatal("line interleave across 4 controllers broken")
	}
	// Addresses within one line map to the same controller.
	if m.ControllerFor(63) != 0 {
		t.Fatal("intra-line addresses split across controllers")
	}
}

func TestAccessLatency(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, DefaultConfig())
	var done sim.Time
	m.Access(0, 64, false, func() { done = e.Now() })
	e.Run()
	// 64B at 12.8B/cycle = 5 cycles occupancy + 100 latency.
	if done != 105 {
		t.Fatalf("single access completed at %d, want 105", done)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, DefaultConfig())
	var times []sim.Time
	for i := 0; i < 3; i++ {
		m.Access(0, 64, false, func() { times = append(times, e.Now()) })
	}
	e.Run()
	if len(times) != 3 {
		t.Fatalf("completed %d accesses", len(times))
	}
	// Same controller: each subsequent access waits 5 more occupancy cycles.
	if times[1]-times[0] != 5 || times[2]-times[1] != 5 {
		t.Fatalf("bandwidth not serialized: %v", times)
	}
}

func TestControllersIndependent(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, DefaultConfig())
	var a, b sim.Time
	m.Access(0, 64, false, func() { a = e.Now() })
	m.Access(64, 64, false, func() { b = e.Now() })
	e.Run()
	if a != b {
		t.Fatalf("different controllers should not serialize: %d vs %d", a, b)
	}
}

// counter reads one counter of the memory system's registry.
func counter(m *Memory, name string) uint64 { return m.Registry().Get(name) }

func TestStats(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, DefaultConfig())
	m.Access(0, 64, false, nil)
	m.Access(64, 64, true, nil)
	e.Run()
	if counter(m, "dram.reads") != 1 || counter(m, "dram.writes") != 1 {
		t.Fatalf("reads/writes = %d/%d, want 1/1", counter(m, "dram.reads"), counter(m, "dram.writes"))
	}
	if counter(m, "dram.bytes") != 128 {
		t.Fatalf("bytes = %d", counter(m, "dram.bytes"))
	}
}

func TestCornerNodes(t *testing.T) {
	got := CornerNodes(8, 8, 4)
	want := []int{0, 7, 56, 63}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("corners = %v, want %v", got, want)
		}
	}
}

func TestZeroByteAccessPanics(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("zero-byte access should panic")
		}
	}()
	m.Access(0, 0, false, nil)
}
