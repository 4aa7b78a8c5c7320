package noc

import (
	"testing"

	"repro/internal/obs"
)

// TestSendAllocFreeWithTracer pins the observability zero-cost contract
// on the NoC side: Send must stay allocation-free both with a tracer
// attached-but-disabled (the normal production state) and with tracing
// live — the ring buffer is preallocated, so even a full-rate trace adds
// only a bounded-copy per message, never garbage.
func TestSendAllocFreeWithTracer(t *testing.T) {
	for _, tc := range []struct {
		name    string
		enabled bool
	}{
		{"disabled", false},
		{"enabled", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, n := testNet(8, 8)
			tr := obs.NewTracer(1 << 10)
			tr.SetEnabled(tc.enabled)
			n.SetTracer(tr)
			m := &Message{Src: 0, Dst: 63, Bytes: 64, Class: TrafficData}
			for i := 0; i < 256; i++ { // warm the engine queue capacity
				n.Send(m)
				e.Run()
			}
			i := 0
			if a := testing.AllocsPerRun(500, func() {
				m.Src, m.Dst = i%64, (i*13)%64
				i++
				n.Send(m)
				e.Run()
			}); a != 0 {
				t.Errorf("Send with %s tracer: %.1f allocs/op, want 0", tc.name, a)
			}
			if tc.enabled && tr.Total() == 0 {
				t.Error("enabled tracer recorded no events")
			}
		})
	}
}

// TestSendAllocFreeWithAttribution is the same contract for the
// cycle-attribution profiler: Send must stay allocation-free both with
// attribution off (nil lane — the default; Charge is a single branch)
// and with a lane attached, where the link-backpressure charge and wait
// histogram are fixed-array adds.
func TestSendAllocFreeWithAttribution(t *testing.T) {
	for _, tc := range []struct {
		name string
		lane *obs.Attribution
	}{
		{"disabled", nil},
		{"enabled", obs.NewAttribution()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, n := testNet(8, 8)
			n.SetAttribution(tc.lane)
			m := &Message{Src: 0, Dst: 63, Bytes: 64, Class: TrafficData}
			for i := 0; i < 256; i++ { // warm the engine queue capacity
				n.Send(m)
				e.Run()
			}
			i := 0
			if a := testing.AllocsPerRun(500, func() {
				m.Src, m.Dst = i%64, (i*13)%64
				i++
				n.Send(m)
				e.Run()
			}); a != 0 {
				t.Errorf("Send with %s attribution: %.1f allocs/op, want 0", tc.name, a)
			}
			if tc.lane != nil && tc.lane.Hists[obs.HistNoCLinkWait].Count == 0 {
				t.Error("enabled lane observed no link waits")
			}
		})
	}
}

// TestWindowedSendAllocFree extends the contract to a network attached
// to a window loop — the path machine.New builds. Sends from inside a
// window are captured to the outbox and routed at the barrier, and
// neither the capture nor the barrier's canonical ordering of the
// window's sends may allocate. That includes a fire-and-forget multicast
// with no same-node member: its destinations are copied into the
// exchange's reused buffer.
func TestWindowedSendAllocFree(t *testing.T) {
	loop, n := windowedNet(4, 4)
	e := loop.Engine()
	msgs := [4]Message{
		{Src: 0, Dst: 15, Bytes: 64, Class: TrafficData},
		{Src: 5, Dst: 3, Bytes: 8, Class: TrafficControl},
		{Src: 12, Dst: 1, Bytes: 64, Class: TrafficData},
		{Src: 9, Dst: 9, Bytes: 16, Class: TrafficOffload},
	}
	mcDsts := []int{1, 7, 10, 14}
	send := func() {
		for i := range msgs {
			n.Send(&msgs[i])
		}
		n.Multicast(6, mcDsts, 8, TrafficControl, nil)
	}
	window := func() {
		e.Schedule(1, send)
		loop.Run()
	}
	for i := 0; i < 64; i++ { // warm the outboxes and engine queue
		window()
	}
	if a := testing.AllocsPerRun(200, window); a != 0 {
		t.Errorf("4-send, 1-multicast window on a windowed network: %.2f allocs/op, want 0", a)
	}
}
