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
