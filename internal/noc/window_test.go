package noc

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// windowedNet builds a network whose engine runs in lookahead windows,
// the path machine.New builds.
func windowedNet(w, h int) (*sim.Windowed, *Network) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = w, h
	loop := sim.NewWindowed(sim.NewEngine(), Lookahead(cfg))
	n := New(loop.Engine(), cfg)
	n.AttachWindows(loop)
	return loop, n
}

// driveMeshScript runs a fixed cross-mesh workload — staggered ping-pong
// chains between opposite corners' rows, same-node round trips, and a
// multicast burst — and returns the per-node delivery logs. run runs the
// engine e.
func driveMeshScript(n *Network, e *sim.Engine, run func()) [][]string {
	w := n.Config().Width
	nodes := n.Nodes()
	log := make([][]string, nodes)

	var chain func(src, dst, depth, bytes int) func()
	chain = func(src, dst, depth, bytes int) func() {
		return func() {
			at := e.Now()
			log[dst] = append(log[dst], fmt.Sprintf("at %d depth=%d", at, depth))
			if depth == 0 {
				return
			}
			n.Send(&Message{Src: dst, Dst: src, Bytes: bytes, Class: TrafficData,
				OnDeliver: chain(dst, src, depth-1, bytes+16)})
		}
	}

	for i := 0; i < w; i++ {
		src, dst := i, nodes-1-i
		i := i
		e.ScheduleAt(sim.Time(100+13*i), func() {
			n.Send(&Message{Src: src, Dst: dst, Bytes: 32 + 8*i, Class: TrafficControl,
				OnDeliver: chain(src, dst, 4, 48)})
			// Same-node round trip from the same cycle: must keep the
			// immediate router-only latency.
			n.Send(&Message{Src: src, Dst: src, Bytes: 8, Class: TrafficData,
				OnDeliver: func() {
					log[src] = append(log[src], fmt.Sprintf("local at %d", e.Now()))
				}})
		})
	}
	// A multicast from the mesh center to one node per row, plus a
	// fire-and-forget send that only the drain horizon keeps alive.
	center := nodes / 2
	e.ScheduleAt(400, func() {
		dsts := make([]int, 0, n.Config().Height)
		for r := 0; r < n.Config().Height; r++ {
			dsts = append(dsts, r*w+(r%w))
		}
		n.Multicast(center, dsts, 64, TrafficOffload, func(dst int) {
			log[dst] = append(log[dst], fmt.Sprintf("mc at %d", e.Now()))
		})
		n.Send(&Message{Src: center, Dst: 0, Bytes: 128, Class: TrafficData})
	})
	run()
	return log
}

// TestWindowedMeshMatchesImmediate drives the same scripted workload
// through an immediate network and through a windowed one, checking
// byte-identical delivery logs, traffic accounting, busy-link cycles and
// final clocks: the canonical barrier routing must reproduce the
// immediate link-contention arithmetic exactly.
func TestWindowedMeshMatchesImmediate(t *testing.T) {
	e, sn := testNet(8, 8)
	refLog := driveMeshScript(sn, e, func() { e.Run() })
	total := 0
	for _, l := range refLog {
		total += len(l)
	}
	if total == 0 {
		t.Fatal("reference script delivered nothing")
	}

	loop, nn := windowedNet(8, 8)
	log := driveMeshScript(nn, loop.Engine(), func() { loop.Run() })
	for node := range refLog {
		if len(log[node]) != len(refLog[node]) {
			t.Fatalf("node %d delivered %d events, immediate %d", node, len(log[node]), len(refLog[node]))
		}
		for i := range refLog[node] {
			if log[node][i] != refLog[node][i] {
				t.Fatalf("node %d delivery %d: got %q, immediate %q", node, i, log[node][i], refLog[node][i])
			}
		}
	}
	if got := loop.Engine().Now(); got != e.Now() {
		t.Fatalf("final clock %d, immediate %d", got, e.Now())
	}
	if nn.Delivered != sn.Delivered {
		t.Fatalf("Delivered=%d, immediate %d", nn.Delivered, sn.Delivered)
	}
	for c := TrafficClass(0); c < numTrafficClasses; c++ {
		for _, name := range []string{"noc.bytehops." + c.String(), "noc.messages." + c.String()} {
			if got, want := nn.Registry().Get(name), sn.Registry().Get(name); got != want {
				t.Fatalf("%s = %d, immediate %d", name, got, want)
			}
		}
	}
	if nn.BusyLinkCycles() != sn.BusyLinkCycles() {
		t.Fatalf("busy link cycles %d, immediate %d", nn.BusyLinkCycles(), sn.BusyLinkCycles())
	}
}

// TestAttachWindowsValidation pins the attach-time guard rails.
func TestAttachWindowsValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 4, 4
	for _, tc := range []struct {
		name string
		loop *sim.Windowed
		e    *sim.Engine
	}{
		{"window wider than the lookahead", sim.NewWindowed(sim.NewEngine(), Lookahead(cfg)+1), nil},
		{"loop driving another engine", sim.NewWindowed(sim.NewEngine(), Lookahead(cfg)), sim.NewEngine()},
	} {
		e := tc.e
		if e == nil {
			e = tc.loop.Engine()
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s must panic", tc.name)
				}
			}()
			New(e, cfg).AttachWindows(tc.loop)
		}()
	}
}
