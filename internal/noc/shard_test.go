package noc

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// shardedNet builds a network partitioned over k shards (row bands).
func shardedNet(w, h, k int, force bool) (*sim.ShardGroup, *Network) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = w, h
	g := sim.NewShardGroup(k, Lookahead(cfg))
	g.ForceParallel(force)
	n := New(g.Engine(0), cfg)
	shardOf := make([]int32, w*h)
	for node := range shardOf {
		shardOf[node] = int32((node / w) * k / h)
	}
	n.AttachShards(g, shardOf)
	return g, n
}

// driveMeshScript runs a fixed cross-mesh workload — staggered ping-pong
// chains between opposite corners' rows, same-node round trips, and a
// multicast burst — and returns the delivery log plus the network for
// counter checks. runOn schedules the seed events and runs the engine(s).
func driveMeshScript(n *Network, engineOf func(node int) *sim.Engine, run func()) [][]string {
	w := n.Config().Width
	nodes := n.Nodes()
	// Per-node logs: each node is appended only from its own shard's
	// engine, so logging is race-free and the comparison is independent
	// of how different shards' same-window events interleave in time.
	log := make([][]string, nodes)

	var chain func(src, dst, depth, bytes int) func()
	chain = func(src, dst, depth, bytes int) func() {
		return func() {
			at := engineOf(dst).Now()
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
		e := engineOf(src)
		i := i
		e.ScheduleAt(sim.Time(100+13*i), func() {
			n.Send(&Message{Src: src, Dst: dst, Bytes: 32 + 8*i, Class: TrafficControl,
				OnDeliver: chain(src, dst, 4, 48)})
			// Same-node round trip from the same cycle: must keep the
			// serial router-only latency under any shard count.
			n.Send(&Message{Src: src, Dst: src, Bytes: 8, Class: TrafficData,
				OnDeliver: func() {
					log[src] = append(log[src], fmt.Sprintf("local at %d", engineOf(src).Now()))
				}})
		})
	}
	// A multicast from the mesh center to one node per row, plus a
	// fire-and-forget send that only the drain horizon keeps alive.
	center := nodes / 2
	engineOf(center).ScheduleAt(400, func() {
		dsts := make([]int, 0, n.Config().Height)
		for r := 0; r < n.Config().Height; r++ {
			dsts = append(dsts, r*w+(r%w))
		}
		n.Multicast(center, dsts, 64, TrafficOffload, func(dst int) {
			log[dst] = append(log[dst], fmt.Sprintf("mc at %d", engineOf(dst).Now()))
		})
		n.Send(&Message{Src: center, Dst: 0, Bytes: 128, Class: TrafficData})
	})
	run()
	return log
}

// TestShardedMeshMatchesSerial drives the same scripted workload through
// a serial network and through row-banded shard groups of 1, 2 and 4,
// checking byte-identical delivery logs, traffic accounting, busy-link
// cycles and final clocks. This is the mesh-level half of the ShardGroup
// determinism story: the canonical barrier routing must reproduce the
// serial link-contention arithmetic exactly.
func TestShardedMeshMatchesSerial(t *testing.T) {
	e, sn := testNet(8, 8)
	refLog := driveMeshScript(sn, func(int) *sim.Engine { return e }, func() { e.Run() })
	total := 0
	for _, l := range refLog {
		total += len(l)
	}
	if total == 0 {
		t.Fatal("reference script delivered nothing")
	}
	refEnd := e.Now()

	for _, k := range []int{1, 2, 4} {
		g, nn := shardedNet(8, 8, k, true)
		log := driveMeshScript(nn,
			func(node int) *sim.Engine { return g.Engine(int(nn.sh.shardOf[node])) },
			func() { g.Run() })
		g.Close()
		for node := range refLog {
			if len(log[node]) != len(refLog[node]) {
				t.Fatalf("k=%d node %d delivered %d events, serial %d",
					k, node, len(log[node]), len(refLog[node]))
			}
			for i := range refLog[node] {
				if log[node][i] != refLog[node][i] {
					t.Fatalf("k=%d node %d delivery %d: got %q, serial %q",
						k, node, i, log[node][i], refLog[node][i])
				}
			}
		}
		if g.Now() != refEnd {
			t.Fatalf("k=%d final clock %d, serial %d", k, g.Now(), refEnd)
		}
		if nn.Delivered != sn.Delivered {
			t.Fatalf("k=%d Delivered=%d, serial %d", k, nn.Delivered, sn.Delivered)
		}
		for c := TrafficClass(0); c < numTrafficClasses; c++ {
			for _, name := range []string{"noc.bytehops." + c.String(), "noc.messages." + c.String()} {
				if got, want := nn.Registry().Get(name), sn.Registry().Get(name); got != want {
					t.Fatalf("k=%d %s = %d, serial %d", k, name, got, want)
				}
			}
		}
		if nn.BusyLinkCycles() != sn.BusyLinkCycles() {
			t.Fatalf("k=%d busy link cycles %d, serial %d", k, nn.BusyLinkCycles(), sn.BusyLinkCycles())
		}
	}
}

// TestAttachShardsValidation pins the attach-time guard rails.
func TestAttachShardsValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 4, 4
	g := sim.NewShardGroup(2, Lookahead(cfg)+1)
	n := New(g.Engine(0), cfg)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("window wider than the lookahead must panic")
			}
		}()
		n.AttachShards(g, make([]int32, 16))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("short shard map must panic")
			}
		}()
		g2 := sim.NewShardGroup(2, Lookahead(cfg))
		New(g2.Engine(0), cfg).AttachShards(g2, make([]int32, 3))
	}()
}
