package noc

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestCycleFlushCanonicalOrder is a randomized oracle for the routing
// order. Each trial fills eleven consecutive cycles with bursts of sends
// and multicasts from random sources (same-node ones included), then
// reads the order the end-of-cycle hook routed them in back from the
// tracer, where each message's payload size is its capture index. That
// order must equal a stable sort of the capture order by (send time,
// src).
func TestCycleFlushCanonicalOrder(t *testing.T) {
	rng := sim.NewRand(7)
	reordered := 0
	for trial := 0; trial < 40; trial++ {
		e, n := testNet(4, 4)
		tr := obs.NewTracer(1 << 14)
		tr.SetEnabled(true)
		n.SetTracer(tr)
		nodes := n.Nodes()
		type capture struct {
			at   sim.Time
			src  int
			dsts int
		}
		var sent []capture
		for c := sim.Time(0); c < Lookahead(n.Config()); c++ {
			// Two events per cycle, so a cycle's sends span events.
			for range 2 {
				burst := rng.Intn(6)
				e.ScheduleAt(c, func() {
					for j := 0; j < burst; j++ {
						id, src := len(sent), rng.Intn(nodes)
						if rng.Intn(4) == 0 {
							dsts := make([]int, 1+rng.Intn(4))
							for i := range dsts {
								dsts[i] = rng.Intn(nodes) // may be src
							}
							n.Multicast(src, dsts, id, TrafficControl, nil)
							sent = append(sent, capture{e.Now(), src, len(dsts)})
							continue
						}
						n.Send(&Message{Src: src, Dst: rng.Intn(nodes), Bytes: id, Class: TrafficData})
						sent = append(sent, capture{e.Now(), src, 1})
					}
				})
			}
		}
		e.Run()
		if len(sent) == 0 {
			t.Fatal("trial captured nothing")
		}
		want := make([]int, len(sent))
		for i := range want {
			want[i] = i
		}
		slices.SortStableFunc(want, func(a, b int) int {
			if c := cmp.Compare(sent[a].at, sent[b].at); c != 0 {
				return c
			}
			return cmp.Compare(sent[a].src, sent[b].src)
		})
		if !slices.IsSorted(want) {
			reordered++
		}
		// A multicast traces one event per destination, back to back.
		var got []int
		evs := tr.Events()
		for i := 0; i < len(evs); {
			id := int(evs[i].B)
			if id >= len(sent) || int(evs[i].Tile) != sent[id].src || sim.Time(evs[i].Time) != sent[id].at {
				t.Fatalf("trial %d: traced event %+v matches no capture", trial, evs[i])
			}
			got = append(got, id)
			i += sent[id].dsts
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: routed in order %v, want %v", trial, got, want)
		}
	}
	// The oracle must be able to tell canonical from capture order, or a
	// hook routing in append order would pass it.
	if reordered < 30 {
		t.Fatalf("only %d of 40 trials reordered anything", reordered)
	}
}

// TestSameCycleLowerSrcWinsLink pins what the canonical order decides.
// Link reservation is non-causal: a message routed first reserves a
// shared link at the time it will reach it, and one routed later waits
// behind that reservation even if it reaches the link sooner. On an 8×1
// row, node 0's message to node 2 reaches link 1→2 at cycle 14; node 1's
// long message enters that link at cycle 6 and would hold it through 14.
// Node 0 is routed first even when its send is emitted later in the
// cycle, so it arrives as if alone and node 1 waits behind it.
func TestSameCycleLowerSrcWinsLink(t *testing.T) {
	// run sends msgs from separate events of cycle 1, in order, and
	// returns each one's arrival.
	run := func(msgs ...Message) []sim.Time {
		e, n := testNet(8, 1)
		at := make([]sim.Time, len(msgs))
		for i := range msgs {
			m := msgs[i]
			m.OnDeliver = func() { at[i] = e.Now() }
			e.Schedule(1, func() { n.Send(&m) })
		}
		e.Run()
		return at
	}
	low := Message{Src: 0, Dst: 2, Bytes: 64, Class: TrafficData}
	high := Message{Src: 1, Dst: 2, Bytes: 280, Class: TrafficData}
	lowAlone, highAlone := run(low)[0], run(high)[0]
	got := run(high, low)
	if got[1] != lowAlone {
		t.Fatalf("node 0 arrived at %d, alone at %d: the later-emitted lower src must win link 1→2", got[1], lowAlone)
	}
	if got[0] <= highAlone {
		t.Fatalf("node 1 arrived at %d, alone at %d: it must wait behind node 0's reservation", got[0], highAlone)
	}
	if rev := run(low, high); rev[0] != got[1] || rev[1] != got[0] {
		t.Fatalf("emission order changed the arrivals: %v vs %v", rev, got)
	}
}

// TestSendsRoutedAtCycleEnd checks that a cycle's sends are routed once
// the cycle has no event left: a later event of the same cycle sees no
// traffic charged yet, and an end-of-cycle hook registered after the
// network's sees it charged, with the delivery scheduled.
func TestSendsRoutedAtCycleEnd(t *testing.T) {
	e, n := testNet(4, 4)
	var before, atEnd uint64
	e.Schedule(1, func() { n.Send(&Message{Src: 0, Dst: 15, Bytes: 64, Class: TrafficData, OnDeliver: func() {}}) })
	e.Schedule(1, func() { before = n.Registry().Get("noc.messages.data") })
	e.AtCycleEnd(func() {
		if e.Now() == 1 && atEnd == 0 {
			atEnd = n.Registry().Get("noc.messages.data")
			if e.Pending() != 1 {
				t.Errorf("%d events pending at the end of the send cycle, want the delivery", e.Pending())
			}
		}
	})
	e.Run()
	if before != 0 || atEnd != 1 || n.Delivered != 1 {
		t.Fatalf("messages charged: %d during the cycle, %d at its end; delivered %d (want 0, 1, 1)", before, atEnd, n.Delivered)
	}
}

// TestHorizonReplaysWindowEdges pins how often the drain-horizon event
// fires: fire-and-forget arrivals extend the horizon only at the edges of
// Lookahead-wide windows, the first opening at the first active cycle
// after the last edge. On a 4×4 mesh (Lookahead 11):
//   - cycle 0 sends 0→15, arriving at 53; window [0,10] ends, and the
//     horizon is queued at 53.
//   - cycle 45 opens window [45,55] and sends 0→1 (arriving at 58) and
//     1→15 (arriving at 90).
//   - the horizon fires at 53 and, the window still open, finds nothing
//     later; at the edge it is queued at 58, the first arrival routed,
//     and from there chases 90.
//
// That is 2 send events and 3 horizon events. Extending the horizon at
// each cycle's end instead would fire it twice (53, 90).
func TestHorizonReplaysWindowEdges(t *testing.T) {
	e, n := testNet(4, 4)
	var horizon []sim.Time
	e.Schedule(0, func() { n.Send(&Message{Src: 0, Dst: 15, Bytes: 64, Class: TrafficData}) })
	e.Schedule(45, func() {
		n.Send(&Message{Src: 1, Dst: 15, Bytes: 64, Class: TrafficData})
		n.Send(&Message{Src: 0, Dst: 1, Bytes: 64, Class: TrafficData})
	})
	e.AtCycleEnd(func() {
		// Every other active cycle holds only the horizon event.
		if now := e.Now(); now != 0 && now != 45 && (len(horizon) == 0 || horizon[len(horizon)-1] != now) {
			horizon = append(horizon, now)
		}
	})
	end := e.Run()
	if !slices.Equal(horizon, []sim.Time{53, 58, 90}) || e.Executed != 5 || end != 90 {
		t.Fatalf("horizon fired at %v; %d events, run ended at %d (want [53 58 90], 5, 90)", horizon, e.Executed, end)
	}
}
