package noc

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testNet(w, h int) (*sim.Engine, *Network) {
	e := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = w, h
	return e, New(e, cfg)
}

// byteHops reads a class's bytes×hops from the network's registry.
func byteHops(n *Network, c TrafficClass) uint64 {
	return n.Registry().Get("noc.bytehops." + c.String())
}

func TestTrafficAccounting(t *testing.T) {
	_, n := testNet(4, 4)
	n.record(TrafficData, 64, 3)
	n.record(TrafficData, 8, 2)
	n.record(TrafficOffload, 16, 4)
	if got := byteHops(n, TrafficData); got != 64*3+8*2 {
		t.Fatalf("data byte-hops = %d", got)
	}
	if got := byteHops(n, TrafficOffload); got != 64 {
		t.Fatalf("offload byte-hops = %d", got)
	}
	if got := n.Registry().Get("noc.messages.data"); got != 2 {
		t.Fatalf("data messages = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range traffic class should panic")
		}
	}()
	n.record(numTrafficClasses, 8, 1)
}

func TestTrafficClassString(t *testing.T) {
	if TrafficData.String() != "data" || TrafficControl.String() != "control" || TrafficOffload.String() != "offloaded" {
		t.Fatal("traffic class names changed; Figure 12 legend and counter names depend on them")
	}
}

func TestCoordRoundTrip(t *testing.T) {
	_, n := testNet(8, 8)
	for id := 0; id < n.Nodes(); id++ {
		x, y := n.Coord(id)
		if n.NodeAt(x, y) != id {
			t.Fatalf("coord round trip failed for %d", id)
		}
	}
}

func TestHopCount(t *testing.T) {
	_, n := testNet(8, 8)
	cases := []struct {
		src, dst, want int
	}{
		{0, 0, 0},
		{0, 7, 7},
		{0, 63, 14},
		{n.NodeAt(3, 4), n.NodeAt(5, 1), 2 + 3},
	}
	for _, c := range cases {
		if got := n.HopCount(c.src, c.dst); got != c.want {
			t.Errorf("HopCount(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestHopCountSymmetric(t *testing.T) {
	_, n := testNet(8, 8)
	f := func(a, b uint8) bool {
		s, d := int(a)%64, int(b)%64
		return n.HopCount(s, d) == n.HopCount(d, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRouteIsXY(t *testing.T) {
	_, n := testNet(8, 8)
	src, dst := n.NodeAt(1, 1), n.NodeAt(4, 6)
	path := n.route(src, dst)
	if len(path) != n.HopCount(src, dst)+1 {
		t.Fatalf("path length %d, want %d", len(path), n.HopCount(src, dst)+1)
	}
	// X must be fully routed before Y moves.
	yMoved := false
	for i := 1; i < len(path); i++ {
		px, py := n.Coord(path[i-1])
		cx, cy := n.Coord(path[i])
		if cy != py {
			yMoved = true
		}
		if cx != px && yMoved {
			t.Fatal("X movement after Y movement: not X-Y routing")
		}
	}
}

func TestSendDeliversAndCharges(t *testing.T) {
	e, n := testNet(8, 8)
	delivered := false
	var at sim.Time
	n.Send(&Message{Src: 0, Dst: 63, Bytes: 64, Class: TrafficData, OnDeliver: func() {
		delivered = true
		at = e.Now()
	}})
	e.Run()
	if !delivered {
		t.Fatal("message not delivered")
	}
	if at == 0 {
		t.Fatal("delivery at time 0 is impossible")
	}
	wantBH := uint64(64+n.Config().HeaderBytes) * 14
	if got := byteHops(n, TrafficData); got != wantBH {
		t.Fatalf("byte-hops = %d, want %d", got, wantBH)
	}
}

func TestLocalDelivery(t *testing.T) {
	e, n := testNet(4, 4)
	var at sim.Time
	n.Send(&Message{Src: 5, Dst: 5, Bytes: 64, Class: TrafficData, OnDeliver: func() { at = e.Now() }})
	e.Run()
	if at != n.Config().RouterLatency {
		t.Fatalf("local delivery at %d, want router latency %d", at, n.Config().RouterLatency)
	}
	if byteHops(n, TrafficData) != 0 {
		t.Fatal("local messages must not be charged link traffic")
	}
}

func TestContentionSerializes(t *testing.T) {
	e, n := testNet(8, 1)
	// Two max-size messages over the same links: the second must arrive
	// later than the first.
	var first, second sim.Time
	n.Send(&Message{Src: 0, Dst: 7, Bytes: 64, Class: TrafficData, OnDeliver: func() { first = e.Now() }})
	n.Send(&Message{Src: 0, Dst: 7, Bytes: 64, Class: TrafficData, OnDeliver: func() { second = e.Now() }})
	e.Run()
	if second <= first {
		t.Fatalf("contention not modelled: first=%d second=%d", first, second)
	}
}

func TestMulticastSharedLinksChargedOnce(t *testing.T) {
	e, n := testNet(8, 8)
	// From (0,0) to (7,0) and (7,1): X path is shared for 7 hops, then the
	// second branch takes 1 extra Y hop → 8 unique links, not 15.
	dsts := []int{n.NodeAt(7, 0), n.NodeAt(7, 1)}
	count := 0
	n.Multicast(0, dsts, 8, TrafficControl, func(dst int) { count++ })
	e.Run()
	if count != 2 {
		t.Fatalf("multicast delivered %d times, want 2", count)
	}
	wantBH := uint64(8+n.Config().HeaderBytes) * 8
	if got := byteHops(n, TrafficControl); got != wantBH {
		t.Fatalf("multicast byte-hops = %d, want %d (shared prefix charged once)", got, wantBH)
	}
}

func TestMulticastEmpty(t *testing.T) {
	e, n := testNet(4, 4)
	n.Multicast(0, nil, 8, TrafficControl, nil)
	e.Run()
	if byteHops(n, TrafficData)+byteHops(n, TrafficControl)+byteHops(n, TrafficOffload) != 0 {
		t.Fatal("empty multicast should be free")
	}
}

func TestLatencyMonotonicInDistance(t *testing.T) {
	prev := sim.Time(0)
	for d := 0; d < 8; d++ {
		// A lone message on an idle mesh: no contention, pure latency.
		e, n := testNet(8, 8)
		var at sim.Time
		n.Send(&Message{Src: 0, Dst: n.NodeAt(d, 0), Bytes: 64, Class: TrafficData, OnDeliver: func() { at = e.Now() }})
		e.Run()
		if at <= prev {
			t.Fatalf("arrival %d at distance %d, not later than %d at distance %d", at, d, prev, d-1)
		}
		prev = at
	}
}

func TestSerializationRoundsUp(t *testing.T) {
	_, n := testNet(2, 1)
	// 64B payload + 8B header = 72B over 32B/cycle links = 3 cycles.
	if got := n.serializationCycles(64); got != 3 {
		t.Fatalf("serialization(64B) = %d cycles, want 3", got)
	}
	if got := n.serializationCycles(0); got != 1 {
		t.Fatalf("serialization(0B) = %d cycles, want 1 (header)", got)
	}
}

func TestBadNodePanics(t *testing.T) {
	_, n := testNet(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range node should panic")
		}
	}()
	n.HopCount(0, 4)
}

func TestTrafficByHopsProperty(t *testing.T) {
	// Property: total byte-hops equals sum over messages of
	// (bytes+header)×hops, independent of contention or timing.
	f := func(pairs []uint16) bool {
		e, n := testNet(8, 8)
		var want uint64
		for _, p := range pairs {
			src := int(p) % 64
			dst := int(p>>6) % 64
			bytes := int(p%5)*16 + 8
			want += uint64(bytes+n.Config().HeaderBytes) * uint64(n.HopCount(src, dst))
			n.Send(&Message{Src: src, Dst: dst, Bytes: bytes, Class: TrafficData})
		}
		e.Run()
		return byteHops(n, TrafficData) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUtilizationBounded(t *testing.T) {
	e, n := testNet(4, 4)
	if n.Utilization() != 0 {
		t.Fatal("idle network should report zero utilization")
	}
	for i := 0; i < 200; i++ {
		n.Send(&Message{Src: i % 16, Dst: (i * 7) % 16, Bytes: 64, Class: TrafficData})
	}
	e.Run()
	u := n.Utilization()
	if u <= 0 || u > 1 {
		t.Fatalf("utilization %v outside (0,1]", u)
	}
}

func TestUtilizationGrowsWithLoad(t *testing.T) {
	run := func(msgs int) float64 {
		e, n := testNet(4, 4)
		for i := 0; i < msgs; i++ {
			n.Send(&Message{Src: 0, Dst: 15, Bytes: 64, Class: TrafficData})
		}
		e.Run()
		return n.Utilization()
	}
	if run(100) <= run(2) {
		t.Fatal("more traffic should mean higher utilization")
	}
}

// TestMulticastAccountingMatchesReference pins the bytes×hops contract of
// the precomputed-route multicast against a per-message map of (from, to)
// pairs built from the node-id route — the structure the dense link-id
// rewrite replaced. Any divergence in unique-link counting changes
// Figures 1b/12/15 and must fail here.
func TestMulticastAccountingMatchesReference(t *testing.T) {
	f := func(seed uint16, raw []uint8) bool {
		e, n := testNet(8, 8)
		src := int(seed) % 64
		dsts := make([]int, 0, len(raw))
		for _, r := range raw {
			dsts = append(dsts, int(r)%64)
		}
		if len(dsts) == 0 {
			return true
		}
		// Reference: unique directed links over all X-Y routes.
		unique := make(map[[2]int]bool)
		for _, d := range dsts {
			path := n.route(src, d)
			for i := 0; i+1 < len(path); i++ {
				unique[[2]int{path[i], path[i+1]}] = true
			}
		}
		bytes := 8
		want := uint64(bytes+n.Config().HeaderBytes) * uint64(len(unique))
		n.Multicast(src, dsts, bytes, TrafficControl, nil)
		e.Run()
		return byteHops(n, TrafficControl) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRouteLinksMatchNodePath checks the precomputed link-id table against
// the node-id route for every pair of a small mesh: same length, same
// sequence of (from, dir) links.
func TestRouteLinksMatchNodePath(t *testing.T) {
	_, n := testNet(5, 3)
	for src := 0; src < n.Nodes(); src++ {
		for dst := 0; dst < n.Nodes(); dst++ {
			path := n.route(src, dst)
			ids := n.routeLinks(src, dst)
			if len(ids) != len(path)-1 {
				t.Fatalf("route %d->%d: %d link ids, want %d", src, dst, len(ids), len(path)-1)
			}
			for i := range ids {
				from, to := path[i], path[i+1]
				var dir int
				switch to - from {
				case 1:
					dir = dirEast
				case -1:
					dir = dirWest
				case n.Config().Width:
					dir = dirSouth
				case -n.Config().Width:
					dir = dirNorth
				default:
					t.Fatalf("route %d->%d: non-adjacent step %d->%d", src, dst, from, to)
				}
				if want := int32(from*dirCount + dir); ids[i] != want {
					t.Fatalf("route %d->%d link %d: id %d, want %d", src, dst, i, ids[i], want)
				}
			}
		}
	}
}
