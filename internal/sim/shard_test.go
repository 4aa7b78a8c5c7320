package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The toy model behind the ShardGroup oracle: N nodes, each owning a
// private rand stream, fire local events and send messages to other
// nodes. Run serially (one Engine, sends scheduled immediately at the
// send site) it is the reference; run on a ShardGroup (sends captured per
// shard and routed at window barriers in canonical (time, src, seq)
// order, delivered with back-dated stamps) it must produce byte-identical
// per-node logs — the same claim the NoC exchange makes for the real
// machine, reduced to its essentials.

const (
	toyNodes  = 8
	toyWindow = 8 // lookahead Δ: every message latency is >= this
)

// toySched abstracts "the engine a node schedules on" plus "how a send
// reaches another node", so one node implementation drives both the
// serial reference and the sharded group.
type toySched interface {
	nodeEngine(node int) *Engine
	send(src, dst int, latency Time, fn Event)
	run() Time
}

// serialToy runs everything on one engine; a send is an immediate
// ScheduleAt, exactly like the pre-shard NoC.
type serialToy struct{ e *Engine }

func (s *serialToy) nodeEngine(int) *Engine { return s.e }
func (s *serialToy) send(src, dst int, latency Time, fn Event) {
	s.e.ScheduleAt(s.e.Now()+latency, fn)
}
func (s *serialToy) run() Time { return s.e.Run() }

// shardToy partitions nodes over a ShardGroup and routes sends through a
// per-shard outbox flushed at window barriers in canonical order.
type shardToy struct {
	g       *ShardGroup
	shardOf []int
	outbox  [][]toyMsg
	seq     []uint64 // per-src send counter, the canonical tiebreak
}

type toyMsg struct {
	at   Time
	src  int
	seq  uint64
	dst  int
	late Time
	fn   Event
}

func newShardToy(shards int, forceParallel bool) *shardToy {
	g := NewShardGroup(shards, toyWindow)
	g.ForceParallel(forceParallel)
	st := &shardToy{
		g:       g,
		shardOf: make([]int, toyNodes),
		outbox:  make([][]toyMsg, shards),
		seq:     make([]uint64, toyNodes),
	}
	for n := range st.shardOf {
		st.shardOf[n] = n * shards / toyNodes
	}
	g.AddFlush(st.flush)
	return st
}

func (st *shardToy) nodeEngine(node int) *Engine { return st.g.Engine(st.shardOf[node]) }

func (st *shardToy) send(src, dst int, latency Time, fn Event) {
	sh := st.shardOf[src]
	st.seq[src]++
	st.outbox[sh] = append(st.outbox[sh], toyMsg{
		at: st.g.Engine(sh).Now(), src: src, seq: st.seq[src],
		dst: dst, late: latency, fn: fn,
	})
}

func (st *shardToy) flush(limit Time) {
	var all []toyMsg
	for i := range st.outbox {
		all = append(all, st.outbox[i]...)
		st.outbox[i] = st.outbox[i][:0]
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	for _, m := range all {
		st.g.Engine(st.shardOf[m.dst]).ScheduleStampedAt(m.at+m.late, m.at, m.fn)
	}
}

func (st *shardToy) run() Time { return st.g.Run() }

// runToyModel drives the node model on s and returns per-node logs. When
// tieFree is set, local delays are even and message latencies odd (and
// per-src distinct), so no delivery ever shares an (arrival, send-time)
// key with a local event or a different sender's delivery: the serial
// engine and the shard group must then agree on the exact total order.
// Without it, equal keys can legally interleave differently between the
// serial engine and the (canonically ordered) exchange, so only shard
// counts are compared against each other.
func runToyModel(s toySched, seed int64, tieFree bool) [][]string {
	logs := make([][]string, toyNodes)
	rngs := make([]*rand.Rand, toyNodes)
	counts := make([]int, toyNodes)
	for n := range rngs {
		rngs[n] = rand.New(rand.NewSource(seed + int64(n)))
	}

	latency := func(src int, r *rand.Rand) Time {
		base := Time(toyWindow + r.Intn(3)*2*toyNodes)
		if tieFree {
			return base + Time(2*src) + 1 // odd, distinct per src
		}
		return base + Time(r.Intn(5))
	}
	localDelay := func(r *rand.Rand) Time {
		d := Time(r.Intn(6) * 2) // even
		if !tieFree && r.Intn(4) == 0 {
			d++
		}
		if r.Intn(16) == 0 {
			d += wheelSize // exercise the overflow heap too
		}
		return d
	}

	var event func(node int, tag string) Event
	event = func(node int, tag string) Event {
		return func() {
			e := s.nodeEngine(node)
			logs[node] = append(logs[node], fmt.Sprintf("t=%d %s", e.Now(), tag))
			if counts[node] >= 120 {
				return
			}
			counts[node]++
			r := rngs[node]
			for c := r.Intn(3); c > 0; c-- {
				id := fmt.Sprintf("%s.l%d", tag, c)
				e.Schedule(localDelay(r), event(node, id))
			}
			if r.Intn(2) == 0 {
				dst := r.Intn(toyNodes - 1)
				if dst >= node {
					dst++
				}
				id := fmt.Sprintf("%s>%d", tag, dst)
				s.send(node, dst, latency(node, r), event(dst, id))
			}
		}
	}

	for n := 0; n < toyNodes; n++ {
		s.nodeEngine(n).ScheduleAt(Time(n+1), event(n, fmt.Sprintf("seed%d", n)))
	}
	s.run()
	return logs
}

func diffLogs(t *testing.T, want, got [][]string, a, b string) {
	t.Helper()
	for n := range want {
		if len(want[n]) != len(got[n]) {
			t.Fatalf("node %d: %s fired %d events, %s fired %d",
				n, a, len(want[n]), b, len(got[n]))
		}
		for i := range want[n] {
			if want[n][i] != got[n][i] {
				t.Fatalf("node %d event %d: %s=%q %s=%q",
					n, i, a, want[n][i], b, got[n][i])
			}
		}
	}
}

// TestShardGroupMatchesSerialEngine is the ShardGroup property oracle: on
// a randomized tie-free multi-node workload, the windowed parallel engine
// must fire every node's events at the same cycles in the same order as a
// plain serial Engine with immediate cross-node scheduling.
func TestShardGroupMatchesSerialEngine(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		ref := runToyModel(&serialToy{e: NewEngine()}, seed, true)
		for _, shards := range []int{1, 2, 4} {
			st := newShardToy(shards, true)
			got := runToyModel(st, seed, true)
			st.g.Close()
			diffLogs(t, ref, got, "serial", fmt.Sprintf("shards=%d", shards))
		}
	}
}

// TestShardGroupShardCountInvariant drops the tie-free restriction —
// deliveries may collide with local events and with other senders on the
// same (arrival, send-time) key — and asserts the canonical exchange
// order makes the outcome identical at every shard count anyway.
func TestShardGroupShardCountInvariant(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		base := newShardToy(1, false)
		ref := runToyModel(base, seed, false)
		base.g.Close()
		for _, shards := range []int{2, 4} {
			st := newShardToy(shards, true)
			got := runToyModel(st, seed, false)
			st.g.Close()
			diffLogs(t, ref, got, "shards=1", fmt.Sprintf("shards=%d", shards))
		}
	}
}

// TestScheduleStampedAtOrdering pins the stamp contract: a back-dated
// event fires before same-cycle events scheduled after its stamp, even
// though it was enqueued last.
func TestScheduleStampedAtOrdering(t *testing.T) {
	e := NewEngine()
	var order []string
	e.ScheduleAt(5, func() { order = append(order, "stamp5") })                             // stamp 0
	e.ScheduleAt(2, func() { e.ScheduleAt(5, func() { order = append(order, "stamp2") }) }) // stamp 2
	e.ScheduleStampedAt(5, 1, func() { order = append(order, "stamp1") })
	e.Run()
	want := "[stamp5 stamp1 stamp2]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("stamped ordering: got %v want %v", got, want)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("stamp after event time should panic")
		}
	}()
	e.ScheduleStampedAt(6, 7, func() {})
}

// TestShardGroupRunTo checks the sampler contract: interleaving RunTo
// windows with snapshots fires the same events as one Run, clocks land on
// the limit while undrained and on the last event once drained.
func TestShardGroupRunTo(t *testing.T) {
	g := NewShardGroup(2, toyWindow)
	defer g.Close()
	var fired []Time
	g.Engine(0).ScheduleAt(3, func() { fired = append(fired, 3) })
	g.Engine(1).ScheduleAt(40, func() { fired = append(fired, 40) })
	if g.RunTo(10) {
		t.Fatal("RunTo(10) should not drain with an event at 40 pending")
	}
	if g.Engine(0).Now() != 10 || g.Engine(1).Now() != 10 {
		t.Fatalf("undrained RunTo must advance clocks to the limit, got %d/%d",
			g.Engine(0).Now(), g.Engine(1).Now())
	}
	if !g.RunTo(100) {
		t.Fatal("RunTo(100) should drain")
	}
	if g.Now() != 40 {
		t.Fatalf("drained group clock = %d, want 40 (last event)", g.Now())
	}
	if g.Engine(0).Now() != 40 || g.Engine(1).Now() != 40 {
		t.Fatalf("drained RunTo must sync shard clocks to the group time, got %d/%d",
			g.Engine(0).Now(), g.Engine(1).Now())
	}
	if fmt.Sprint(fired) != "[3 40]" {
		t.Fatalf("fired %v", fired)
	}
	if g.Windows() == 0 {
		t.Fatal("window counter never advanced")
	}
}

// TestShardGroupRunSyncsClocks is the run-boundary regression test: a
// drained Run must leave every shard engine on the group time, not on its
// own last local event. Models schedule the next phase relative to
// Engine.Now between runs (a core's restart tick, a follow-on kernel's
// start events); if a lightly-loaded shard's clock lagged, those events
// would land earlier than on a serial engine and the simulated timeline
// would depend on the shard count.
func TestShardGroupRunSyncsClocks(t *testing.T) {
	g := NewShardGroup(3, toyWindow)
	defer g.Close()
	g.Engine(0).ScheduleAt(5, func() {})
	g.Engine(2).ScheduleAt(97, func() {}) // shard 1 never fires anything
	if end := g.Run(); end != 97 {
		t.Fatalf("Run returned %d, want 97", end)
	}
	for i := 0; i < g.Shards(); i++ {
		if now := g.Engine(i).Now(); now != 97 {
			t.Fatalf("shard %d clock = %d after Run, want the group time 97", i, now)
		}
	}
	// Phase two schedules relative to the synced clocks, exactly like a
	// serial engine that just drained.
	fired := Time(0)
	g.Engine(1).Schedule(1, func() { fired = g.Engine(1).Now() })
	g.Run()
	if fired != 98 {
		t.Fatalf("follow-on event fired at %d, want 98", fired)
	}
}
