package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The toy model behind the Windowed oracle: N nodes, each owning a
// private rand stream, fire local events and send messages to other
// nodes. Run on a plain Engine (sends scheduled immediately at the send
// site) it is the reference; run on a Windowed loop (sends captured and
// routed at window barriers in canonical (time, src, seq) order,
// delivered with back-dated stamps) it must produce byte-identical
// per-node logs — the same claim the NoC exchange makes for the real
// machine, reduced to its essentials.

const (
	toyNodes  = 8
	toyWindow = 8 // lookahead Δ: every message latency is >= this
)

// toySched abstracts how a send reaches another node, so one node
// implementation drives both the immediate reference and the windowed
// loop.
type toySched interface {
	engine() *Engine
	send(src, dst int, latency Time, fn Event)
	run() Time
}

// immediateToy schedules a send's delivery at the send site.
type immediateToy struct{ e *Engine }

func (s *immediateToy) engine() *Engine { return s.e }
func (s *immediateToy) send(src, dst int, latency Time, fn Event) {
	s.e.ScheduleAt(s.e.Now()+latency, fn)
}
func (s *immediateToy) run() Time { return s.e.Run() }

// windowedToy captures sends in an outbox flushed at window barriers in
// canonical order.
type windowedToy struct {
	w      *Windowed
	outbox []toyMsg
	seq    []uint64 // per-src send counter, the canonical tiebreak
}

type toyMsg struct {
	at   Time
	src  int
	seq  uint64
	late Time
	fn   Event
}

func newWindowedToy() *windowedToy {
	wt := &windowedToy{w: NewWindowed(NewEngine(), toyWindow), seq: make([]uint64, toyNodes)}
	wt.w.AddFlush(wt.flush)
	return wt
}

func (wt *windowedToy) engine() *Engine { return wt.w.Engine() }

func (wt *windowedToy) send(src, dst int, latency Time, fn Event) {
	wt.seq[src]++
	wt.outbox = append(wt.outbox, toyMsg{at: wt.w.Engine().Now(), src: src, seq: wt.seq[src], late: latency, fn: fn})
}

func (wt *windowedToy) flush(limit Time) {
	all := wt.outbox
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
		wt.w.Engine().ScheduleStampedAt(m.at+m.late, m.at, m.fn)
	}
	wt.outbox = all[:0]
}

func (wt *windowedToy) run() Time { return wt.w.Run() }

// runToyModel drives the node model on s and returns per-node logs. Local
// delays are even and message latencies odd (and per-src distinct), so no
// delivery ever shares an (arrival, send-time) key with a local event or
// a different sender's delivery: the immediate reference and the
// windowed loop must then agree on the exact total order. (Equal keys may
// legally interleave differently under the canonical exchange order.)
func runToyModel(s toySched, seed int64) [][]string {
	logs := make([][]string, toyNodes)
	rngs := make([]*rand.Rand, toyNodes)
	counts := make([]int, toyNodes)
	for n := range rngs {
		rngs[n] = rand.New(rand.NewSource(seed + int64(n)))
	}

	latency := func(src int, r *rand.Rand) Time {
		return Time(toyWindow+r.Intn(3)*2*toyNodes) + Time(2*src) + 1 // odd, distinct per src
	}
	localDelay := func(r *rand.Rand) Time {
		d := Time(r.Intn(6) * 2) // even
		if r.Intn(16) == 0 {
			d += wheelSize // exercise the overflow heap too
		}
		return d
	}

	var event func(node int, tag string) Event
	event = func(node int, tag string) Event {
		return func() {
			e := s.engine()
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
		s.engine().ScheduleAt(Time(n+1), event(n, fmt.Sprintf("seed%d", n)))
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

// TestWindowedMatchesEngine is the Windowed property oracle: on a
// randomized tie-free multi-node workload, the windowed loop with
// barrier-routed sends must fire every node's events at the same cycles
// in the same order as a plain Engine with immediate cross-node
// scheduling.
func TestWindowedMatchesEngine(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		ref := runToyModel(&immediateToy{e: NewEngine()}, seed)
		got := runToyModel(newWindowedToy(), seed)
		diffLogs(t, ref, got, "immediate", "windowed")
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

// TestWindowedReadOnlyHook checks the sampler contract: a barrier hook
// that only reads the model leaves every event at its cycle, never sees
// the clock past the window just run, and stops being called once
// unregistered.
func TestWindowedReadOnlyHook(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ref := runToyModel(newWindowedToy(), seed)
		wt := newWindowedToy()
		barriers, off := 0, 0
		remove := wt.w.AddFlush(func(limit Time) {
			barriers++
			if now := wt.w.Engine().Now(); now > limit {
				t.Fatalf("barrier at %d with the clock at %d", limit, now)
			}
		})
		got := runToyModel(wt, seed)
		diffLogs(t, ref, got, "unobserved", "observed")
		if barriers == 0 || uint64(barriers) != wt.w.Windows() {
			t.Fatalf("hook ran at %d of %d barriers", barriers, wt.w.Windows())
		}
		remove()
		wt.w.AddFlush(func(Time) { off++ })
		wt.w.Engine().Schedule(3, func() {})
		wt.w.Run()
		if barriers != int(wt.w.Windows())-1 || off != 1 {
			t.Fatalf("removed hook ran: %d calls for %d windows", barriers, wt.w.Windows())
		}
	}
}
