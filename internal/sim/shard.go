package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// ShardGroup coordinates K per-shard Engines as one logical simulation,
// using conservative (CMB-style) parallel discrete-event simulation.
//
// Time is divided into barrier-synchronized windows of fixed width W, the
// group's lookahead: the minimum latency of any cross-shard interaction
// (for the mesh NoC, two router traversals plus a link hop). Within a
// window [T, T+W-1] every shard runs its own engine independently on its
// own goroutine — no event fired in the window can affect another shard
// before T+W, so the shards cannot race. Cross-shard interactions raised
// during the window are captured by the model (see noc.AttachShards) and
// handed to flush hooks that the group runs single-threaded at the window
// barrier, in a canonical order independent of the shard count; the hooks
// schedule the resulting deliveries with Engine.ScheduleStampedAt, which
// back-dates each delivery to its cause's cycle so it fires in exactly
// the position a serial engine would have given it.
//
// The result is determinism by construction: for a fixed model, the fired
// event sequence of every shard is byte-identical for any K and any
// goroutine schedule. K = 1 is not a special code path — the same window
// loop, capture and flush machinery runs, just with one engine and no
// worker goroutines.
//
// Windows are work-skipping like the serial engine's idle elision: each
// window starts at the earliest pending event across all shards, so a
// fully idle stretch costs one time comparison, not W empty barriers.
type ShardGroup struct {
	engines []*Engine
	window  Time
	flush   []func(limit Time)

	// Worker goroutines (started lazily, only when parallel execution is
	// both possible and profitable) and their rendezvous channels.
	workers  bool
	parallel bool
	force    bool
	work     []chan Time
	done     chan workerDone
	closed   atomic.Bool

	// windows counts barrier-synchronized windows executed; stallNanos[i]
	// accumulates the wall-clock time shard i sat at barriers waiting for
	// the window's slowest shard (always zero in serial execution), and
	// laggard[i] counts the windows where shard i WAS the slowest — the
	// shard on the barrier critical path. All are host-side diagnostics:
	// they never feed back into the model.
	windows    uint64
	stallNanos []uint64
	laggard    []uint64
	busy       []time.Duration
}

// workerDone is one shard's report for a finished window.
type workerDone struct {
	shard int
	busy  time.Duration
}

// NewShardGroup builds a group of k engines with the given lookahead
// window (in cycles). k < 1 or window < 1 panic: a zero-width window
// means the model offers no conservative lookahead and cannot be sharded.
func NewShardGroup(k int, window Time) *ShardGroup {
	if k < 1 {
		panic(fmt.Sprintf("sim: shard group needs at least one shard, got %d", k))
	}
	if window < 1 {
		panic("sim: shard group needs a lookahead window of at least one cycle")
	}
	g := &ShardGroup{
		engines:    make([]*Engine, k),
		window:     window,
		stallNanos: make([]uint64, k),
		laggard:    make([]uint64, k),
		busy:       make([]time.Duration, k),
	}
	for i := range g.engines {
		g.engines[i] = NewEngine()
	}
	return g
}

// Shards reports the number of shard engines.
func (g *ShardGroup) Shards() int { return len(g.engines) }

// Engine returns shard i's engine. Model components schedule their local
// events on the engine of the shard that owns them.
func (g *ShardGroup) Engine(i int) *Engine { return g.engines[i] }

// Window reports the lookahead window width in cycles.
func (g *ShardGroup) Window() Time { return g.window }

// AddFlush registers a barrier hook. After every window the group calls
// each hook, single-threaded and in registration order, with the last
// cycle of the window just executed; hooks route captured cross-shard
// interactions and schedule their deliveries (which land strictly after
// the window by the lookahead argument).
func (g *ShardGroup) AddFlush(fn func(limit Time)) { g.flush = append(g.flush, fn) }

// ForceParallel makes the group run shards on worker goroutines even when
// GOMAXPROCS is 1 (where the default is to run them inline on the caller,
// avoiding rendezvous overhead that cannot buy any speedup). Results are
// identical either way; tests use this to drive the cross-goroutine path
// under the race detector on any host.
func (g *ShardGroup) ForceParallel(on bool) { g.force = on }

// Now returns the group's clock: the furthest shard clock, which after a
// drained Run equals the serial engine's final time (the timestamp of the
// last fired event).
func (g *ShardGroup) Now() Time {
	var t Time
	for _, e := range g.engines {
		if n := e.Now(); n > t {
			t = n
		}
	}
	return t
}

// Executed sums the fired-event counts of all shards.
func (g *ShardGroup) Executed() uint64 {
	var n uint64
	for _, e := range g.engines {
		n += e.Executed
	}
	return n
}

// Pending sums the pending-event counts of all shards (see
// Engine.Pending for the idle-elision caveats).
func (g *ShardGroup) Pending() int {
	n := 0
	for _, e := range g.engines {
		n += e.Pending()
	}
	return n
}

// Stopped reports whether any shard engine has been stopped.
func (g *ShardGroup) Stopped() bool {
	for _, e := range g.engines {
		if e.Stopped() {
			return true
		}
	}
	return false
}

// Windows reports how many barrier-synchronized windows have executed.
func (g *ShardGroup) Windows() uint64 { return g.windows }

// StallNanos returns per-shard cumulative wall-clock nanoseconds spent
// waiting at window barriers for the slowest shard. The slice is owned by
// the group; callers must not mutate it.
func (g *ShardGroup) StallNanos() []uint64 { return g.stallNanos }

// LaggardWindows returns, per shard, how many windows that shard was the
// slowest — the critical-path view complementing StallNanos: a shard with
// a large laggard count is the one the others wait for. Like the stall
// times it is wall-clock data (always zero in serial execution) and the
// slice is owned by the group.
func (g *ShardGroup) LaggardWindows() []uint64 { return g.laggard }

// Close stops the worker goroutines, if any were started. The group (and
// its engines) remain usable afterwards — the next window restarts the
// workers — but every creator of a parallel group must Close it when the
// simulation is done, or the workers leak. Close is idempotent.
func (g *ShardGroup) Close() {
	if !g.workers {
		return
	}
	g.workers = false
	for _, ch := range g.work {
		close(ch)
	}
	g.work = nil
	g.done = nil
}

// peek returns the earliest pending timestamp across all shards.
func (g *ShardGroup) peek() Time {
	t := MaxTime
	for _, e := range g.engines {
		if pt := e.peekTime(); pt < t {
			t = pt
		}
	}
	return t
}

// runFlush runs the barrier hooks, single-threaded, in registration order.
func (g *ShardGroup) runFlush(limit Time) {
	for _, fn := range g.flush {
		fn(limit)
	}
}

// startWorkers spawns one goroutine per shard, each blocking on its work
// channel for a window limit and answering on the shared done channel.
func (g *ShardGroup) startWorkers() {
	g.workers = true
	g.work = make([]chan Time, len(g.engines))
	g.done = make(chan workerDone, len(g.engines))
	for i := range g.engines {
		g.work[i] = make(chan Time)
		go func(i int, e *Engine, work <-chan Time, done chan<- workerDone) {
			for limit := range work {
				start := time.Now()
				e.RunTo(limit)
				done <- workerDone{shard: i, busy: time.Since(start)}
			}
		}(i, g.engines[i], g.work[i], g.done)
	}
}

// runWindow executes one window: every shard runs its events through
// limit, then the flush hooks route the window's captured cross-shard
// interactions. Serial groups (one shard, or one processor without
// ForceParallel) run inline on the caller's goroutine.
func (g *ShardGroup) runWindow(limit Time) {
	if len(g.engines) == 1 || (!g.force && runtime.GOMAXPROCS(0) == 1) {
		for _, e := range g.engines {
			e.RunTo(limit)
		}
	} else {
		if !g.workers {
			g.startWorkers()
		}
		for _, ch := range g.work {
			ch <- limit
		}
		var slowest time.Duration
		laggard := 0
		for range g.engines {
			d := <-g.done
			g.busy[d.shard] = d.busy
			if d.busy > slowest {
				slowest = d.busy
			}
		}
		for i, b := range g.busy {
			g.stallNanos[i] += uint64((slowest - b).Nanoseconds())
			if b == slowest {
				laggard = i // ties resolve to the highest shard id
			}
		}
		g.laggard[laggard]++
	}
	g.runFlush(limit)
	g.windows++
}

// windowEnd computes the last cycle of a window starting at start,
// saturating at MaxTime.
func (g *ShardGroup) windowEnd(start Time) Time {
	end := start + g.window - 1
	if end < start {
		return MaxTime
	}
	return end
}

// Run executes windows until every shard drains (or any is stopped) and
// returns the final group time. Equivalent to Engine.Run on the union of
// the shards' event streams — including the final clock: every shard's
// engine ends on the group time, exactly where one serial engine would
// rest (see syncClocks).
func (g *ShardGroup) Run() Time {
	for !g.Stopped() {
		start := g.peek()
		if start == MaxTime {
			break
		}
		g.runWindow(g.windowEnd(start))
	}
	return g.syncClocks()
}

// syncClocks advances every engine's idle clock to the furthest shard's
// and returns that group time. A drained run leaves each shard's clock at
// its own last local event — a residue of the partition, not of the
// model. Anything the model schedules after the run relative to an
// engine's Now (the next kernel's start ticks, between-run bookkeeping)
// would then depend on the shard count. Aligning the idle clocks restores
// the serial contract: one run ends at one time. Nothing fires — the
// queues are empty — and a stopped group stays frozen for post-mortem
// inspection.
func (g *ShardGroup) syncClocks() Time {
	end := g.Now()
	if !g.Stopped() {
		for _, e := range g.engines {
			if e.Now() < end {
				e.RunUntil(end)
			}
		}
	}
	return end
}

// RunTo executes windows covering events with timestamps <= limit,
// leaving shard clocks at their last fired event when the group drains,
// or at limit when work remains beyond it — the group analogue of
// Engine.RunTo, used by samplers that snapshot the model at a fixed
// cadence. It reports whether the group drained.
func (g *ShardGroup) RunTo(limit Time) bool {
	for !g.Stopped() {
		start := g.peek()
		if start == MaxTime || start > limit {
			break
		}
		end := g.windowEnd(start)
		if end > limit {
			end = limit
		}
		g.runWindow(end)
	}
	if g.Stopped() {
		return g.Pending() == 0
	}
	drained := g.Pending() == 0
	if drained {
		// Serial RunTo leaves the clock at the last fired event; align
		// every shard with that one time (see syncClocks).
		g.syncClocks()
	} else {
		// Work remains beyond limit: a serial engine's clock would rest at
		// limit. No events remain at or before it, so each engine's
		// RunUntil fires nothing and just advances idle clocks there.
		for _, e := range g.engines {
			e.RunUntil(limit)
		}
	}
	return drained
}
