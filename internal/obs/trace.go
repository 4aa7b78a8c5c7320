package obs

import "sort"

// Kind labels a traced event.
type Kind uint8

// Event kinds, one per instrumented site class. The order is part of the
// trace schema: tools key on the names from Kind.String, not the values.
const (
	KindStreamConfig  Kind = iota // stream configured at a bank (A=sid, B=bank)
	KindStreamMigrate             // stream migrated (A=sid, B=destination bank)
	KindStreamResume              // stream re-dispatched after suspend (A=sid, B=bank)
	KindStreamCommit              // range-sync window commit issued (A=sid, B=window)
	KindStreamFinish              // stream terminated (A=sid, B=elements)
	KindMSHR                      // tile MSHR occupancy changed (A=occupancy, B=line)
	KindNoCMsg                    // NoC message in flight (A=dst, B=bytes, Dur=latency)
	KindDRAM                      // DRAM burst (A=bytes, B=1 for write, Dur=latency)
	numKinds
)

var kindNames = [numKinds]string{
	"stream_config",
	"stream_migrate",
	"stream_resume",
	"stream_commit",
	"stream_finish",
	"mshr",
	"noc_msg",
	"dram",
}

// String names the kind for trace output.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one traced occurrence. The struct is flat and fixed-size so the
// tracer's ring buffer is a single preallocated slice; the A/B payload
// fields are interpreted per Kind (see the Kind constants).
type Event struct {
	// Time is the simulation cycle the event started.
	Time uint64
	// Dur is the event's duration in cycles (0 for instants).
	Dur uint64
	// A and B are kind-specific payloads.
	A, B uint64
	// Tile is the mesh node the event is attributed to.
	Tile int32
	// Kind classifies the event.
	Kind Kind
}

// DefaultTraceEvents is the per-job ring capacity: enough for the tail of
// any CI-scale run while bounding memory on paper-scale ones.
const DefaultTraceEvents = 1 << 16

// Tracer records typed events into a preallocated ring buffer. When the
// ring wraps, the oldest events are overwritten and counted as dropped —
// tracing never allocates after construction and never stalls the model.
//
// The nil receiver is valid and permanently disabled, so instrumentation
// sites guard with a single `if tr.Enabled()` branch whether or not a
// tracer was ever attached.
type Tracer struct {
	enabled bool
	ring    []Event
	next    int
	total   uint64
}

// NewTracer returns an enabled tracer with the given ring capacity
// (DefaultTraceEvents when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	return &Tracer{enabled: true, ring: make([]Event, capacity)}
}

// Enabled reports whether Emit records anything. Safe on a nil receiver.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled }

// SetEnabled switches recording on or off without discarding the ring.
func (t *Tracer) SetEnabled(on bool) { t.enabled = on }

// Emit records ev. Callers on hot paths must guard with Enabled() so the
// disabled cost is one branch; Emit re-checks for safety on cold paths.
func (t *Tracer) Emit(ev Event) {
	if !t.Enabled() {
		return
	}
	t.ring[t.next] = ev
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
	t.total++
}

// Len reports how many events are currently held (≤ ring capacity).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	if t.total < uint64(len(t.ring)) {
		return int(t.total)
	}
	return len(t.ring)
}

// Total reports how many events were ever emitted.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Dropped reports how many events the ring overwrote.
func (t *Tracer) Dropped() uint64 {
	if t == nil || t.total <= uint64(len(t.ring)) {
		return 0
	}
	return t.total - uint64(len(t.ring))
}

// Events returns the retained events oldest-first (a copy).
func (t *Tracer) Events() []Event {
	n := t.Len()
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	if t.total > uint64(len(t.ring)) {
		out = append(out, t.ring[t.next:]...)
	}
	out = append(out, t.ring[:t.next]...)
	return out
}

// Cap reports the ring capacity.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.ring)
}

// AppendCanonical replays src's retained events into t in a canonical
// full-field order (Time, Kind, Tile, A, B, Dur), whatever order they
// were emitted in, and folds src's dropped events (a wrapped ring) into
// t's drop count.
func (t *Tracer) AppendCanonical(src *Tracer) {
	all := src.Events()
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Tile != b.Tile {
			return a.Tile < b.Tile
		}
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		return a.Dur < b.Dur
	})
	t.total += src.Dropped()
	for _, ev := range all {
		t.Emit(ev)
	}
}
