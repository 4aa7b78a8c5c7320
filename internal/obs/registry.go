// Package obs is the observability layer of the simulator: interned
// counter registries, a ring-buffer event tracer with Chrome trace_event
// export, a time-series sampler, and machine-readable run reports.
//
// Everything here is built around one invariant: when observation is off,
// the simulation's hot paths must not be measurably slower — no map
// lookups, no allocations, no string formatting. Counters are interned to
// dense integer ids at component construction so incrementing is a slice
// index; tracing hides behind a nil-receiver-safe Enabled() branch; the
// sampler and reports only exist when a collector is attached.
package obs

// Registry interns counter names to dense integer ids at construction
// time. A component creates its counters once (Counter returns a handle),
// then every hot-path increment is a slice element add — the map is only
// touched at interning and snapshot time. A Registry is the simulator's
// only counter mechanism: a machine's counter snapshot is the SumInto of
// every registry it owns.
//
// A Registry is single-goroutine, like the simulation that owns it.
type Registry struct {
	index map[string]int
	names []string
	vals  []uint64

	// Histograms live beside the counters with the same interning scheme:
	// a dense-id handle whose Observe is a few fixed-array adds.
	hindex map[string]int
	hnames []string
	hists  []Hist

	// help holds optional HELP text per metric name (counter or
	// histogram), emitted by WritePrometheus so scrapers classify series.
	help map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]int{}, hindex: map[string]int{}}
}

// Counter interns name (idempotently) and returns its increment handle.
func (r *Registry) Counter(name string) Counter {
	if id, ok := r.index[name]; ok {
		return Counter{r: r, id: int32(id)}
	}
	id := len(r.vals)
	r.index[name] = id
	r.names = append(r.names, name)
	r.vals = append(r.vals, 0)
	return Counter{r: r, id: int32(id)}
}

// Len reports how many counters are interned.
func (r *Registry) Len() int { return len(r.vals) }

// Get returns a counter's value by name (0 if never interned).
func (r *Registry) Get(name string) uint64 {
	if id, ok := r.index[name]; ok {
		return r.vals[id]
	}
	return 0
}

// Has reports whether name is interned (its value may still be zero).
func (r *Registry) Has(name string) bool {
	_, ok := r.index[name]
	return ok
}

// SumInto adds every non-zero counter into dst by name. Zero counters are
// skipped, so a snapshot holds a counter only once it was touched, and
// summing several registries (per-shard lanes) gives shard-independent
// totals.
func (r *Registry) SumInto(dst map[string]uint64) {
	for i, v := range r.vals {
		if v != 0 {
			dst[r.names[i]] += v
		}
	}
}

// Histogram interns name (idempotently) and returns its observe handle.
func (r *Registry) Histogram(name string) Histogram {
	if r.hindex == nil {
		r.hindex = map[string]int{}
	}
	if id, ok := r.hindex[name]; ok {
		return Histogram{r: r, id: int32(id)}
	}
	id := len(r.hists)
	r.hindex[name] = id
	r.hnames = append(r.hnames, name)
	r.hists = append(r.hists, Hist{})
	return Histogram{r: r, id: int32(id)}
}

// SetHelp attaches HELP text to a metric name (counter or histogram) for
// the Prometheus exposition.
func (r *Registry) SetHelp(name, text string) {
	if r.help == nil {
		r.help = map[string]string{}
	}
	r.help[name] = text
}

// Help returns the HELP text registered for name ("" if none).
func (r *Registry) Help(name string) string { return r.help[name] }

// ExportHists feeds every non-empty histogram to add, in interning order.
func (r *Registry) ExportHists(add func(name string, h *Hist)) {
	for i := range r.hists {
		if r.hists[i].Count != 0 {
			add(r.hnames[i], &r.hists[i])
		}
	}
}

// Reset zeroes every counter value and histogram while keeping the
// interning tables, so Counter/Histogram handles issued before the reset
// stay valid. Component reuse (machine pooling) depends on this: a pooled
// component re-interns the same names and must land on the same ids.
func (r *Registry) Reset() {
	clear(r.vals)
	for i := range r.hists {
		r.hists[i] = Hist{}
	}
}

// Counter is a dense-id handle into a Registry. Incrementing is a slice
// element add: no map access, no allocation.
type Counter struct {
	r  *Registry
	id int32
}

// Inc adds one.
func (c Counter) Inc() { c.r.vals[c.id]++ }

// Add adds v.
func (c Counter) Add(v uint64) { c.r.vals[c.id] += v }

// Get returns the current value.
func (c Counter) Get() uint64 { return c.r.vals[c.id] }

// Histogram is a dense-id handle to a log-bucketed histogram in a
// Registry. Observing is a few fixed-array adds: no map access, no
// allocation.
type Histogram struct {
	r  *Registry
	id int32
}

// Observe records one value.
func (h Histogram) Observe(v uint64) { h.r.hists[h.id].Observe(v) }

// Snapshot returns a copy of the histogram's current state.
func (h Histogram) Snapshot() Hist { return h.r.hists[h.id] }
