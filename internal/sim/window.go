package sim

import (
	"fmt"
	"slices"
)

// Windowed drives one Engine in lookahead windows with barrier hooks.
//
// Time is divided into windows of fixed width W, the lookahead: the
// minimum latency of any deferred interaction (for the mesh NoC, two
// router traversals plus a link hop). Within a window [T, T+W-1] the
// engine fires its events; interactions raised during the window are
// captured by the model (see noc.Network.AttachWindows) and handed to
// flush hooks at the window's barrier, which route them in a canonical
// order and schedule the resulting deliveries with
// Engine.ScheduleStampedAt. The stamp back-dates each delivery to its
// cause's cycle, so it fires in exactly the position an immediate
// schedule at the send would have given it, up to the canonical order
// among same-key ties. That order — not the emission order — is part of
// the model the golden figure digests pin.
//
// Windows are work-skipping like the engine's idle elision: each window
// starts at the earliest pending event, so a fully idle stretch costs one
// time comparison, not W empty barriers.
type Windowed struct {
	e       *Engine
	window  Time
	flush   []*func(limit Time)
	windows uint64
}

// NewWindowed drives e in windows of the given lookahead (in cycles). A
// window < 1 panics: a zero-width window means the model offers no
// lookahead to defer interactions by.
func NewWindowed(e *Engine, window Time) *Windowed {
	if window < 1 {
		panic(fmt.Sprintf("sim: lookahead window must be at least one cycle, got %d", window))
	}
	return &Windowed{e: e, window: window}
}

// Engine returns the driven engine.
func (w *Windowed) Engine() *Engine { return w.e }

// Window reports the lookahead window width in cycles.
func (w *Windowed) Window() Time { return w.window }

// Windows reports how many windows have executed.
func (w *Windowed) Windows() uint64 { return w.windows }

// AddFlush registers a barrier hook and returns the function that
// unregisters it. After every window the loop calls each hook, in
// registration order, with the last cycle of the window just executed;
// hooks route captured interactions and schedule their deliveries (which
// land strictly after the window by the lookahead argument). A hook that
// only reads the model — a sampler — observes it at every barrier without
// changing which events fire or when.
func (w *Windowed) AddFlush(fn func(limit Time)) (remove func()) {
	h := &fn
	w.flush = append(w.flush, h)
	return func() {
		w.flush = slices.DeleteFunc(w.flush, func(x *func(Time)) bool { return x == h })
	}
}

// runWindow fires the engine's events through limit, then runs the
// barrier hooks.
func (w *Windowed) runWindow(limit Time) {
	w.e.RunTo(limit)
	for _, fn := range w.flush {
		(*fn)(limit)
	}
	w.windows++
}

// windowEnd computes the last cycle of a window starting at start,
// saturating at MaxTime.
func (w *Windowed) windowEnd(start Time) Time {
	end := start + w.window - 1
	if end < start {
		return MaxTime
	}
	return end
}

// Run executes windows until the engine drains and returns its final
// time, the timestamp of the last fired event, as Engine.Run does.
func (w *Windowed) Run() Time {
	for {
		start := w.e.peekTime()
		if start == MaxTime {
			return w.e.Now()
		}
		w.runWindow(w.windowEnd(start))
	}
}
