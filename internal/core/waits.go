package core

// elemWaits is a stream's per-element readiness: which elements are done,
// and the callbacks waiting on the rest. SE_core FIFO fills (§III-C),
// SE_L3 element completion and SE_L3 responses at the core (§IV) all use
// it. Consumers re-register per element, so each element's first waiter
// sits in a dense slot (a map of slices here was once the simulator's
// hottest allocation site); later waiters overflow to more.
type elemWaits struct {
	done  []bool
	first []func()         // lazily sized to len(done)
	more  map[int][]func() // rare: second and later waiters
}

// wait runs fn now if element i is done, otherwise when it finishes.
func (w *elemWaits) wait(i int, fn func()) {
	if w.done[i] {
		fn()
		return
	}
	if w.first == nil {
		w.first = make([]func(), len(w.done))
	}
	if w.first[i] == nil {
		w.first[i] = fn
		return
	}
	if w.more == nil {
		w.more = map[int][]func(){}
	}
	w.more[i] = append(w.more[i], fn)
}

// finish marks element i done and runs its waiters once each, in
// registration order.
func (w *elemWaits) finish(i int) {
	w.done[i] = true
	if w.first == nil || w.first[i] == nil {
		return
	}
	fn := w.first[i]
	w.first[i] = nil
	fn()
	if more, ok := w.more[i]; ok {
		delete(w.more, i)
		for _, fn := range more {
			fn()
		}
	}
}
