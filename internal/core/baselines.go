package core

import (
	"repro/internal/compiler"
	"repro/internal/noc"
	"repro/internal/sim"
)

// This file models the prior-work offloading baselines of §VI on the same
// substrate as near-stream computing:
//
//   - INST (Omni-Compute-like): one offload request per loop iteration;
//     operands are fetched at their home banks and forwarded to the "meet"
//     (the target's bank in this model), computed, written, and
//     acknowledged to the core. No persistent remote state — each
//     iteration pays the full coordination round trip, which is the
//     fine-grain overhead Figure 12 shows as 3–5× NS traffic on affine
//     workloads.
//
//   - SINGLE (Livia-like): single-cache-line functions. Chained
//     continuations (chainStream) give loop autonomy for reductions and
//     pointer chases; indirect atomics fall back to per-element core↔bank
//     round trips (perElemRoundTrip); multi-operand functions are not
//     expressible and run in-core.

// instRequestBytes is the per-iteration offload request payload
// (function id, addresses, constants).
const instRequestBytes = 24

// instRoundTrip returns the action for one INST iteration anchored at
// write stream s, element n.
func (cr *coreRun) instRoundTrip(s *compiler.Stream, n int) func(done func()) {
	return func(done func()) {
		elems := cr.trace.StreamElems[s.Sid]
		if n >= len(elems) {
			done()
			return
		}
		e := elems[n]
		m := cr.m
		target := m.Hier.HomeBank(e.pa)
		line := m.Hier.LineAddr(e.pa)
		cr.shared.ctr.instOffloads.Inc()
		// Request to the meet (target) bank.
		cr.net().Send(&noc.Message{Src: cr.coreID, Dst: target, Bytes: instRequestBytes,
			Class: noc.TrafficOffload, OnDeliver: func() {
				// Fetch operands at their banks and forward to the meet.
				operands := cr.operandElems(s, n)
				remaining := len(operands) + 1
				var latest sim.Time
				step := func() {
					remaining--
					if remaining > 0 {
						return
					}
					at := max(latest, m.Engine.Now())
					// Compute at the meet, then write the target in place.
					if cr.plan != nil && (len(s.ComputeOps) > 0 || s.Atomic) {
						at = computeAt(cr.scmAt(target), cr.params, s.Atomic && len(s.ComputeOps) <= 2, max(len(s.ComputeOps), 1), s.Vector, at)
					}
					m.Engine.ScheduleAt(at, func() {
						m.Hier.Bank(target).StreamWrite(line, func(bool) {
							// Ack to the core.
							cr.net().Send(&noc.Message{Src: target, Dst: cr.coreID,
								Bytes: 8 + s.RetBytes, Class: noc.TrafficOffload,
								OnDeliver: done})
						})
					})
				}
				for _, op := range operands {
					op := op
					opBank := m.Hier.HomeBank(op.pa)
					m.Hier.Bank(opBank).StreamRead(m.Hier.LineAddr(op.pa), func(bool) {
						send := func() {
							if t := m.Engine.Now(); t > latest {
								latest = t
							}
							step()
						}
						if opBank != target {
							cr.net().Send(&noc.Message{Src: opBank, Dst: target,
								Bytes: int(op.size), Class: noc.TrafficOffload, OnDeliver: send})
						} else {
							send()
						}
					})
				}
				// The target's own line read (RMW semantics).
				m.Hier.Bank(target).StreamRead(line, func(bool) {
					if t := m.Engine.Now(); t > latest {
						latest = t
					}
					step()
				})
			}})
	}
}

// operandElems collects the n-th elements of a stream's operand streams
// (value deps and indirect base).
func (cr *coreRun) operandElems(s *compiler.Stream, n int) []streamElem {
	var out []streamElem
	add := func(sid int) {
		elems := cr.trace.StreamElems[sid]
		if len(elems) == 0 {
			return
		}
		out = append(out, elems[min(n, len(elems)-1)])
	}
	if s.BaseSid >= 0 {
		add(s.BaseSid)
	}
	for _, d := range s.ValueDepSids {
		add(d)
	}
	return out
}

// perElemRoundTrip is SINGLE's fallback for indirect accesses: the core
// sends one function invocation per element and waits for the reply.
func (cr *coreRun) perElemRoundTrip(s *compiler.Stream, n int) func(done func()) {
	return func(done func()) {
		elems := cr.trace.StreamElems[s.Sid]
		if n >= len(elems) {
			done()
			return
		}
		e := elems[n]
		m := cr.m
		bank := m.Hier.HomeBank(e.pa)
		line := m.Hier.LineAddr(e.pa)
		cr.shared.ctr.singleInvocations.Inc()
		cr.net().Send(&noc.Message{Src: cr.coreID, Dst: bank, Bytes: 16,
			Class: noc.TrafficOffload, OnDeliver: func() {
				finishWith := func(at sim.Time) {
					m.Engine.ScheduleAt(at, func() {
						respond := func() {
							cr.net().Send(&noc.Message{Src: bank, Dst: cr.coreID,
								Bytes: 8 + s.RetBytes, Class: noc.TrafficOffload,
								OnDeliver: done})
						}
						if s.Write {
							m.Hier.Bank(bank).StreamWrite(line, func(bool) { respond() })
						} else {
							respond()
						}
					})
				}
				m.Hier.Bank(bank).StreamRead(line, func(bool) {
					at := m.Engine.Now()
					at = computeAt(cr.scmAt(bank), cr.params, true, max(len(s.ComputeOps), 1), s.Vector, at)
					finishWith(at)
				})
			}})
	}
}

// chainStream is SINGLE's chained single-line function: element i executes
// at its data's bank and passes a continuation (accumulator + function) to
// element i+1's bank — autonomous but strictly serial.
type chainStream struct {
	cr      *coreRun
	elems   []streamElem
	funcOps int
	vector  bool

	idx        int
	finished   bool
	onFinished func()
}

// chainContinuationBytes carries the accumulator and chain pointer.
const chainContinuationBytes = 16

func (ch *chainStream) start() {
	if len(ch.elems) == 0 {
		ch.finish()
		return
	}
	first := ch.cr.m.Hier.HomeBank(ch.elems[0].pa)
	ch.cr.net().Send(&noc.Message{Src: ch.cr.coreID, Dst: first, Bytes: 24,
		Class: noc.TrafficOffload, OnDeliver: func() { ch.step(first) }})
}

func (ch *chainStream) step(bank int) {
	m := ch.cr.m
	if ch.idx >= len(ch.elems) {
		// Final value back to the core.
		ch.cr.net().Send(&noc.Message{Src: bank, Dst: ch.cr.coreID, Bytes: 16,
			Class: noc.TrafficOffload, OnDeliver: ch.finish})
		return
	}
	i := ch.idx
	ch.idx++
	e := ch.elems[i]
	line := m.Hier.LineAddr(e.pa)
	ch.cr.shared.ctr.singleChainHops.Inc()
	m.Hier.Bank(bank).StreamRead(line, func(bool) {
		at := computeAt(ch.cr.scmAt(bank), ch.cr.params, ch.funcOps <= 2, ch.funcOps, ch.vector, m.Engine.Now())
		m.Engine.ScheduleAt(at, func() {
			next := bank
			if ch.idx < len(ch.elems) {
				next = m.Hier.HomeBank(ch.elems[ch.idx].pa)
			}
			if next != bank {
				ch.cr.net().Send(&noc.Message{Src: bank, Dst: next,
					Bytes: chainContinuationBytes, Class: noc.TrafficOffload,
					OnDeliver: func() { ch.step(next) }})
			} else {
				ch.step(bank)
			}
		})
	})
}

func (ch *chainStream) finish() {
	if ch.finished {
		return
	}
	ch.finished = true
	if ch.onFinished != nil {
		ch.onFinished()
	}
}
