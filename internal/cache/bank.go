package cache

import (
	"repro/internal/flatmap"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
)

// txnWork is one queued per-line transaction body.
type txnWork func(release func())

// Bank is one shared-L3 slice plus its full-map directory, the per-line
// transaction serializer, and the line-lock unit used by streaming atomics
// (§IV-C).
//
// The serializer and lock unit are deliberately map-free on their hot
// paths: busy lines and their waiting transactions live in one
// open-addressed table (presence = line busy), and lock state lives in a
// pooled slice indexed through a second table, both sized from the cache
// geometry at construction.
type Bank struct {
	id int
	h  *Hierarchy
	// engine and ob repeat the hierarchy's, one load closer to the hot
	// path.
	engine *sim.Engine
	ob     *hierObs
	array  *Array
	// txns serializes transactions per line: a present entry means the
	// line is busy, and holds the FIFO of waiting transaction bodies.
	txns flatmap.Map[[]txnWork]
	// locks indexes line -> lockPool slot; freed slots recycle through
	// lockFree so steady-state locking allocates nothing.
	locks    flatmap.Map[int32]
	lockPool []lineLock
	lockFree []int32
}

// ID returns the bank's mesh node id.
func (b *Bank) ID() int { return b.id }

// Array exposes the L3 slice for tests.
func (b *Bank) Array() *Array { return b.array }

// localAddr strips the bank-interleave bits from a global line address so
// the slice's set index uses the full set range (without this, lines that
// map to one bank alias into 1/numBanks of its sets).
func (b *Bank) localAddr(line uint64) uint64 {
	lb := uint64(b.h.cfg.LineBytes)
	return line / lb / uint64(len(b.h.banks)) * lb
}

// globalAddr reconstructs the global line address from a local tag.
func (b *Bank) globalAddr(localTag uint64) uint64 {
	lb := uint64(b.h.cfg.LineBytes)
	return (localTag*uint64(len(b.h.banks)) + uint64(b.id)) * lb
}

// Probe reports the line's presence and state in this slice (tests).
func (b *Bank) Probe(line uint64) *Line {
	return b.array.Peek(b.localAddr(line))
}

// PendingTxns reports how many lines currently hold or queue transactions
// at this bank (the sampler's bank-occupancy metric).
func (b *Bank) PendingTxns() int { return b.txns.Len() }

// submit serializes transactions per line: work runs when the line is
// free and must call release exactly once. Waiting transactions queue in
// FIFO order on the line's txns entry and are handed the line directly at
// release, with no re-submission round trip.
func (b *Bank) submit(line uint64, work txnWork) {
	if q, busy := b.txns.Get(line); busy {
		b.ob.attrib.Charge(obs.StallBankConflict, 0)
		b.txns.Put(line, append(q, work))
		return
	}
	b.txns.Put(line, nil)
	b.runTxn(line, work)
}

// runTxn executes one transaction body holding the line; its release
// continuation passes the line to the next queued body or frees it.
func (b *Bank) runTxn(line uint64, work txnWork) {
	released := false
	work(func() {
		if released {
			panic("cache: double release of bank line")
		}
		released = true
		q, _ := b.txns.Get(line)
		if len(q) == 0 {
			b.txns.Delete(line)
			return
		}
		b.txns.Put(line, q[1:])
		b.runTxn(line, q[0])
	})
}

// dirOf returns the directory info of a present line, creating it lazily.
func dirOf(l *Line) *dirInfo {
	if l.Aux == nil {
		l.Aux = newDir()
	}
	return l.Aux.(*dirInfo)
}

// ensurePresent guarantees line is resident in this bank's L3 slice,
// fetching from DRAM on a miss (and evicting a victim, with invalidations
// and writebacks). onReady reports whether DRAM was involved.
func (b *Bank) ensurePresent(line uint64, onReady func(fromMem bool)) {
	h := b.h
	b.engine.Schedule(h.cfg.L3Bank.Latency, func() {
		if b.array.Lookup(b.localAddr(line)) != nil {
			b.ob.ctr.l3Hits.Inc()
			onReady(false)
			return
		}
		b.ob.ctr.l3Misses.Inc()
		ctrl := h.ctrlNodeFor(line)
		h.net.Send(&noc.Message{
			Src: b.id, Dst: ctrl, Bytes: CtrlBytes, Class: noc.TrafficControl,
			OnDeliver: func() {
				h.dram.Access(line, h.cfg.LineBytes, false, func() {
					h.net.Send(&noc.Message{
						Src: ctrl, Dst: b.id, Bytes: LineBytes, Class: noc.TrafficData,
						OnDeliver: func() {
							b.install(line)
							onReady(true)
						},
					})
				})
			},
		})
	})
}

// install inserts line into the slice, handling the victim: private copies
// are invalidated (inclusive L3) and dirty data goes back to DRAM.
func (b *Bank) install(line uint64) {
	nl, victim := b.array.Insert(b.localAddr(line), Shared)
	nl.Aux = newDir()
	if !victim.Valid() {
		return
	}
	h := b.h
	vline := b.globalAddr(victim.Tag)
	dirty := victim.Dirty
	if d, ok := victim.Aux.(*dirInfo); ok {
		// Inclusive eviction: recall/invalidate private copies.
		var dsts []int
		if d.owner >= 0 {
			dsts = append(dsts, d.owner)
		}
		for t := 0; t < h.Tiles(); t++ {
			if d.sharers&(1<<uint(t)) != 0 {
				dsts = append(dsts, t)
			}
		}
		if len(dsts) > 0 {
			b.ob.ctr.l3Recalls.Inc()
			h.net.Multicast(b.id, dsts, CtrlBytes, noc.TrafficControl, func(dst int) {
				if h.tiles[dst].InvalidateLine(vline) {
					// Dirty private copy: flows to DRAM.
					h.net.Send(&noc.Message{Src: dst, Dst: h.ctrlNodeFor(vline), Bytes: LineBytes, Class: noc.TrafficData,
						OnDeliver: func() { h.dram.Access(vline, h.cfg.LineBytes, true, nil) }})
				}
			})
		}
	}
	if dirty {
		b.ob.ctr.l3Writebacks.Inc()
		ctrl := h.ctrlNodeFor(vline)
		h.net.Send(&noc.Message{Src: b.id, Dst: ctrl, Bytes: LineBytes, Class: noc.TrafficData,
			OnDeliver: func() { h.dram.Access(vline, h.cfg.LineBytes, true, nil) }})
	}
}

// handleCoherence serves a GetS/GetM/Upgrade from a tile. respond fires
// when the bank is ready to send the data/ack back (the caller routes it).
func (b *Bank) handleCoherence(line uint64, kind reqKind, requester int, respond func(grant LineState, fromMem bool)) {
	b.submit(line, func(release func()) {
		b.ensurePresent(line, func(fromMem bool) {
			l := b.array.Peek(b.localAddr(line))
			d := dirOf(l)
			switch kind {
			case reqGetS:
				b.serveGetS(line, l, d, requester, fromMem, respond, release)
			case reqGetM, reqUpgrade:
				b.serveGetM(line, l, d, requester, fromMem, respond, release)
			}
		})
	})
}

func (b *Bank) serveGetS(line uint64, l *Line, d *dirInfo, requester int, fromMem bool, respond func(LineState, bool), release func()) {
	h := b.h
	var grantAndGo func()
	grantAndGo = func() {
		l = b.array.Peek(b.localAddr(line))
		if l == nil {
			// Evicted mid-transaction by a conflicting install (this
			// transaction was parked on a remote round trip): refetch.
			b.ensurePresent(line, func(bool) { grantAndGo() })
			return
		}
		d = dirOf(l)
		grant := Shared
		if d.owner < 0 && d.sharers == 0 {
			grant = Exclusive
			d.owner = requester
		} else {
			d.sharers |= 1 << uint(requester)
		}
		respond(grant, fromMem)
		release()
	}
	if d.owner >= 0 && d.owner != requester {
		owner := d.owner
		// Downgrade the owner to S; dirty data returns to the bank.
		b.ob.ctr.l3Downgrades.Inc()
		h.net.Send(&noc.Message{Src: b.id, Dst: owner, Bytes: CtrlBytes, Class: noc.TrafficControl,
			OnDeliver: func() {
				wasDirty := h.tiles[owner].downgradeLine(line)
				bytes, class := CtrlBytes, noc.TrafficControl
				if wasDirty {
					bytes, class = LineBytes, noc.TrafficData
				}
				h.net.Send(&noc.Message{Src: owner, Dst: b.id, Bytes: bytes, Class: class,
					OnDeliver: func() {
						ll := b.array.Peek(b.localAddr(line))
						if ll != nil {
							dd := dirOf(ll)
							if wasDirty {
								ll.Dirty = true
							}
							dd.sharers |= 1 << uint(owner)
							dd.owner = -1
						}
						grantAndGo()
					}})
			}})
		return
	}
	if d.owner == requester {
		d.owner = -1
		d.sharers |= 1 << uint(requester)
	}
	grantAndGo()
}

func (b *Bank) serveGetM(line uint64, l *Line, d *dirInfo, requester int, fromMem bool, respond func(LineState, bool), release func()) {
	b.invalidateOthers(line, d, requester, func() {
		ll := b.array.Peek(b.localAddr(line))
		if ll != nil {
			dd := dirOf(ll)
			dd.sharers = 0
			dd.owner = requester
			// The requester will dirty it; the L3 copy is now stale once
			// written, which the eventual writeback repairs.
		}
		respond(Modified, fromMem)
		release()
	})
}

// invalidateOthers clears every private copy except requester's own,
// gathering acks (dirty owners return data).
func (b *Bank) invalidateOthers(line uint64, d *dirInfo, requester int, done func()) {
	h := b.h
	var dsts []int
	if d.owner >= 0 && d.owner != requester {
		dsts = append(dsts, d.owner)
	}
	for t := 0; t < h.Tiles(); t++ {
		if t != requester && d.sharers&(1<<uint(t)) != 0 {
			dsts = append(dsts, t)
		}
	}
	if len(dsts) == 0 {
		done()
		return
	}
	b.ob.ctr.l3Invalidations.Add(uint64(len(dsts)))
	remaining := len(dsts)
	h.net.Multicast(b.id, dsts, CtrlBytes, noc.TrafficControl, func(dst int) {
		wasDirty := h.tiles[dst].InvalidateLine(line)
		bytes, class := CtrlBytes, noc.TrafficControl
		if wasDirty {
			bytes, class = LineBytes, noc.TrafficData
		}
		h.net.Send(&noc.Message{Src: dst, Dst: b.id, Bytes: bytes, Class: class,
			OnDeliver: func() {
				if wasDirty {
					if ll := b.array.Peek(b.localAddr(line)); ll != nil {
						ll.Dirty = true
					}
				}
				remaining--
				if remaining == 0 {
					done()
				}
			}})
	})
}

// handleWriteback absorbs a dirty eviction from a private cache.
func (b *Bank) handleWriteback(line uint64, from int) {
	b.submit(line, func(release func()) {
		h := b.h
		b.engine.Schedule(h.cfg.L3Bank.Latency, func() {
			if l := b.array.Peek(b.localAddr(line)); l != nil {
				l.Dirty = true
				d := dirOf(l)
				if d.owner == from {
					d.owner = -1
				}
				d.sharers &^= 1 << uint(from)
			} else {
				// Raced with an L3 eviction: forward straight to DRAM.
				ctrl := h.ctrlNodeFor(line)
				h.net.Send(&noc.Message{Src: b.id, Dst: ctrl, Bytes: LineBytes, Class: noc.TrafficData,
					OnDeliver: func() { h.dram.Access(line, h.cfg.LineBytes, true, nil) }})
			}
			release()
		})
	})
}

// StreamRead reads a line at this bank on behalf of a colocated SE_L3
// (§IV-B "Stream Forward"): private M copies are recalled via normal
// coherence, but no private cache is filled. onDone reports DRAM
// involvement.
func (b *Bank) StreamRead(line uint64, onDone func(fromMem bool)) {
	if b.h.HomeBank(line) != b.id {
		panic("cache: StreamRead at non-home bank")
	}
	b.submit(line, func(release func()) {
		b.ensurePresent(line, func(fromMem bool) {
			l := b.array.Peek(b.localAddr(line))
			d := dirOf(l)
			if d.owner >= 0 {
				owner := d.owner
				h := b.h
				b.ob.ctr.l3Downgrades.Inc()
				h.net.Send(&noc.Message{Src: b.id, Dst: owner, Bytes: CtrlBytes, Class: noc.TrafficControl,
					OnDeliver: func() {
						wasDirty := h.tiles[owner].downgradeLine(line)
						bytes, class := CtrlBytes, noc.TrafficControl
						if wasDirty {
							bytes, class = LineBytes, noc.TrafficData
						}
						h.net.Send(&noc.Message{Src: owner, Dst: b.id, Bytes: bytes, Class: class,
							OnDeliver: func() {
								if ll := b.array.Peek(b.localAddr(line)); ll != nil {
									if wasDirty {
										ll.Dirty = true
									}
									dd := dirOf(ll)
									dd.sharers |= 1 << uint(owner)
									dd.owner = -1
								}
								onDone(fromMem)
								release()
							}})
					}})
				return
			}
			onDone(fromMem)
			release()
		})
	})
}

// StreamWrite writes a line at this bank on behalf of a colocated SE_L3:
// all private copies are invalidated and the L3 copy is updated in place.
func (b *Bank) StreamWrite(line uint64, onDone func(fromMem bool)) {
	if b.h.HomeBank(line) != b.id {
		panic("cache: StreamWrite at non-home bank")
	}
	b.submit(line, func(release func()) {
		b.ensurePresent(line, func(fromMem bool) {
			l := b.array.Peek(b.localAddr(line))
			d := dirOf(l)
			b.invalidateOthers(line, d, -1, func() {
				if ll := b.array.Peek(b.localAddr(line)); ll != nil {
					ll.Dirty = true
					dd := dirOf(ll)
					dd.sharers = 0
					dd.owner = -1
				}
				onDone(fromMem)
				release()
			})
		})
	})
}
