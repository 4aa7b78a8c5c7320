package cache

import (
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
)

// coarseTile is the last sharer bit: Line.sharers is a full-map vector for
// tiles below it, and tiles from coarseTile up share its bit as one
// coarse-vector entry. Setting that bit records that some of them may
// hold a copy, and invalidating it reaches all of them. On a mesh of at
// most 64 tiles the bit stands for tile 63 alone.
const coarseTile = 63

// sharerBit returns tile t's bit in Line.sharers.
func sharerBit(t int) uint64 { return 1 << uint(min(t, coarseTile)) }

// ownsSharerBit reports whether tile t's sharer bit stands for t alone, so
// that t dropping its copy may clear it.
func (h *Hierarchy) ownsSharerBit(t int) bool {
	return t < coarseTile || len(h.tiles) <= coarseTile+1
}

// txnWork is one queued per-line transaction body.
type txnWork func(release func())

// Bank is one shared-L3 slice plus its full-map directory, the per-line
// transaction serializer, and the line-lock unit used by streaming atomics
// (§IV-C).
//
// Busy lines and their waiting transactions live in one map (presence =
// line busy), and lock state lives in a pooled slice indexed through a
// second map, both sized from the cache geometry at construction.
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
	txns map[uint64][]txnWork
	// locks indexes line -> lockPool slot; freed slots recycle through
	// lockFree so steady-state locking allocates nothing.
	locks    map[uint64]int32
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
	return line / LineBytes / uint64(len(b.h.banks)) * LineBytes
}

// globalAddr reconstructs the global line address from a local tag.
func (b *Bank) globalAddr(localTag uint64) uint64 {
	return (localTag*uint64(len(b.h.banks)) + uint64(b.id)) * LineBytes
}

// Probe reports the line's presence and state in this slice (tests).
func (b *Bank) Probe(line uint64) *Line {
	return b.array.Peek(b.localAddr(line))
}

// PendingTxns reports how many lines currently hold or queue transactions
// at this bank (the sampler's bank-occupancy metric).
func (b *Bank) PendingTxns() int { return len(b.txns) }

// submit serializes transactions per line: work runs when the line is
// free and must call release exactly once. Waiting transactions queue in
// FIFO order on the line's txns entry and are handed the line directly at
// release, with no re-submission round trip.
func (b *Bank) submit(line uint64, work txnWork) {
	if q, busy := b.txns[line]; busy {
		b.ob.attrib.Charge(obs.StallBankConflict, 0)
		b.txns[line] = append(q, work)
		return
	}
	b.txns[line] = nil
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
		q := b.txns[line]
		if len(q) == 0 {
			delete(b.txns, line)
			return
		}
		b.txns[line] = q[1:]
		b.runTxn(line, q[0])
	})
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
				h.dram.Access(line, LineBytes, false, func() {
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
	nl.owner = -1
	if !victim.Valid() {
		return
	}
	h := b.h
	vline := b.globalAddr(victim.Tag)
	// Inclusive eviction: recall/invalidate private copies.
	var dsts []int
	if victim.owner >= 0 {
		dsts = append(dsts, victim.owner)
	}
	for t := 0; t < h.Tiles(); t++ {
		if victim.sharers&sharerBit(t) != 0 {
			dsts = append(dsts, t)
		}
	}
	if len(dsts) > 0 {
		b.ob.ctr.l3Recalls.Inc()
		h.net.Multicast(b.id, dsts, CtrlBytes, noc.TrafficControl, func(dst int) {
			if h.tiles[dst].InvalidateLine(vline) {
				// Dirty private copy: flows to DRAM.
				h.writeToMem(dst, vline)
			}
		})
	}
	if victim.Dirty {
		b.ob.ctr.l3Writebacks.Inc()
		h.writeToMem(b.id, vline)
	}
}

// writeToMem carries a dirty line from mesh node src to its memory
// controller and writes it to DRAM.
func (h *Hierarchy) writeToMem(src int, line uint64) {
	h.net.Send(&noc.Message{Src: src, Dst: h.ctrlNodeFor(line), Bytes: LineBytes, Class: noc.TrafficData,
		OnDeliver: func() { h.dram.Access(line, LineBytes, true, nil) }})
}

// ackSize is the payload of a private cache's reply to a downgrade or an
// invalidation: the line when its copy was dirty, else a control ack.
func ackSize(wasDirty bool) (int, noc.TrafficClass) {
	if wasDirty {
		return LineBytes, noc.TrafficData
	}
	return CtrlBytes, noc.TrafficControl
}

// handleCoherence serves one request for line at this bank. A tile's
// GetS/GetM/Upgrade names the tile as requester; the bank's colocated
// SE_L3 issues reqStreamRead/reqStreamWrite with requester -1 (§IV-B
// "Stream Forward"): private copies are recalled through the same
// protocol, but no private cache is filled. respond fires when the bank
// is ready to send the data/ack back (the caller routes it).
func (b *Bank) handleCoherence(line uint64, kind reqKind, requester int, respond func(grant LineState, fromMem bool)) {
	b.submit(line, func(release func()) {
		b.ensurePresent(line, func(fromMem bool) {
			l := b.array.Peek(b.localAddr(line))
			switch kind {
			case reqGetS, reqStreamRead:
				b.serveRead(line, l, kind, requester, fromMem, respond, release)
			case reqGetM, reqUpgrade, reqStreamWrite:
				b.serveWrite(line, l, kind, requester, fromMem, respond, release)
			}
		})
	})
}

// serveRead serves a GetS or a stream read: an owner other than the
// requester is downgraded to S first.
func (b *Bank) serveRead(line uint64, l *Line, kind reqKind, requester int, fromMem bool, respond func(LineState, bool), release func()) {
	var grantAndGo func()
	grantAndGo = func() {
		if kind == reqStreamRead {
			// The SE_L3 consumes the data at the bank: no private copy
			// to grant, and no refetch of a line evicted during the
			// owner round trip.
			respond(Shared, fromMem)
			release()
			return
		}
		l := b.array.Peek(b.localAddr(line))
		if l == nil {
			// Evicted mid-transaction by a conflicting install (this
			// transaction was parked on a remote round trip): refetch.
			b.ensurePresent(line, func(bool) { grantAndGo() })
			return
		}
		grant := Shared
		if l.owner < 0 && l.sharers == 0 {
			grant = Exclusive
			l.owner = requester
		} else {
			l.sharers |= sharerBit(requester)
		}
		respond(grant, fromMem)
		release()
	}
	switch {
	case l.owner < 0:
	case l.owner != requester:
		b.downgradeOwner(line, l.owner, grantAndGo)
		return
	default:
		l.owner = -1
		l.sharers |= sharerBit(requester)
	}
	grantAndGo()
}

// downgradeOwner moves owner's private E/M copy of line to S, then runs
// then: dirty data returns to the bank and the directory records the
// owner as a sharer.
func (b *Bank) downgradeOwner(line uint64, owner int, then func()) {
	h := b.h
	b.ob.ctr.l3Downgrades.Inc()
	h.net.Send(&noc.Message{Src: b.id, Dst: owner, Bytes: CtrlBytes, Class: noc.TrafficControl,
		OnDeliver: func() {
			wasDirty := h.tiles[owner].downgradeLine(line)
			bytes, class := ackSize(wasDirty)
			h.net.Send(&noc.Message{Src: owner, Dst: b.id, Bytes: bytes, Class: class,
				OnDeliver: func() {
					if l := b.array.Peek(b.localAddr(line)); l != nil {
						if wasDirty {
							l.Dirty = true
						}
						l.sharers |= sharerBit(owner)
						l.owner = -1
					}
					then()
				}})
		}})
}

// serveWrite serves a GetM, an Upgrade or a stream write: every other
// private copy is invalidated and the requester (none, for a stream
// write) becomes the owner.
func (b *Bank) serveWrite(line uint64, l *Line, kind reqKind, requester int, fromMem bool, respond func(LineState, bool), release func()) {
	b.invalidateOthers(line, l, requester, func() {
		if l := b.array.Peek(b.localAddr(line)); l != nil {
			l.sharers = 0
			l.owner = requester
			if kind == reqStreamWrite {
				// The SE_L3 updates the L3 copy in place. A tile's
				// write leaves it stale until the eventual writeback.
				l.Dirty = true
			}
		}
		respond(Modified, fromMem)
		release()
	})
}

// invalidateOthers clears every private copy except requester's own,
// gathering acks (dirty owners return data).
func (b *Bank) invalidateOthers(line uint64, l *Line, requester int, done func()) {
	h := b.h
	var dsts []int
	if l.owner >= 0 && l.owner != requester {
		dsts = append(dsts, l.owner)
	}
	for t := 0; t < h.Tiles(); t++ {
		if t != requester && l.sharers&sharerBit(t) != 0 {
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
		bytes, class := ackSize(wasDirty)
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
				if l.owner == from {
					l.owner = -1
				}
				if h.ownsSharerBit(from) {
					l.sharers &^= sharerBit(from)
				}
			} else {
				// Raced with an L3 eviction: forward straight to DRAM.
				h.writeToMem(b.id, line)
			}
			release()
		})
	})
}

// StreamRead reads a line at this bank on behalf of a colocated SE_L3:
// private M copies are recalled via normal coherence, but no private
// cache is filled. onDone reports DRAM involvement.
func (b *Bank) StreamRead(line uint64, onDone func(fromMem bool)) {
	if b.h.HomeBank(line) != b.id {
		panic("cache: StreamRead at non-home bank")
	}
	b.handleCoherence(line, reqStreamRead, -1, func(_ LineState, fromMem bool) { onDone(fromMem) })
}

// StreamWrite writes a line at this bank on behalf of a colocated SE_L3:
// all private copies are invalidated and the L3 copy is updated in place.
func (b *Bank) StreamWrite(line uint64, onDone func(fromMem bool)) {
	if b.h.HomeBank(line) != b.id {
		panic("cache: StreamWrite at non-home bank")
	}
	b.handleCoherence(line, reqStreamWrite, -1, func(_ LineState, fromMem bool) { onDone(fromMem) })
}
