// Package noc models the on-chip interconnect: a W×H mesh with X-Y
// dimension-order routing, 256-bit single-cycle links, a multi-stage router
// pipeline, link contention, and multicast — matching the Garnet
// configuration of Table V. Every delivered message is charged bytes×hops
// to its traffic class's registry counter (noc.bytehops.<class>), the unit
// Figures 1b, 12 and 15 report.
package noc

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Config describes a mesh network.
type Config struct {
	// Width and Height give the mesh dimensions (8×8 in the paper).
	Width, Height int
	// LinkBytesPerCycle is the link width; Table V uses 256-bit links,
	// i.e. 32 bytes per cycle.
	LinkBytesPerCycle int
	// LinkLatency is the cycles to traverse one link.
	LinkLatency sim.Time
	// RouterLatency is the pipeline depth of each router (5 in Table V).
	RouterLatency sim.Time
	// HeaderBytes is added to every message's payload for flit headers.
	HeaderBytes int
}

// DefaultConfig returns the Table V mesh: 8×8, 256-bit 1-cycle links,
// 5-stage routers.
func DefaultConfig() Config {
	return Config{
		Width:             8,
		Height:            8,
		LinkBytesPerCycle: 32,
		LinkLatency:       1,
		RouterLatency:     5,
		HeaderBytes:       8,
	}
}

// TrafficClass labels NoC messages for the Figure 12 breakdown.
type TrafficClass int

const (
	// TrafficData is non-offloaded data accesses and writebacks.
	TrafficData TrafficClass = iota
	// TrafficControl is coherence and prefetch control messages.
	TrafficControl
	// TrafficOffload is near-data data+coordination traffic (credits,
	// ranges, commits, forwarded stream data, migrations).
	TrafficOffload
	numTrafficClasses
)

// String names the class like the paper's Figure 12 legend; it is also
// the suffix of the class's noc.bytehops/noc.messages counters.
func (c TrafficClass) String() string {
	switch c {
	case TrafficData:
		return "data"
	case TrafficControl:
		return "control"
	case TrafficOffload:
		return "offloaded"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Message is one network transfer. The zero Dst/Src is node 0; callers set
// all fields.
type Message struct {
	Src, Dst int
	// Bytes is the payload size; the network adds Config.HeaderBytes.
	Bytes int
	Class TrafficClass
	// OnDeliver runs at the destination when the message arrives. It may
	// be nil for fire-and-forget accounting.
	OnDeliver func()
}

// Directed links get dense ids: node*4 + direction. Up to four outgoing
// links per node; edge nodes leave some ids unused, which costs a few
// array slots and saves every hot-path map operation.
const (
	dirEast  = iota // +x
	dirWest         // -x
	dirSouth        // +y
	dirNorth        // -y
	dirCount
)

// Network is the mesh interconnect.
//
// All per-link state is held in dense arrays indexed by link id, and the
// X-Y route between every (src, dst) pair is precomputed as a link-id list
// at construction: routing a message is a slice walk with no allocation
// and no map lookups.
type Network struct {
	cfg    Config
	engine *sim.Engine
	// nextFree tracks when each directed link can accept the next
	// message (message-granularity wormhole approximation).
	nextFree []sim.Time
	// busyCycles accumulates per-link occupancy for the utilization
	// metric of Figure 12.
	busyCycles []uint64
	// routeIDs/routeOff store every pair's route: the link ids of
	// (src, dst) are routeIDs[routeOff[src*nodes+dst]:routeOff[src*nodes+dst+1]].
	routeIDs []int32
	routeOff []int32
	// linkSeen/epoch dedupe links during multicast without a per-message
	// set: a link is counted when its stamp differs from the current epoch.
	linkSeen []uint32
	epoch    uint32
	// drainAt is the latest arrival time of any fire-and-forget message.
	// Instead of one nop event per silent delivery, a single horizon
	// event (horizonEv, queued while horizonQd) chases this running
	// maximum: it fires, and if deliveries have pushed the horizon out it
	// re-enqueues itself at the new time, so a run's drain time still
	// covers every delivery while idle routers schedule nothing.
	drainAt   sim.Time
	horizonQd bool
	horizonEv sim.Event
	// Delivered counts total messages for sanity checks.
	Delivered uint64
	// reg holds the interned message counters, including the per-class
	// byte-hop and message counts; tracer (usually nil) receives
	// per-message events behind an Enabled() branch.
	reg                     *obs.Registry
	ctrSends, ctrMulticasts obs.Counter
	ctrByteHops, ctrMsgs    [numTrafficClasses]obs.Counter
	tracer                  *obs.Tracer
	// attrib (usually nil) receives link-backpressure charges from
	// deliveryTimeAt.
	attrib *obs.Attribution
	// ex is non-nil once AttachWindows has bound the network to a
	// window loop; it turns Send/Multicast into capture sites whose
	// routing is deferred to window barriers (see exchange).
	ex *exchange
}

// exchange is the window-barrier send path of a windowed network.
//
// Link reservation (deliveryTimeAt) is global, non-causal state: a send
// from any node advances nextFree on every link of its route. A windowed
// network appends each window's sends to an outbox, and at the window
// barrier the loop's flush hook routes them all in canonical (send time,
// src node, per-src sequence) order, scheduling each delivery with the
// send time as its stamp, which restores the position an immediate
// schedule would have had (see sim.Engine.ScheduleStampedAt). The
// canonical order, not the emission order, decides link contention among
// same-cycle sends; it is part of the model the golden digests pin.
//
// Same-node messages bypass the exchange for timing (they use no links
// and their router-only latency may be below the lookahead) and are
// scheduled immediately, exactly like the immediate path; only their
// accounting is deferred to the barrier.
type exchange struct {
	outbox []pendingSend
	// sendSeq is the per-src-node send counter, the canonical tiebreak
	// for same-cycle sends.
	sendSeq []uint64
}

// pendingSend is one captured Send or Multicast awaiting barrier routing.
type pendingSend struct {
	at       sim.Time // send time
	seq      uint64   // per-src sequence at the send
	src, dst int32
	bytes    int32
	class    TrafficClass
	// local marks a same-node message already scheduled on its engine:
	// the barrier only does its accounting.
	local bool
	fn    func()
	// dsts/mfn describe a multicast (dst is unused); same-node members
	// were already scheduled at capture, like local above.
	dsts []int32
	mfn  func(dst int)
}

// New builds a network on the given engine.
func New(engine *sim.Engine, cfg Config) *Network {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic("noc: mesh dimensions must be positive")
	}
	if cfg.LinkBytesPerCycle <= 0 {
		panic("noc: link width must be positive")
	}
	n := &Network{cfg: cfg, engine: engine, reg: obs.NewRegistry()}
	n.ctrSends = n.reg.Counter("noc.sends")
	n.ctrMulticasts = n.reg.Counter("noc.multicasts")
	for c := TrafficClass(0); c < numTrafficClasses; c++ {
		n.ctrByteHops[c] = n.reg.Counter("noc.bytehops." + c.String())
		n.ctrMsgs[c] = n.reg.Counter("noc.messages." + c.String())
	}
	nodes := n.Nodes()
	n.nextFree = make([]sim.Time, nodes*dirCount)
	n.busyCycles = make([]uint64, nodes*dirCount)
	n.linkSeen = make([]uint32, nodes*dirCount)
	n.horizonEv = func() {
		if n.drainAt > n.engine.Now() {
			n.engine.ScheduleAt(n.drainAt, n.horizonEv)
			return
		}
		n.horizonQd = false
	}
	n.buildRoutes()
	return n
}

// SetTracer attaches (or with nil detaches) an event tracer. Every Send
// and multicast delivery emits a KindNoCMsg spanning injection to arrival.
func (n *Network) SetTracer(tr *obs.Tracer) { n.tracer = tr }

// SetAttribution attaches (or with nil detaches) a cycle-attribution
// sink. Every link traversal charges its queueing wait — the cycles a
// message sat behind earlier traffic on a link — and feeds the link-wait
// histogram.
func (n *Network) SetAttribution(a *obs.Attribution) { n.attrib = a }

// Lookahead returns the barrier window a mesh supports: the minimum
// latency of any cross-node message, two router
// traversals plus one link hop (serialization contributes at least one
// further cycle, absorbed by the -1 in the delivery-time formula). A
// degenerate zero-latency configuration clamps to one cycle; barrier
// windows then still interleave correctly up to same-cycle ordering ties.
func Lookahead(cfg Config) sim.Time {
	la := 2*cfg.RouterLatency + cfg.LinkLatency
	if la < 1 {
		la = 1
	}
	return la
}

// AttachWindows binds the network to a window loop driving its engine:
// from then on cross-node deliveries are routed at window barriers (see
// exchange). The loop's window must not exceed the mesh's Lookahead, or
// deliveries could land inside a window that already executed.
func (n *Network) AttachWindows(w *sim.Windowed) {
	if w.Window() > Lookahead(n.cfg) {
		panic(fmt.Sprintf("noc: window %d exceeds mesh lookahead %d", w.Window(), Lookahead(n.cfg)))
	}
	if w.Engine() != n.engine {
		panic("noc: window loop drives another engine")
	}
	n.ex = &exchange{sendSeq: make([]uint64, n.Nodes())}
	w.AddFlush(n.flushWindow)
}

// Registry returns the network's counter registry (message counts and
// per-class traffic).
func (n *Network) Registry() *obs.Registry { return n.reg }

// record charges a message of size bytes travelling hops mesh links to
// its traffic class (an out-of-range class panics on the index).
func (n *Network) record(class TrafficClass, bytes, hops int) {
	n.ctrByteHops[class].Add(uint64(bytes) * uint64(hops))
	n.ctrMsgs[class].Inc()
}

// buildRoutes precomputes the X-Y link-id route of every (src, dst) pair
// into one flat array. An 8×8 mesh needs ~30k int32s; the largest sweeps
// stay well under a megabyte.
func (n *Network) buildRoutes() {
	nodes := n.Nodes()
	n.routeOff = make([]int32, nodes*nodes+1)
	var total int
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			total += n.HopCount(src, dst)
		}
	}
	n.routeIDs = make([]int32, 0, total)
	for src := 0; src < nodes; src++ {
		sx, sy := n.Coord(src)
		for dst := 0; dst < nodes; dst++ {
			dx, dy := n.Coord(dst)
			x, y := sx, sy
			for x != dx {
				u := y*n.cfg.Width + x
				if x < dx {
					n.routeIDs = append(n.routeIDs, int32(u*dirCount+dirEast))
					x++
				} else {
					n.routeIDs = append(n.routeIDs, int32(u*dirCount+dirWest))
					x--
				}
			}
			for y != dy {
				u := y*n.cfg.Width + x
				if y < dy {
					n.routeIDs = append(n.routeIDs, int32(u*dirCount+dirSouth))
					y++
				} else {
					n.routeIDs = append(n.routeIDs, int32(u*dirCount+dirNorth))
					y--
				}
			}
			n.routeOff[src*nodes+dst+1] = int32(len(n.routeIDs))
		}
	}
}

// routeLinks returns the precomputed link ids of the (src, dst) X-Y route
// (shared backing array: callers must not retain or mutate it).
func (n *Network) routeLinks(src, dst int) []int32 {
	p := src*n.Nodes() + dst
	return n.routeIDs[n.routeOff[p]:n.routeOff[p+1]]
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Nodes returns the number of mesh nodes.
func (n *Network) Nodes() int { return n.cfg.Width * n.cfg.Height }

// Coord converts a node id to (x, y).
func (n *Network) Coord(id int) (x, y int) {
	n.check(id)
	return id % n.cfg.Width, id / n.cfg.Width
}

// NodeAt converts (x, y) to a node id.
func (n *Network) NodeAt(x, y int) int {
	if x < 0 || x >= n.cfg.Width || y < 0 || y >= n.cfg.Height {
		panic(fmt.Sprintf("noc: coordinate (%d,%d) outside %dx%d mesh", x, y, n.cfg.Width, n.cfg.Height))
	}
	return y*n.cfg.Width + x
}

func (n *Network) check(id int) {
	if id < 0 || id >= n.Nodes() {
		panic(fmt.Sprintf("noc: node %d outside %dx%d mesh", id, n.cfg.Width, n.cfg.Height))
	}
}

// HopCount returns the X-Y route length between two nodes.
func (n *Network) HopCount(src, dst int) int {
	sx, sy := n.Coord(src)
	dx, dy := n.Coord(dst)
	return abs(sx-dx) + abs(sy-dy)
}

// route returns the X-Y path of node ids from src to dst inclusive.
func (n *Network) route(src, dst int) []int {
	sx, sy := n.Coord(src)
	dx, dy := n.Coord(dst)
	path := []int{src}
	x, y := sx, sy
	for x != dx {
		if x < dx {
			x++
		} else {
			x--
		}
		path = append(path, n.NodeAt(x, y))
	}
	for y != dy {
		if y < dy {
			y++
		} else {
			y--
		}
		path = append(path, n.NodeAt(x, y))
	}
	return path
}

// serializationCycles returns the cycles to push a message through one link.
func (n *Network) serializationCycles(bytes int) sim.Time {
	total := bytes + n.cfg.HeaderBytes
	c := (total + n.cfg.LinkBytesPerCycle - 1) / n.cfg.LinkBytesPerCycle
	if c < 1 {
		c = 1
	}
	return sim.Time(c)
}

// Send routes a message, charges traffic, and schedules OnDeliver at the
// arrival time. Local (src==dst) messages are delivered after the router
// latency with no link traffic. On a windowed network cross-node routing
// is captured and deferred to the window barrier (see exchange).
func (n *Network) Send(m *Message) {
	n.check(m.Src)
	n.check(m.Dst)
	if ex := n.ex; ex != nil {
		now := n.engine.Now()
		ex.sendSeq[m.Src]++
		p := pendingSend{at: now, seq: ex.sendSeq[m.Src],
			src: int32(m.Src), dst: int32(m.Dst), bytes: int32(m.Bytes),
			class: m.Class, fn: m.OnDeliver}
		if m.Src == m.Dst {
			// Same-node: no link state touched, and the router-only
			// latency may undercut the lookahead window — deliver
			// immediately, exactly like the immediate path, deferring
			// only the accounting.
			p.local = true
			if m.OnDeliver != nil {
				n.engine.ScheduleAt(now+n.cfg.RouterLatency, m.OnDeliver)
			}
		}
		ex.outbox = append(ex.outbox, p)
		return
	}
	n.ctrSends.Inc()
	hops := n.HopCount(m.Src, m.Dst)
	n.record(m.Class, m.Bytes+n.cfg.HeaderBytes, hops)
	arrive := n.deliveryTimeAt(n.engine.Now(), m.Src, m.Dst, m.Bytes)
	if tr := n.tracer; tr.Enabled() {
		now := n.engine.Now()
		tr.Emit(obs.Event{Time: uint64(now), Dur: uint64(arrive - now),
			Kind: obs.KindNoCMsg, Tile: int32(m.Src), A: uint64(m.Dst), B: uint64(m.Bytes)})
	}
	n.scheduleDelivery(arrive, m.OnDeliver)
}

// deliveryTimeAt computes the arrival time of a message sent at now,
// advancing the link reservations along its route: each hop waits for
// its link, then stores and forwards the whole message.
func (n *Network) deliveryTimeAt(now sim.Time, src, dst, bytes int) sim.Time {
	if src == dst {
		return now + n.cfg.RouterLatency
	}
	ser := n.serializationCycles(bytes)
	t := now + n.cfg.RouterLatency // injection router
	for _, l := range n.routeLinks(src, dst) {
		start := t
		if free := n.nextFree[l]; free > start {
			start = free
		}
		if a := n.attrib; a != nil {
			wait := uint64(start - t)
			if wait > 0 {
				a.Charge(obs.StallLinkBackpressure, wait)
			}
			a.Observe(obs.HistNoCLinkWait, wait)
		}
		n.nextFree[l] = start + ser
		n.busyCycles[l] += uint64(ser)
		t = start + ser - 1 + n.cfg.LinkLatency + n.cfg.RouterLatency
	}
	return t
}

// LinkCount returns the number of directed mesh links: horizontal
// 2*(W-1)*H plus vertical 2*(H-1)*W.
func (n *Network) LinkCount() int {
	return 2*(n.cfg.Width-1)*n.cfg.Height + 2*(n.cfg.Height-1)*n.cfg.Width
}

// BusyLinkCycles returns the total link-cycles occupied so far, summed
// over all links (the sampler's utilization numerator).
func (n *Network) BusyLinkCycles() uint64 {
	var busy uint64
	for _, c := range n.busyCycles {
		busy += c
	}
	return busy
}

// Utilization returns the average fraction of link-cycles occupied so far
// (Figure 12's companion metric). Zero before any traffic or time.
func (n *Network) Utilization() float64 {
	now := uint64(n.engine.Now())
	if now == 0 {
		return 0
	}
	links := n.LinkCount()
	if links == 0 {
		return 0
	}
	return float64(n.BusyLinkCycles()) / float64(uint64(links)*now)
}

func (n *Network) scheduleDelivery(at sim.Time, fn func()) {
	n.Delivered++ // counted at send; the counter is only read after a run
	if fn == nil {
		// A run's drain time (and so its cycle count) must still cover
		// fire-and-forget deliveries, but scheduling a nop per message
		// only to hold the clock open wastes an engine event each. Fold
		// them into the single chasing horizon event instead.
		if at > n.drainAt {
			n.drainAt = at
		}
		if !n.horizonQd {
			n.horizonQd = true
			n.engine.ScheduleAt(n.drainAt, n.horizonEv)
		}
		return
	}
	n.engine.ScheduleAt(at, fn)
}

// Multicast sends one payload to several destinations along a shared X-Y
// tree: links common to multiple destinations are charged once, modelling
// the router multicast support of Table V. OnDeliver (if non-nil) runs once
// per destination. On a windowed network remote deliveries are deferred
// to the window barrier like Send's.
func (n *Network) Multicast(src int, dsts []int, bytes int, class TrafficClass, onDeliver func(dst int)) {
	n.check(src)
	if len(dsts) == 0 {
		return
	}
	if ex := n.ex; ex != nil {
		now := n.engine.Now()
		ex.sendSeq[src]++
		p := pendingSend{at: now, seq: ex.sendSeq[src], src: int32(src),
			bytes: int32(bytes), class: class, mfn: onDeliver,
			dsts: make([]int32, len(dsts))}
		for i, d := range dsts {
			n.check(d)
			p.dsts[i] = int32(d)
			if d == src && onDeliver != nil {
				// Same-node member: deliver immediately, like Send.
				d := d
				n.engine.ScheduleAt(now+n.cfg.RouterLatency, func() { onDeliver(d) })
			}
		}
		ex.outbox = append(ex.outbox, p)
		return
	}
	n.multicastTraffic(src, dsts, nil, bytes, class)
	for _, d := range dsts {
		arrive := n.deliveryTimeAt(n.engine.Now(), src, d, bytes)
		if tr := n.tracer; tr.Enabled() {
			now := n.engine.Now()
			tr.Emit(obs.Event{Time: uint64(now), Dur: uint64(arrive - now),
				Kind: obs.KindNoCMsg, Tile: int32(src), A: uint64(d), B: uint64(bytes)})
		}
		if onDeliver == nil {
			n.scheduleDelivery(arrive, nil)
			continue
		}
		d := d
		n.scheduleDelivery(arrive, func() { onDeliver(d) })
	}
}

// multicastTraffic charges a multicast tree's traffic: links shared by
// several destinations count once, stamping the scratch array with a
// fresh epoch instead of building a per-message set. Exactly one of
// dsts/dsts32 is non-nil (the immediate and deferred call sites).
func (n *Network) multicastTraffic(src int, dsts []int, dsts32 []int32, bytes int, class TrafficClass) {
	n.epoch++
	if n.epoch == 0 { // wrapped: old stamps are ambiguous, clear them
		clear(n.linkSeen)
		n.epoch = 1
	}
	unique := 0
	count := func(d int) {
		n.check(d)
		for _, l := range n.routeLinks(src, d) {
			if n.linkSeen[l] != n.epoch {
				n.linkSeen[l] = n.epoch
				unique++
			}
		}
	}
	for _, d := range dsts {
		count(d)
	}
	for _, d := range dsts32 {
		count(int(d))
	}
	n.record(class, bytes+n.cfg.HeaderBytes, unique)
	n.ctrMulticasts.Inc()
}

// flushWindow is the window loop's barrier hook: it orders the window's
// sends canonically by (send time, src node, per-src sequence) and routes
// them against the link state exactly as the immediate Send path would
// have, scheduling each remote delivery stamped with its send time.
func (n *Network) flushWindow(limit sim.Time) {
	buf := n.ex.outbox
	slices.SortFunc(buf, comparePending)
	for i := range buf {
		n.routeDeferred(&buf[i], limit)
		buf[i] = pendingSend{} // release closure/dsts references
	}
	n.ex.outbox = buf[:0]
}

// comparePending orders captured sends by (send time, src node, per-src
// sequence). The key is unique, so the order is total and stable sorting
// is unnecessary.
func comparePending(a, b pendingSend) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// routeDeferred performs the immediate Send/Multicast bookkeeping for one
// captured message at the window barrier.
func (n *Network) routeDeferred(p *pendingSend, limit sim.Time) {
	if p.dsts != nil { // multicast
		n.multicastTraffic(int(p.src), nil, p.dsts, int(p.bytes), p.class)
		for _, d := range p.dsts {
			arrive := n.deliveryTimeAt(p.at, int(p.src), int(d), int(p.bytes))
			if tr := n.tracer; tr.Enabled() {
				tr.Emit(obs.Event{Time: uint64(p.at), Dur: uint64(arrive - p.at),
					Kind: obs.KindNoCMsg, Tile: p.src, A: uint64(d), B: uint64(p.bytes)})
			}
			n.Delivered++
			switch {
			case p.mfn == nil:
				n.deferHorizon(arrive, limit)
			case d == p.src:
				// Delivered at capture time; accounted here.
			default:
				d := int(d)
				mfn := p.mfn
				n.engine.ScheduleStampedAt(arrive, p.at, func() { mfn(d) })
			}
		}
		return
	}
	n.ctrSends.Inc()
	hops := n.HopCount(int(p.src), int(p.dst))
	n.record(p.class, int(p.bytes)+n.cfg.HeaderBytes, hops)
	arrive := n.deliveryTimeAt(p.at, int(p.src), int(p.dst), int(p.bytes))
	if tr := n.tracer; tr.Enabled() {
		tr.Emit(obs.Event{Time: uint64(p.at), Dur: uint64(arrive - p.at),
			Kind: obs.KindNoCMsg, Tile: p.src, A: uint64(p.dst), B: uint64(p.bytes)})
	}
	n.Delivered++
	switch {
	case p.fn == nil:
		n.deferHorizon(arrive, limit)
	case p.local:
		// Delivered at capture time; accounted here.
	default:
		n.engine.ScheduleStampedAt(arrive, p.at, p.fn)
	}
}

// deferHorizon extends the drain horizon for a fire-and-forget delivery
// routed at a barrier: the chasing horizon event (the engine may have run
// past the arrival already) keeps the clock open through the latest such
// arrival.
func (n *Network) deferHorizon(arrive, limit sim.Time) {
	if arrive > n.drainAt {
		n.drainAt = arrive
	}
	if !n.horizonQd {
		n.horizonQd = true
		at := n.drainAt
		if min := limit + 1; at < min {
			at = min
		}
		n.engine.ScheduleAt(at, n.horizonEv)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
