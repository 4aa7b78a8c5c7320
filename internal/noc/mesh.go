// Package noc models the on-chip interconnect: a W×H mesh with X-Y
// dimension-order routing, 256-bit single-cycle links, a multi-stage router
// pipeline, link contention, and multicast — matching the Garnet
// configuration of Table V. Every delivered message is charged bytes×hops
// to its traffic class's registry counter (noc.bytehops.<class>), the unit
// Figures 1b, 12 and 15 report.
package noc

import (
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
	// silent holds the fire-and-forget arrivals routed in the current
	// window, the cycles before windowEnd; they reach the drain horizon
	// at the window's edge (see endCycle).
	silent    []sim.Time
	windowEnd sim.Time
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
	// ex holds the current cycle's sends, routed at the cycle's end (see
	// exchange).
	ex exchange
}

// exchange is the send path of a network: Send and Multicast capture
// their message here, and the engine's end-of-cycle hook routes the
// cycle's sends (see endCycle).
//
// Link reservation (deliveryTimeAt) is global, non-causal state: a send
// from any node advances nextFree on every link of its route. The sends
// of one cycle are routed in canonical (src node, per-src sequence)
// order, so the emission order of same-cycle sends never decides link
// contention; the canonical order is part of the model the golden
// digests pin. Each delivery is scheduled at the end of its send cycle,
// after every event that cycle scheduled and before any later cycle's.
//
// Same-node messages bypass the exchange for timing (they use no links)
// and are scheduled at capture; only their accounting waits for routing.
type exchange struct {
	outbox []pendingSend
	// mcasts holds the cycle's multicast payloads, named by their
	// pendingSend's dst; their destinations lie back to back in dsts.
	mcasts []pendingMulticast
	dsts   []int32
	// keys is order's scratch: one src<<32|position key per send.
	keys []uint64
}

// pendingSend is one captured Send or Multicast awaiting routing.
type pendingSend struct {
	at       sim.Time // send time
	fn       func()
	src, dst int32 // dst indexes exchange.mcasts for a multicast
	bytes    int32
	class    uint8
	// local marks a same-node message already scheduled on its engine:
	// routing only does its accounting.
	local     bool
	multicast bool
}

// pendingMulticast is a captured multicast's payload: its destinations
// exchange.dsts[off:off+n] and per-destination callback. Same-node
// members were already scheduled at capture, like pendingSend.local.
type pendingMulticast struct {
	off, n int32
	fn     func(dst int)
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
	engine.AtCycleEnd(n.endCycle)
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

// Lookahead returns the minimum latency of any cross-node message, two
// router traversals plus one link hop (serialization contributes at
// least one further cycle, absorbed by the -1 in the delivery-time
// formula), clamped to at least one cycle. It is the width of the
// windows the drain horizon is extended at (see endCycle).
func Lookahead(cfg Config) sim.Time {
	la := 2*cfg.RouterLatency + cfg.LinkLatency
	if la < 1 {
		la = 1
	}
	return la
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
// latency with no link traffic. Cross-node routing happens at the end of
// the send cycle (see exchange); a send made outside an event is routed
// when the engine next ends a cycle or drains.
func (n *Network) Send(m *Message) {
	n.check(m.Src)
	n.check(m.Dst)
	now := n.engine.Now()
	p := pendingSend{at: now, fn: m.OnDeliver,
		src: int32(m.Src), dst: int32(m.Dst), bytes: int32(m.Bytes),
		class: uint8(m.Class)}
	if m.Src == m.Dst {
		// Same-node: no link state touched — deliver now, deferring only
		// the accounting.
		p.local = true
		if m.OnDeliver != nil {
			n.engine.ScheduleAt(now+n.cfg.RouterLatency, m.OnDeliver)
		}
	}
	n.ex.outbox = append(n.ex.outbox, p)
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

// Multicast sends one payload to several destinations along a shared X-Y
// tree: links common to multiple destinations are charged once, modelling
// the router multicast support of Table V. OnDeliver (if non-nil) runs once
// per destination. Remote deliveries are routed at the end of the cycle,
// like Send's.
func (n *Network) Multicast(src int, dsts []int, bytes int, class TrafficClass, onDeliver func(dst int)) {
	n.check(src)
	if len(dsts) == 0 {
		return
	}
	now := n.engine.Now()
	ex := &n.ex
	p := pendingSend{at: now, src: int32(src), dst: int32(len(ex.mcasts)),
		bytes: int32(bytes), class: uint8(class), multicast: true}
	ex.mcasts = append(ex.mcasts, pendingMulticast{off: int32(len(ex.dsts)), n: int32(len(dsts)), fn: onDeliver})
	for _, d := range dsts {
		n.check(d)
		ex.dsts = append(ex.dsts, int32(d))
		if d == src && onDeliver != nil {
			// Same-node member: deliver now, like Send.
			d := d
			n.engine.ScheduleAt(now+n.cfg.RouterLatency, func() { onDeliver(d) })
		}
	}
	ex.outbox = append(ex.outbox, p)
}

// multicastTraffic charges a multicast tree's traffic: links shared by
// several destinations count once, stamping the scratch array with a
// fresh epoch instead of building a per-message set.
func (n *Network) multicastTraffic(src int, dsts []int32, bytes int, class TrafficClass) {
	n.epoch++
	if n.epoch == 0 { // wrapped: old stamps are ambiguous, clear them
		clear(n.linkSeen)
		n.epoch = 1
	}
	unique := 0
	for _, d := range dsts {
		for _, l := range n.routeLinks(src, int(d)) {
			if n.linkSeen[l] != n.epoch {
				n.linkSeen[l] = n.epoch
				unique++
			}
		}
	}
	n.record(class, bytes+n.cfg.HeaderBytes, unique)
	n.ctrMulticasts.Inc()
}

// endCycle is the network's end-of-cycle hook: it routes the cycle's
// sends in canonical order, scheduling each remote delivery.
//
// It also extends the drain horizon in Lookahead-wide windows: a window
// opens at the first active cycle past the last one's end, and the
// fire-and-forget arrivals routed in it reach the horizon, in routing
// order, only once no event is left inside it. How often the horizon
// event fires depends on those edges, and that count is part of every
// run's event total, which the recorded result digests pin.
func (n *Network) endCycle() {
	now := n.engine.Now()
	if now >= n.windowEnd {
		n.windowEnd = now + Lookahead(n.cfg)
	}
	ex := &n.ex
	if len(ex.outbox) > 0 {
		for _, k := range ex.order() {
			n.routeOne(&ex.outbox[uint32(k)])
		}
		clear(ex.outbox) // release closure references
		clear(ex.mcasts)
		ex.outbox, ex.mcasts, ex.dsts = ex.outbox[:0], ex.mcasts[:0], ex.dsts[:0]
	}
	if len(n.silent) > 0 && n.engine.NextTime() >= n.windowEnd {
		for _, arrive := range n.silent {
			n.deferHorizon(arrive, n.windowEnd)
		}
		n.silent = n.silent[:0]
	}
}

// order returns the outbox in canonical (src node, per-src sequence)
// order as keys src<<32|position: the position keeps same-src sends in
// append (sequence) order.
func (ex *exchange) order() []uint64 {
	keys := ex.keys[:0]
	for i := range ex.outbox {
		keys = append(keys, uint64(ex.outbox[i].src)<<32|uint64(i))
	}
	slices.Sort(keys)
	ex.keys = keys
	return keys
}

// routeOne charges one captured message's traffic, reserves its links
// and schedules its deliveries.
func (n *Network) routeOne(p *pendingSend) {
	class := TrafficClass(p.class)
	if p.multicast {
		mc := &n.ex.mcasts[p.dst]
		dsts := n.ex.dsts[mc.off : mc.off+mc.n]
		n.multicastTraffic(int(p.src), dsts, int(p.bytes), class)
		for _, d := range dsts {
			arrive := n.deliveryTimeAt(p.at, int(p.src), int(d), int(p.bytes))
			if tr := n.tracer; tr.Enabled() {
				tr.Emit(obs.Event{Time: uint64(p.at), Dur: uint64(arrive - p.at),
					Kind: obs.KindNoCMsg, Tile: p.src, A: uint64(d), B: uint64(p.bytes)})
			}
			n.Delivered++
			switch {
			case mc.fn == nil:
				n.silent = append(n.silent, arrive)
			case d == p.src:
				// Delivered at capture time; accounted here.
			default:
				d := int(d)
				mfn := mc.fn
				n.engine.ScheduleAt(arrive, func() { mfn(d) })
			}
		}
		return
	}
	n.ctrSends.Inc()
	hops := len(n.routeLinks(int(p.src), int(p.dst)))
	n.record(class, int(p.bytes)+n.cfg.HeaderBytes, hops)
	arrive := n.deliveryTimeAt(p.at, int(p.src), int(p.dst), int(p.bytes))
	if tr := n.tracer; tr.Enabled() {
		tr.Emit(obs.Event{Time: uint64(p.at), Dur: uint64(arrive - p.at),
			Kind: obs.KindNoCMsg, Tile: p.src, A: uint64(p.dst), B: uint64(p.bytes)})
	}
	n.Delivered++
	switch {
	case p.fn == nil:
		n.silent = append(n.silent, arrive)
	case p.local:
		// Delivered at capture time; accounted here.
	default:
		n.engine.ScheduleAt(arrive, p.fn)
	}
}

// deferHorizon extends the drain horizon for a fire-and-forget delivery:
// instead of one nop event per message, the chasing horizon event keeps
// the clock open through the latest such arrival. At a window's edge
// the engine may have run past the arrival already, so the event fires
// no earlier than earliest.
func (n *Network) deferHorizon(arrive, earliest sim.Time) {
	if arrive > n.drainAt {
		n.drainAt = arrive
	}
	if !n.horizonQd {
		n.horizonQd = true
		n.engine.ScheduleAt(max(n.drainAt, earliest), n.horizonEv)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
