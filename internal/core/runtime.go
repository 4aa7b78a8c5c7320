package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/flatmap"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tlb"
)

// streamMode is how the runtime executes one stream under the selected
// system.
type streamMode int

const (
	// modeDirect: the access runs as ordinary core memory ops.
	modeDirect streamMode = iota
	// modePrefetch: SE_core prefetches; the core s_loads from the FIFO.
	modePrefetch
	// modeRemote: offloaded to SE_L3s (NS family).
	modeRemote
	// modeChain: SINGLE's bank-to-bank chained functions.
	modeChain
	// modePerElem: SINGLE's per-element core↔bank round trips.
	modePerElem
	// modeINSTAnchor: INST's per-iteration offload request, anchored at
	// the bundle's store/RMW stream.
	modeINSTAnchor
	// modeINSTOperand: fetched remotely as an operand of an INST bundle.
	modeINSTOperand
)

// RunResult reports one kernel invocation on one system.
type RunResult struct {
	Cycles       sim.Time
	DynOps       map[compiler.Category]uint64
	OffloadedOps uint64
	// Stats is the machine's counter snapshot (machine.Counters) at the
	// end of the invocation; counters accumulate across invocations on
	// one machine.
	Stats map[string]uint64
	// Accs are the per-core reduction results (validation).
	Accs []map[string]uint64
	// Plan is the compiled plan (nil for Base).
	Plan *compiler.Plan
}

// runCounters interns the runtime's counters in the machine's registry at
// invocation setup, so per-element paths (s_load consumption, remote
// compute, atomics) count with a slice increment.
type runCounters struct {
	sload, sloadRemote                 obs.Counter
	setlbMisses                        obs.Counter
	aliasDetected, ctxDrains           obs.Counter
	resumes, migrations                obs.Counter
	remoteCompute, atomicElems         obs.Counter
	instOffloads                       obs.Counter
	singleInvocations, singleChainHops obs.Counter
}

func newRunCounters(r *obs.Registry) runCounters {
	return runCounters{
		sload:             r.Counter("ns.sload"),
		sloadRemote:       r.Counter("ns.sload_remote"),
		setlbMisses:       r.Counter("ns.setlb_misses"),
		aliasDetected:     r.Counter("ns.alias_detected"),
		ctxDrains:         r.Counter("ns.ctxswitch_drains"),
		resumes:           r.Counter("ns.resumes"),
		migrations:        r.Counter("ns.migrations"),
		remoteCompute:     r.Counter("ns.remote_compute"),
		atomicElems:       r.Counter("ns.atomic_elems"),
		instOffloads:      r.Counter("inst.offloads"),
		singleInvocations: r.Counter("single.invocations"),
		singleChainHops:   r.Counter("single.chain_hops"),
	}
}

// runShared is state shared by all cores of one invocation.
type runShared struct {
	m       *machine.Machine
	scms    []*SCM
	sePages []flatmap.Map[struct{}] // per-bank SE_L3 translation cache, keyed by huge page
	ctr     runCounters
	// attrib receives the SE_L3 stall charges (nil = off).
	attrib *obs.Attribution
}

// coreRun drives one core's partition.
type coreRun struct {
	shared *runShared
	m      *machine.Machine
	coreID int
	sys    System
	pol    policy
	params Params
	plan   *compiler.Plan
	k      *ir.Kernel
	trace  *Trace

	// modes, remotes and prefetch are by sid (nil: no such executor).
	modes        []streamMode
	remotes      []*remoteStream
	extraRemotes []*remoteStream // parallel chase instances (§V)
	prefetch     []*inCoreStream
	chains       []*chainStream
	lastAcc      map[string]uint64

	// The replay's place in the trace (see decode): body is the kernel's
	// replay schedule, depth the running loop level (-1 once the nest is
	// done), left[L] the iterations level L's running instance has yet
	// to start and pos[L] the next step of its body. tripCursor,
	// addrCursor and elemCursor[sid] index trace.Trips, trace.Addrs and
	// trace.StreamElems[sid]; ent is the scratch entry decode fills.
	body       [][]ir.ValueRef
	depth      int
	left       []uint32
	pos        []int
	tripCursor int
	addrCursor int
	elemCursor []int
	ent        traceEntry
	seq        uint64 // next sequence number (push order == fetch order)
	// queue[qhead:] is the fetch backlog; the head index (instead of
	// re-slicing the front) lets the drained slice be reused in place.
	queue   []*cpu.MicroOp
	qhead   int
	actions flatmap.Map[func(done func())]
	// memFree heads the memCtx freelist (see memCtx).
	memFree *memCtx
	// lastSeq/haveSeq map IR values to the seq of their last emitted
	// instance, dense by ValueRef (which indexes Kernel.Ops).
	lastSeq []uint64
	haveSeq []bool
	// opFree pools micro-ops the core has finished with (cpu.OpRecycler):
	// steady-state emission reuses op, Deps, and MemRef allocations.
	opFree []*cpu.MicroOp

	elemCount    []int // per-sid elements seen in the trace
	consumeCount []int // per-sid responses consumed from remote streams

	core           *cpu.Core
	ranges         RangeTable
	pendingStreams int
	barrierWaiters []func()
	endEmitted     bool
	doneEmitted    bool

	offloadedDyn uint64
}

func (cr *coreRun) net() *noc.Network { return cr.m.Net }
func (cr *coreRun) tile() *cache.Tile { return cr.m.Hier.Tile(cr.coreID) }

func (cr *coreRun) scmAt(bank int) *SCM {
	return cr.shared.scms[bank]
}

// nextSidBound returns an exclusive upper bound on stream ids.
func (cr *coreRun) nextSidBound() int {
	if cr.plan == nil {
		return 0
	}
	return cr.plan.Sids
}

// streamOf returns the stream claiming an op, or nil.
func (cr *coreRun) streamOf(id ir.ValueRef) *compiler.Stream {
	if cr.plan == nil {
		return nil
	}
	return cr.plan.StreamOf(id)
}
func (cr *coreRun) decoupledCore() bool {
	return cr.pol.decouple && cr.plan != nil && cr.plan.FullyDecoupled
}

// seTLBLookup models the SE_L3-colocated TLB: one access per page, cached
// thereafter (§IV-B). Returns extra latency and hit status.
func (cr *coreRun) seTLBLookup(bank int, pa uint64) (sim.Time, bool) {
	pages := &cr.shared.sePages[bank]
	page := pa >> tlb.HugePageBits
	if pages.Contains(page) {
		return 0, true
	}
	pages.Put(page, struct{}{})
	cr.shared.ctr.setlbMisses.Inc()
	return 8, false
}

// Run executes kernel k on machine m under system sys. The machine must be
// freshly built (caches cold) and configured with prefetchers only for
// Base. d must hold freshly initialized arrays.
func Run(m *machine.Machine, k *ir.Kernel, sys System, params Params, kparams map[string]uint64, d *ir.Data) (*RunResult, error) {
	pol := policyFor(sys)
	if pol.prefetchers != m.Cfg.EnablePrefetchers {
		return nil, fmt.Errorf("core: system %v needs prefetchers=%v in the machine config", sys, pol.prefetchers)
	}
	var plan *compiler.Plan
	if pol.useStreams {
		var err error
		plan, err = compiler.Compile(k)
		if err != nil {
			return nil, err
		}
	}
	total, err := OuterTrip(k, kparams)
	if err != nil {
		return nil, err
	}
	cores := m.Tiles()
	if uint64(cores) > total && total > 0 {
		cores = int(total)
	}
	parts := Partition(total, cores)

	shared := &runShared{m: m, scms: make([]*SCM, m.Tiles()), sePages: make([]flatmap.Map[struct{}], m.Tiles()), ctr: newRunCounters(m.Obs)}
	shared.attrib = m.Attrib
	for i := range shared.scms {
		shared.scms[i] = NewSCM(m.Engine, params)
	}

	res := &RunResult{DynOps: map[compiler.Category]uint64{}, Plan: plan}
	runs := make([]*coreRun, 0, cores)
	remainingCores := 0
	var tb TraceBuilder
	body := replayBody(k)
	for c := 0; c < cores; c++ {
		lo, hi := parts[c][0], parts[c][1]
		if lo >= hi {
			continue
		}
		tr, err := GenTrace(&tb, m, k, plan, kparams, d, lo, hi)
		if err != nil {
			return nil, err
		}
		cr := &coreRun{
			shared: shared, m: m, coreID: c, sys: sys, pol: pol,
			params: params, plan: plan, k: k, trace: tr,
			lastSeq: make([]uint64, len(k.Ops)),
			haveSeq: make([]bool, len(k.Ops)),
		}
		cr.startReplay(body)
		nsid := cr.nextSidBound()
		cr.modes = make([]streamMode, nsid)
		cr.remotes = make([]*remoteStream, nsid)
		cr.prefetch = make([]*inCoreStream, nsid)
		cr.elemCount = make([]int, nsid)
		cr.consumeCount = make([]int, nsid)
		cr.decideModes()
		cr.buildStreams()
		cr.core = cpu.NewCore(m.Engine, m.Cfg.CoreType, (*coreSource)(cr), cr.memFunc)
		cr.core.SetAttribution(m.Attrib)
		runs = append(runs, cr)
		for cat, n := range tr.DynOps {
			if n > 0 {
				res.DynOps[compiler.Category(cat)] += n
			}
		}
		res.Accs = append(res.Accs, tr.Accs)
		remainingCores++
	}
	tb = TraceBuilder{} // every trace holds its own copy: free the buffers before simulating

	finished := 0
	for _, cr := range runs {
		cr := cr
		cr.core.SetOnIdle(func() { finished++ })
		cr.core.Start()
		// Start streams in sid order: same-cycle events fire FIFO, so a
		// deterministic insert order keeps runs bit-identical.
		for _, rs := range cr.remotes {
			if rs != nil {
				m.Engine.Schedule(1, rs.start)
			}
		}
		for _, rs := range cr.extraRemotes {
			rs := rs
			m.Engine.Schedule(1, rs.start)
		}
		for _, ch := range cr.chains {
			ch := ch
			m.Engine.Schedule(1, ch.start)
		}
	}
	if params.ContextSwitchAt > 0 {
		scheduleContextSwitch(m, runs, params)
	}
	runEngine(m, runs)
	if finished != remainingCores {
		return nil, fmt.Errorf("core: deadlock — %d/%d cores finished at cycle %d", finished, remainingCores, m.Now())
	}
	var last sim.Time
	for _, cr := range runs {
		if t := cr.core.FinishTime(); t > last {
			last = t
		}
		res.OffloadedOps += cr.offloadedDyn
	}
	if t := m.Now(); t > last {
		last = t // stream drain beyond last core op
	}
	res.Cycles = last
	res.Stats = m.Counters()
	return res, nil
}

// runEngine runs the machine's engine to completion. With a sampler
// attached, an end-of-cycle hook records one row of IPC, bank
// occupancy, link utilization and offload queue depth at the first
// active cycle at or after each period boundary, stamped with that
// cycle, plus a final row at drain. The hook only reads state — it
// schedules nothing — so a sampled run fires exactly the events of an
// unsampled one. It is unregistered on return, so repeated runs on one
// machine do not stack hooks.
func runEngine(m *machine.Machine, runs []*coreRun) {
	var sp *sampling
	if m.Sampler != nil {
		sp = &sampling{m: m, runs: runs, last: m.Now(), next: m.Now() + sim.Time(m.Sampler.Period)}
		m.Sampler.SetCols("ipc", "bank_occ", "link_util", "offload_q")
		remove := m.Engine.AtCycleEnd(sp.cycleEnd)
		defer remove()
	}
	m.Engine.Run()
	if sp != nil && sp.last < m.Now() {
		sp.record()
	}
}

// sampling is one run's sampler state: the next period boundary and the
// counters at the previous row, from which each row's rates are taken.
type sampling struct {
	m                     *machine.Machine
	runs                  []*coreRun
	next, last            sim.Time
	lastRetired, lastBusy uint64
}

// cycleEnd is the sampler's end-of-cycle hook.
func (sp *sampling) cycleEnd() {
	if now := sp.m.Now(); now >= sp.next {
		sp.record()
		period := sim.Time(sp.m.Sampler.Period)
		sp.next = now - (now-sp.next)%period + period
	}
}

// record appends one row at the machine clock.
func (sp *sampling) record() {
	m := sp.m
	now := m.Now()
	elapsed := float64(now - sp.last)
	var retired uint64
	var offq int
	for _, cr := range sp.runs {
		retired += cr.core.OpsRetired
		for _, rs := range cr.remotes {
			if rs != nil {
				offq += rs.inflight
			}
		}
		for _, rs := range cr.extraRemotes {
			offq += rs.inflight
		}
	}
	bankOcc := 0
	for i := 0; i < m.Hier.Tiles(); i++ {
		bankOcc += m.Hier.Bank(i).PendingTxns()
	}
	busy := m.Net.BusyLinkCycles()
	ipc, lu := 0.0, 0.0
	if elapsed > 0 {
		ipc = float64(retired-sp.lastRetired) / elapsed
		if links := float64(m.Net.LinkCount()); links > 0 {
			lu = float64(busy-sp.lastBusy) / (links * elapsed)
		}
	}
	m.Sampler.Record(uint64(now), ipc, float64(bankOcc), lu, float64(offq))
	sp.lastRetired, sp.lastBusy, sp.last = retired, busy, now
}

// OuterTrip is kernel k's outer-loop trip count: its static trip, or
// its trip parameter looked up in kparams and then in k's defaults. A
// missing parameter is an error.
func OuterTrip(k *ir.Kernel, kparams map[string]uint64) (uint64, error) {
	l := k.Loops[0]
	switch {
	case l.Trip > 0:
		return l.Trip, nil
	case l.TripParam != "":
		if v, ok := kparams[l.TripParam]; ok {
			return v, nil
		}
		if v, ok := k.Params[l.TripParam]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("core: missing outer trip parameter %q", l.TripParam)
	default:
		return 0, fmt.Errorf("core: outer loop must have a static or parameter trip count")
	}
}

// decideModes picks each stream's execution mode (SE_core offload policy,
// §IV-B, plus the baseline-specific rules of §VI).
func (cr *coreRun) decideModes() {
	if cr.plan == nil {
		return
	}
	groups := streamGroups(cr.plan)
	for _, g := range groups {
		mode := cr.groupMode(g)
		for _, s := range g {
			cr.modes[s.Sid] = mode
		}
		if mode == modeINSTAnchor {
			// Operand streams of INST bundles are fetched remotely; the
			// anchor is the write stream.
			for _, s := range g {
				if !s.Write && s.CT != isa.ComputeReduce {
					cr.modes[s.Sid] = modeINSTOperand
				}
			}
		}
	}
}

// streamGroups partitions streams into dependence-connected components:
// offloading decisions are made per group so producers move with
// consumers.
func streamGroups(p *compiler.Plan) [][]*compiler.Stream {
	parent := map[int]int{}
	var find func(x int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, s := range p.Streams {
		parent[s.Sid] = s.Sid
	}
	for _, s := range p.Streams {
		if s.BaseSid >= 0 {
			if _, ok := parent[s.BaseSid]; ok {
				union(s.Sid, s.BaseSid)
			}
		}
		for _, d := range s.ValueDepSids {
			if _, ok := parent[d]; ok {
				union(s.Sid, d)
			}
		}
	}
	byRoot := map[int][]*compiler.Stream{}
	for _, s := range p.Streams {
		r := find(s.Sid)
		byRoot[r] = append(byRoot[r], s)
	}
	out := make([][]*compiler.Stream, 0, len(byRoot))
	// Deterministic order: by smallest sid.
	for sid := 0; sid < len(p.Streams)*2+16; sid++ {
		for root, g := range byRoot {
			if root == sid {
				out = append(out, g)
				delete(byRoot, root)
			}
		}
	}
	return out
}

// groupMode picks the mode for one dependence group.
func (cr *coreRun) groupMode(g []*compiler.Stream) streamMode {
	pol := cr.pol
	hasWrite, hasReduce, hasIndirect, hasPtr, multiOp := false, false, false, false, false
	var totalElems int
	var footprint uint64
	for _, s := range g {
		elems := cr.trace.StreamElems[s.Sid]
		totalElems += len(elems)
		footprint += spanOf(elems)
		if s.Write {
			hasWrite = true
		}
		if s.CT == isa.ComputeReduce {
			hasReduce = true
		}
		if s.Kind == isa.KindIndirect {
			hasIndirect = true
		}
		if s.Kind == isa.KindPointerChase {
			hasPtr = true
		}
		if len(s.ValueDepSids) > 1 || (len(s.ValueDepSids) == 1 && s.Kind == isa.KindAffine && s.Write) {
			multiOp = true
		}
	}
	switch {
	case pol.iterGrain: // INST
		if hasReduce {
			return modePrefetch // Omni-Compute cannot offload reductions
		}
		if hasWrite {
			return modeINSTAnchor
		}
		return modePrefetch
	case pol.singleLine: // SINGLE
		if multiOp {
			return modePrefetch // Livia has no multi-operand functions
		}
		if hasReduce && (hasPtr || !hasIndirect) {
			return modeChain // chained single-line functions
		}
		if hasIndirect {
			return modePerElem // indirect breaks Livia's autonomy
		}
		return modePrefetch
	case !pol.offload: // NS_core
		return modePrefetch
	case !pol.offloadCompute: // NS_no_comp: read streams only
		if hasWrite || hasReduce {
			return modePrefetch
		}
		if !cr.offloadProfitable(footprint, totalElems, hasIndirect, hasPtr, hasReduce, g) {
			return modePrefetch
		}
		return modeRemote
	default: // NS / NS_no_sync / NS_decouple
		if !cr.offloadProfitable(footprint, totalElems, hasIndirect, hasPtr, hasReduce, g) {
			return modePrefetch
		}
		return modeRemote
	}
}

// offloadProfitable is the SE_core policy: offload when the group's
// footprint cannot live in the private cache, with the §IV-C minimum
// length for indirect reductions.
func (cr *coreRun) offloadProfitable(footprint uint64, totalElems int, hasIndirect, hasPtr, hasReduce bool, g []*compiler.Stream) bool {
	if totalElems == 0 {
		return false
	}
	l2 := uint64(cr.m.Cfg.Cache.L2.SizeBytes)
	if hasIndirect && hasReduce {
		// §IV-C: only offload indirect reductions longer than 4× banks.
		for _, s := range g {
			if s.CT == isa.ComputeReduce {
				if uint64(totalElems) < cr.params.IndirectReduceMinLen {
					return false
				}
			}
		}
	}
	return footprint > l2 || hasPtr || hasIndirect
}

// scheduleContextSwitch arranges the §V coarse-grain context switch: at
// the configured cycle every offloaded stream suspends and drains
// (Figure 7b precise state), the machine sits out the gap, and streams are
// re-dispatched with fresh configure messages.
func scheduleContextSwitch(m *machine.Machine, runs []*coreRun, params Params) {
	m.Engine.ScheduleAt(sim.Time(params.ContextSwitchAt), func() {
		var all []*remoteStream
		for _, cr := range runs {
			for _, rs := range cr.remotes {
				if rs != nil {
					all = append(all, rs)
				}
			}
			all = append(all, cr.extraRemotes...)
		}
		if len(all) == 0 {
			return
		}
		remaining := len(all)
		for _, rs := range all {
			rs := rs
			rs.cr.shared.ctr.ctxDrains.Inc()
			rs.Suspend(func() {
				remaining--
				if remaining == 0 {
					m.Engine.Schedule(sim.Time(params.ContextSwitchGap), func() {
						for _, r := range all {
							r.Resume()
						}
					})
				}
			})
		}
	})
}

// chaseInstances is how many pointer-chase instances run concurrently
// under §V decoupling (bounded by SE_L3 stream-table entries per core).
const chaseInstances = 8

// splitByChain partitions elements round-robin by chain id into at most k
// parts, preserving within-chain order.
func splitByChain(elems []streamElem, k int) [][]streamElem {
	if len(elems) == 0 {
		return nil
	}
	parts := make([][]streamElem, k)
	for _, e := range elems {
		i := int(e.chain) % k
		parts[i] = append(parts[i], e)
	}
	out := parts[:0]
	for _, p := range parts {
		if len(p) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// spanOf estimates a stream's touched bytes from its dynamic elements.
func spanOf(elems []streamElem) uint64 {
	if len(elems) == 0 {
		return 0
	}
	lo, hi := elems[0].pa, elems[0].pa
	for _, e := range elems {
		if e.pa < lo {
			lo = e.pa
		}
		if e.pa > hi {
			hi = e.pa
		}
	}
	return hi - lo + uint64(elems[0].size)
}

// buildStreams instantiates the per-mode stream executors.
func (cr *coreRun) buildStreams() {
	if cr.plan == nil {
		return
	}
	for _, s := range cr.plan.Streams {
		elems := cr.trace.StreamElems[s.Sid]
		if cr.modes[s.Sid] != modeRemote {
			continue
		}
		// §V: fully-decoupled pointer-chase streams run as several
		// concurrent instances (Figure 8's simultaneous inner streams);
		// under range-sync a single instance preserves ordering.
		if s.Kind == isa.KindPointerChase && (cr.decoupledCore() || !cr.pol.rangeSync) {
			for _, part := range splitByChain(elems, chaseInstances) {
				rs := newRemoteStream(cr, s, part)
				cr.pendingStreams++
				rs.onFinished = cr.streamFinished
				if cr.remotes[s.Sid] == nil {
					cr.remotes[s.Sid] = rs
				} else {
					cr.extraRemotes = append(cr.extraRemotes, rs)
				}
			}
			continue
		}
		rs := newRemoteStream(cr, s, elems)
		cr.remotes[s.Sid] = rs
		cr.pendingStreams++
		rs.onFinished = cr.streamFinished
	}
	// SINGLE chained groups: the group's longest access-stream element
	// sequence drives the chain; independent chains (per outer iteration)
	// run as parallel invocations, as Livia's chained functions do.
	for _, g := range streamGroups(cr.plan) {
		if cr.modes[g[0].Sid] != modeChain {
			continue
		}
		var primary *compiler.Stream
		var elems []streamElem
		funcOps, vector := 1, false
		for _, s := range g {
			if se := cr.trace.StreamElems[s.Sid]; len(se) > len(elems) {
				primary, elems = s, se
			}
			funcOps += len(s.ComputeOps)
			vector = vector || s.Vector
		}
		if primary == nil {
			continue
		}
		for _, part := range splitByChain(elems, chaseInstances) {
			ch := &chainStream{cr: cr, elems: part, funcOps: funcOps, vector: vector}
			ch.onFinished = cr.streamFinished
			cr.chains = append(cr.chains, ch)
			cr.pendingStreams++
		}
	}
	// Wire remote dependences.
	for _, s := range cr.plan.Streams {
		rs := cr.remotes[s.Sid]
		if rs == nil {
			continue
		}
		if s.BaseSid >= 0 {
			if base := cr.remotes[s.BaseSid]; base != nil {
				rs.base = base
			}
		}
		for _, d := range s.ValueDepSids {
			if dep := cr.remotes[d]; dep != nil && dep != rs {
				rs.deps = append(rs.deps, dep)
			}
		}
	}
	// Wire prefetch streams (loads only) with base chaining. Pointer
	// chases gain nothing from FIFO prefetching (each address needs the
	// previous node's data) and would head-of-line-block other chains;
	// they execute as ordinary core loads, letting the OOO window overlap
	// independent chains exactly as the Base core does.
	for _, s := range cr.plan.Streams {
		if cr.modes[s.Sid] != modePrefetch || s.Write || s.AccessOp == ir.NoValue {
			continue
		}
		if s.CT == isa.ComputeReduce || s.Kind == isa.KindPointerChase {
			continue
		}
		elems := cr.trace.StreamElems[s.Sid]
		cr.prefetch[s.Sid] = newInCoreStream(cr, elems, s.Kind == isa.KindPointerChase)
	}
	for _, s := range cr.plan.Streams {
		ics := cr.prefetch[s.Sid]
		if ics == nil || s.BaseSid < 0 {
			continue
		}
		if base := cr.prefetch[s.BaseSid]; base != nil {
			ics.base = base
		}
	}
}

func (cr *coreRun) streamFinished() {
	cr.pendingStreams--
	if cr.pendingStreams == 0 {
		for _, w := range cr.barrierWaiters {
			w()
		}
		cr.barrierWaiters = nil
	}
}

// memFunc routes the core's memory micro-ops: registered actions (stream
// FIFO reads, offload round trips) or ordinary hierarchy accesses.
func (cr *coreRun) memFunc(seq uint64, ref cpu.MemRef, at sim.Time, done func()) {
	mc := cr.getMemCtx()
	mc.done = done
	if act, ok := cr.actions.Get(seq); ok {
		cr.actions.Delete(seq)
		mc.act = act
		cr.m.Engine.ScheduleAt(at, mc.actEv)
		return
	}
	mc.ref = ref
	cr.m.Engine.ScheduleAt(at, mc.accessEv)
}

// memCtx is the pooled context of one core memory access, from the core's
// issue to the completion it reports back. Its event and level callbacks
// are bound once at creation (the elemCtx pattern) and a context recycles
// before its completion runs, so routing an access allocates nothing in
// steady state. The pool is bounded by the core's LSQ.
type memCtx struct {
	cr   *coreRun
	ref  cpu.MemRef
	done func()
	act  func(done func())
	next *memCtx // freelist link

	accessEv sim.Event         // mc.access: alias check, then the tile access
	actEv    sim.Event         // mc.runAction: the registered action
	levelCB  func(cache.Level) // mc.finish: recycle, then done
}

func (cr *coreRun) getMemCtx() *memCtx {
	mc := cr.memFree
	if mc == nil {
		mc = &memCtx{cr: cr}
		mc.accessEv = mc.access
		mc.actEv = mc.runAction
		mc.levelCB = mc.finish
	} else {
		cr.memFree = mc.next
	}
	return mc
}

func (mc *memCtx) release() {
	mc.done, mc.act = nil, nil
	mc.next = mc.cr.memFree
	mc.cr.memFree = mc
}

func (mc *memCtx) runAction() {
	act, done := mc.act, mc.done
	mc.release()
	act(done)
}

func (mc *memCtx) finish(cache.Level) {
	done := mc.done
	mc.release()
	done()
}

func (mc *memCtx) access() {
	cr, ref := mc.cr, mc.ref
	// §IV-B alias check: committed core accesses compare against
	// offloaded streams' reported ranges. On a hit (possibly a false
	// positive — the check is conservative) the stream drains to a
	// precise state before the access proceeds, then restarts
	// (Figure 7b). The alias-free evaluation kernels never take this
	// path; TestAliasUnwind does.
	if cr.pol.rangeSync && cr.ranges.Active() > 0 {
		if sid, alias := cr.ranges.Check(ref.Addr, 8); alias {
			cr.shared.ctr.aliasDetected.Inc()
			cr.ranges.Release(sid)
			if rs := cr.remotes[sid]; rs != nil && !rs.finished {
				rs.Suspend(func() {
					cr.m.Engine.Schedule(1, rs.Resume)
					cr.tile().Access(ref.Addr, ref.Write, ref.PC, mc.levelCB)
				})
				return
			}
		}
	}
	cr.tile().Access(ref.Addr, ref.Write, ref.PC, mc.levelCB)
}
