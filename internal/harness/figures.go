package harness

import (
	"fmt"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/offload"
	"repro/internal/runner"
	"repro/internal/workloads"
)

// wlist returns the workload subset to run (nil = all 14).
func wlist(subset []string) []string {
	if len(subset) == 0 {
		return workloads.Names()
	}
	return subset
}

// Fig1a reports the fraction of dynamic micro-ops associable with streams,
// split by compute type (Figure 1a).
func (e *Exp) Fig1a(subset []string) (*Table, error) {
	cfg := e.cfg
	t := &Table{
		Title: "Figure 1a: stream-associable dynamic micro-ops (fraction of total)",
		Cols:  []string{"load/reduce", "store/rmw", "core", "config"},
	}
	for _, name := range wlist(subset) {
		w := workloads.Get(name, cfg.Scale)
		plan, err := compiler.Compile(w.Kernel)
		if err != nil {
			return nil, err
		}
		mc, err := MachineConfig(cfg, false)
		if err != nil {
			return nil, err
		}
		m := machine.New(mc)
		loadOps, storeOps, coreOps, cfgOps, err := classifyDynOps(w, plan, w.NewData(m.AS, cfg.Seed))
		if err != nil {
			return nil, err
		}
		total := float64(loadOps + storeOps + coreOps)
		if total == 0 {
			total = 1
		}
		t.AddRow(name, float64(loadOps)/total, float64(storeOps)/total,
			float64(coreOps)/total, float64(cfgOps)/total)
	}
	return t, nil
}

// classifyDynOps runs the kernel functionally, attributing each dynamic op
// to load/reduce streams, store/RMW streams, or the core.
func classifyDynOps(w *workloads.Workload, plan *compiler.Plan, d *ir.Data) (loadOps, storeOps, coreOps, cfgOps uint64, err error) {
	count := func(id ir.ValueRef) {
		switch plan.ClassOf(id) {
		case compiler.CatConfig:
			cfgOps++
			return
		case compiler.CatCore:
			coreOps++
			return
		}
		s := plan.StreamOf(id)
		if s == nil {
			coreOps++
			return
		}
		switch s.CT {
		case isa.ComputeStore, isa.ComputeRMW:
			storeOps++
		default:
			if s.Write {
				storeOps++
			} else {
				loadOps++
			}
		}
	}
	hooks := &ir.Hooks{
		OnOp: func(id ir.ValueRef, op *ir.Op) {
			if op.Kind != ir.OpLoad && op.Kind != ir.OpStore && op.Kind != ir.OpAtomic {
				count(id)
			}
		},
		OnMem: func(ev ir.MemEvent) { count(ev.OpID) },
	}
	total, err := core.OuterTrip(w.Kernel, w.Params)
	if err != nil {
		return
	}
	_, err = ir.Exec(w.Kernel, d, w.Params, 0, total, hooks)
	return
}

// Fig1b compares the pure data traffic (bytes×hops) of three ideal
// systems: no private caches, perfect byte-granularity private caches, and
// perfect near-LLC computation (Figure 1b). Values are normalized to
// No-Priv$.
func (e *Exp) Fig1b(subset []string) (*Table, error) {
	cfg := e.cfg
	t := &Table{
		Title: "Figure 1b: ideal data traffic normalized to No-Priv$",
		Cols:  []string{"No-Priv$", "Perf-Priv$", "Perf-Near-LLC"},
		Note:  "paper: private caches remove ~27%, near-LLC compute ~64%",
	}
	for _, name := range wlist(subset) {
		w := workloads.Get(name, cfg.Scale)
		plan, err := compiler.Compile(w.Kernel)
		if err != nil {
			return nil, err
		}
		mc, err := MachineConfig(cfg, false)
		if err != nil {
			return nil, err
		}
		m := machine.New(mc)
		noPriv, perfPriv, nearLLC, err := idealTraffic(m, w, plan, w.NewData(m.AS, cfg.Seed))
		if err != nil {
			return nil, err
		}
		base := float64(noPriv)
		if base == 0 {
			base = 1
		}
		t.AddRow(name, 1.0, float64(perfPriv)/base, float64(nearLLC)/base)
	}
	return t, nil
}

// idealTraffic computes the three abstract systems' bytes×hops over the
// functional trace. The perfect private cache is byte-granularity LRU with
// the paper's 256 kB budget (scaled at CI), an update-based zero-cost
// protocol, per core.
func idealTraffic(m *machine.Machine, w *workloads.Workload, plan *compiler.Plan, d *ir.Data) (noPriv, perfPriv, nearLLC uint64, err error) {
	budget := 256 << 10
	if m.Cfg.Cache.L2.SizeBytes < 256<<10 {
		budget = m.Cfg.Cache.L2.SizeBytes * 16 // scaled like the caches
	}
	total, err := core.OuterTrip(w.Kernel, w.Params)
	if err != nil {
		return
	}
	cores := m.Tiles()
	parts := core.Partition(total, cores)
	// Streams whose data is forwarded to another stream (multi-op).
	forwarded := map[int]bool{}
	for _, s := range plan.Streams {
		for _, d := range s.ValueDepSids {
			forwarded[d] = true
		}
		if s.BaseSid >= 0 {
			forwarded[s.BaseSid] = true
		}
	}
	lru := newByteLRU(budget)
	for c := 0; c < cores; c++ {
		lo, hi := parts[c][0], parts[c][1]
		if lo >= hi {
			continue
		}
		lru.reset()
		hooks := &ir.Hooks{OnMem: func(ev ir.MemEvent) {
			pa := m.Translate(ev.Addr)
			bank := m.Hier.HomeBank(pa)
			hops := m.Net.HopCount(c, bank)
			bytes := uint64(ev.Size)
			noPriv += bytes * uint64(hops)
			if !lru.touch(pa, ev.Size) {
				perfPriv += bytes * uint64(hops)
			}
			if s := plan.StreamOf(ev.OpID); s != nil {
				// Computation moves to the data: only the returned result
				// and inter-bank operand forwarding (one hop) remain.
				nearLLC += uint64(s.RetBytes)
				if forwarded[s.Sid] {
					nearLLC += bytes
				}
			} else {
				nearLLC += bytes * uint64(hops)
			}
		}}
		if _, err = ir.Exec(w.Kernel, d, w.Params, lo, hi, hooks); err != nil {
			return
		}
	}
	return
}

// byteLRU is a byte-budget LRU over element addresses (the "perfect
// private cache" of Figure 1b). Entries are intrusively linked nodes in
// one grow-only slice, recycled through a freelist and indexed by a map,
// so a steady-state touch — hit, miss, or eviction — allocates nothing
// (TestByteLRUSteadyStateNoAllocs). The container/list version this
// replaces allocated a node plus a map cell per miss, which was nearly
// all of the Fig1b benchmark's garbage.
type byteLRU struct {
	budget int
	used   int
	nodes  []lruNode
	idx    map[uint64]int32
	head   int32 // most recently used, -1 when empty
	tail   int32 // least recently used, -1 when empty
	free   int32 // freelist head threaded through next, -1 when empty
}

type lruNode struct {
	addr       uint64
	size       int32
	prev, next int32
}

func newByteLRU(budget int) *byteLRU {
	return &byteLRU{budget: budget, idx: make(map[uint64]int32, 1024), head: -1, tail: -1, free: -1}
}

// reset empties l for the next core, keeping its node and index storage:
// a grown map holds many tables, and building one per core allocated
// them all again.
func (l *byteLRU) reset() {
	l.used = 0
	l.nodes = l.nodes[:0]
	clear(l.idx)
	l.head, l.tail, l.free = -1, -1, -1
}

func (l *byteLRU) unlink(i int32) {
	n := &l.nodes[i]
	if n.prev >= 0 {
		l.nodes[n.prev].next = n.next
	} else {
		l.head = n.next
	}
	if n.next >= 0 {
		l.nodes[n.next].prev = n.prev
	} else {
		l.tail = n.prev
	}
}

func (l *byteLRU) pushFront(i int32) {
	n := &l.nodes[i]
	n.prev = -1
	n.next = l.head
	if l.head >= 0 {
		l.nodes[l.head].prev = i
	} else {
		l.tail = i
	}
	l.head = i
}

// touch returns true on a hit; misses insert and evict LRU bytes.
func (l *byteLRU) touch(addr uint64, size int) bool {
	if i, ok := l.idx[addr]; ok {
		if i != l.head {
			l.unlink(i)
			l.pushFront(i)
		}
		return true
	}
	i := l.free
	if i >= 0 {
		l.free = l.nodes[i].next
	} else {
		l.nodes = append(l.nodes, lruNode{})
		i = int32(len(l.nodes) - 1)
	}
	l.nodes[i] = lruNode{addr: addr, size: int32(size)}
	l.pushFront(i)
	l.idx[addr] = i
	l.used += size
	for l.used > l.budget && l.tail >= 0 {
		t := l.tail
		victim := l.nodes[t]
		l.unlink(t)
		delete(l.idx, victim.addr)
		l.used -= int(victim.size)
		l.nodes[t].next = l.free
		l.free = t
	}
	return false
}

// evalSystems is Figure 9's system list (Base is the denominator).
func evalSystems() []core.System {
	return []core.System{core.INST, core.SINGLE, core.NSCore, core.NSNoComp,
		core.NS, core.NSNoSync, core.NSDecouple}
}

// Fig9 reports speedup over the Base core for every system (Figure 9).
// Like every figure below, it declares its full job matrix up front and
// consumes the pool's memoized results in declaration order, so rendering
// is parallel across jobs yet byte-identical at any worker count.
func (e *Exp) Fig9(subset []string) (*Table, error) {
	sysList := evalSystems()
	names := wlist(subset)
	t := &Table{Title: fmt.Sprintf("Figure 9: speedup over Base %s", e.cfg.CoreType)}
	for _, s := range sysList {
		t.Cols = append(t.Cols, s.String())
	}
	var jobs []runner.Job
	for _, name := range names {
		jobs = append(jobs, e.job(name, core.Base))
		for _, sys := range sysList {
			jobs = append(jobs, e.job(name, sys))
		}
	}
	res, err := e.run(jobs)
	if err != nil {
		return nil, err
	}
	per := make([][]float64, len(sysList))
	for w, name := range names {
		row := res[w*(1+len(sysList)) : (w+1)*(1+len(sysList))]
		base := row[0]
		cells := make([]float64, 0, len(sysList))
		for i := range sysList {
			sp := float64(base.Cycles) / float64(row[1+i].Cycles)
			cells = append(cells, sp)
			per[i] = append(per[i], sp)
		}
		t.AddRow(name, cells...)
	}
	gm := make([]float64, len(sysList))
	for i := range sysList {
		gm[i] = geoMean(per[i])
	}
	t.AddRow("geomean", gm...)
	t.Note = "paper (8x8, all 14): NS 3.19x, NS_decouple 4.27x over OOO8"
	return t, nil
}

// Fig10 reports the energy/performance tradeoff per core type (Figure 10):
// speedup over that core's Base, and energy normalized to it.
func (e *Exp) Fig10(subset []string) (*Table, error) {
	coreTypes := runner.CoreTypes()
	names := wlist(subset)
	t := &Table{
		Title: "Figure 10: speedup and normalized energy per core type",
		Cols:  []string{"NS speedup", "NS energy", "NSdec speedup", "NSdec energy"},
		Note:  "paper: NS/NS_decouple reach 2.85x/3.52x energy efficiency on OOO8",
	}
	var jobs []runner.Job
	for _, ct := range coreTypes {
		c := e.cfg
		c.CoreType = ct
		for _, name := range names {
			jobs = append(jobs, c.Job(name, core.Base), c.Job(name, core.NS),
				c.Job(name, core.NSDecouple))
		}
	}
	res, err := e.run(jobs)
	if err != nil {
		return nil, err
	}
	for i, ct := range coreTypes {
		var sp, en, spD, enD []float64
		for w := range names {
			r := res[(i*len(names)+w)*3:]
			base, ns, dec := r[0], r[1], r[2]
			sp = append(sp, float64(base.Cycles)/float64(ns.Cycles))
			en = append(en, ns.Energy.Total()/base.Energy.Total())
			spD = append(spD, float64(base.Cycles)/float64(dec.Cycles))
			enD = append(enD, dec.Energy.Total()/base.Energy.Total())
		}
		t.AddRow(ct, geoMean(sp), geoMean(en), geoMean(spD), geoMean(enD))
	}
	return t, nil
}

// Fig11 reports the stream-associable fraction and the actually-offloaded
// fraction of dynamic ops under NS (Figure 11).
func (e *Exp) Fig11(subset []string) (*Table, error) {
	names := wlist(subset)
	t := &Table{
		Title: "Figure 11: streamable vs offloaded micro-op fraction (NS)",
		Cols:  []string{"streamable", "offloaded"},
		Note:  "paper: on average 93% of stream-associable ops offload",
	}
	jobs := make([]runner.Job, 0, len(names))
	for _, name := range names {
		jobs = append(jobs, e.job(name, core.NS))
	}
	res, err := e.run(jobs)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		r := res[i]
		tot := float64(r.TotalOps)
		if tot == 0 {
			tot = 1
		}
		t.AddRow(name, float64(r.StreamableOps)/tot, float64(r.OffloadedOps)/tot)
	}
	return t, nil
}

// Fig12 reports NoC traffic by class, normalized to Base's total
// (Figure 12).
func (e *Exp) Fig12(subset []string) (*Table, error) {
	sysList := append([]core.System{core.Base}, evalSystems()...)
	names := wlist(subset)
	t := &Table{Title: "Figure 12: NoC traffic (bytes-hops) normalized to Base, by class"}
	for _, s := range sysList {
		t.Cols = append(t.Cols, s.String()+"/data", s.String()+"/ctl", s.String()+"/off")
	}
	var jobs []runner.Job
	for _, name := range names {
		for _, sys := range sysList {
			jobs = append(jobs, e.job(name, sys))
		}
	}
	res, err := e.run(jobs)
	if err != nil {
		return nil, err
	}
	for w, name := range names {
		var cells []float64
		var baseTotal float64
		for i := range sysList {
			r := res[w*len(sysList)+i]
			if i == 0 {
				baseTotal = float64(r.TotalTraffic())
				if baseTotal == 0 {
					baseTotal = 1
				}
			}
			cells = append(cells, float64(r.TrafficData)/baseTotal,
				float64(r.TrafficControl)/baseTotal, float64(r.TrafficOffload)/baseTotal)
		}
		t.AddRow(name, cells...)
	}
	t.Note = "paper: NS cuts total traffic 69%, NS_decouple 76%; INST only 49%"
	return t, nil
}

// Fig13 sweeps the SE_L3→SCM issue latency (Figure 13: 1/4/16 cycles),
// reporting geomean cycles normalized to NS at 1 cycle.
func (e *Exp) Fig13(subset []string) (*Table, error) {
	lats := []uint64{1, 4, 16}
	sysList := []core.System{core.NS, core.NSNoSync, core.NSDecouple}
	names := wlist(subset)
	t := &Table{Title: "Figure 13: sensitivity to SCM issue latency (relative performance)"}
	for _, l := range lats {
		t.Cols = append(t.Cols, fmt.Sprintf("%dcyc", l))
	}
	var jobs []runner.Job
	for _, sys := range sysList {
		for _, lat := range lats {
			c := e.cfg
			c.Overrides.SCMIssueLatency = runner.U64(lat)
			for _, name := range names {
				jobs = append(jobs, c.Job(name, sys))
			}
		}
	}
	res, err := e.run(jobs)
	if err != nil {
		return nil, err
	}
	var ref float64
	for si, sys := range sysList {
		var cells []float64
		for li := range lats {
			var cyc []float64
			for w := range names {
				r := res[(si*len(lats)+li)*len(names)+w]
				cyc = append(cyc, float64(r.Cycles))
			}
			cells = append(cells, geoMean(cyc))
		}
		if sys == core.NS {
			ref = cells[0]
		}
		for i := range cells {
			cells[i] = ref / cells[i] // relative performance
		}
		t.AddRow(sys.String(), cells...)
	}
	t.Note = "paper: 16-cycle latency costs NS_decouple ~11% vs 4-cycle"
	return t, nil
}

// Fig14 sweeps the SCC ROB size (Figure 14).
func (e *Exp) Fig14(subset []string) (*Table, error) {
	robs := []int{8, 16, 32, 64, 128}
	names := wlist(subset)
	t := &Table{Title: "Figure 14: sensitivity to SCC ROB entries (perf vs 64)"}
	for _, r := range robs {
		t.Cols = append(t.Cols, fmt.Sprintf("%d", r))
	}
	var jobs []runner.Job
	for _, name := range names {
		for _, rob := range robs {
			c := e.cfg
			c.Overrides.SCCROB = runner.Int(rob)
			jobs = append(jobs, c.Job(name, core.NSDecouple))
		}
	}
	res, err := e.run(jobs)
	if err != nil {
		return nil, err
	}
	for w, name := range names {
		var cells []float64
		var ref float64
		for i, rob := range robs {
			r := res[w*len(robs)+i]
			if rob == 64 {
				ref = float64(r.Cycles)
			}
			cells = append(cells, float64(r.Cycles))
		}
		if ref == 0 {
			ref = cells[len(cells)-1]
		}
		for i := range cells {
			cells[i] = ref / cells[i]
		}
		t.AddRow(name, cells...)
	}
	t.Note = "paper: scalar graph kernels insensitive; SIMD stencils need a larger window"
	return t, nil
}

// Fig15 compares affine range generation at SE_core (default) vs sent from
// SE_L3 (Figure 15), on the affine workloads under NS.
func (e *Exp) Fig15(subset []string) (*Table, error) {
	if len(subset) == 0 {
		subset = []string{"pathfinder", "srad", "hotspot", "hotspot3d", "histogram"}
	}
	t := &Table{
		Title: "Figure 15: affine range generation (NS): core-generated vs SE_L3-sent",
		Cols:  []string{"speedup", "traffic ratio"},
		Note:  "paper: core generation saves 15% traffic, +5% performance",
	}
	cCore, cL3 := e.cfg, e.cfg
	cCore.Overrides.AffineRangesAtCore = runner.Bool(true)
	cL3.Overrides.AffineRangesAtCore = runner.Bool(false)
	var jobs []runner.Job
	for _, name := range subset {
		jobs = append(jobs, cCore.Job(name, core.NS), cL3.Job(name, core.NS))
	}
	res, err := e.run(jobs)
	if err != nil {
		return nil, err
	}
	for i, name := range subset {
		atCore, atL3 := res[2*i], res[2*i+1]
		t.AddRow(name,
			float64(atL3.Cycles)/float64(atCore.Cycles),
			float64(atCore.TotalTraffic())/float64(atL3.TotalTraffic()))
	}
	return t, nil
}

// Fig16 compares exclusive and MRSW atomic locking on the atomic
// workloads (Figure 16), reporting MRSW speedup and conflict reduction.
func (e *Exp) Fig16(subset []string) (*Table, error) {
	if len(subset) == 0 {
		subset = []string{"bfs_push", "pr_push", "sssp"}
	}
	t := &Table{
		Title: "Figure 16: MRSW vs exclusive atomic locks (NS)",
		Cols:  []string{"mrsw speedup", "conflict ratio"},
		Note:  "paper: MRSW removes ~97% of bfs_push/sssp contention, 1.29x speedup",
	}
	cEx, cMr := e.cfg, e.cfg
	cEx.Overrides.MRSWLock = runner.Bool(false)
	cMr.Overrides.MRSWLock = runner.Bool(true)
	var jobs []runner.Job
	for _, name := range subset {
		jobs = append(jobs, cEx.Job(name, core.NS), cMr.Job(name, core.NS))
	}
	res, err := e.run(jobs)
	if err != nil {
		return nil, err
	}
	for i, name := range subset {
		ex, mr := res[2*i], res[2*i+1]
		confRatio := 1.0
		if ex.LockConflicts > 0 {
			confRatio = float64(mr.LockConflicts) / float64(ex.LockConflicts)
		}
		t.AddRow(name, float64(ex.Cycles)/float64(mr.Cycles), confRatio)
	}
	return t, nil
}

// Fig17 measures the SE scalar PE's contribution (Figure 17).
func (e *Exp) Fig17(subset []string) (*Table, error) {
	names := wlist(subset)
	t := &Table{
		Title: "Figure 17: scalar PE on/off (NS_decouple speedup with PE)",
		Cols:  []string{"speedup"},
		Note:  "paper: +2.5% overall; indirect/pointer workloads up to 1.1x",
	}
	cOn, cOff := e.cfg, e.cfg
	cOn.Overrides.ScalarPE = runner.Bool(true)
	cOff.Overrides.ScalarPE = runner.Bool(false)
	var jobs []runner.Job
	for _, name := range names {
		jobs = append(jobs, cOn.Job(name, core.NSDecouple), cOff.Job(name, core.NSDecouple))
	}
	res, err := e.run(jobs)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		on, off := res[2*i], res[2*i+1]
		t.AddRow(name, float64(off.Cycles)/float64(on.Cycles))
	}
	return t, nil
}

// TableI renders the approach-capability comparison.
func TableI() *Table {
	t := &Table{
		Title: "Table I: capabilities of sub-thread near-data approaches",
		Cols:  []string{"transparent", "autonomous", "patterns/16", "workloads/14"},
	}
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	for _, a := range offload.AllApproaches() {
		p := offload.PropertiesOf(a)
		t.AddRow(a.String(), b2f(p.Transparent), b2f(p.LoopAutonomous),
			float64(p.PatternsCovered), float64(p.WorkloadsServed))
	}
	return t
}

// TableII renders the address×compute support matrix (2 = full,
// 1 = partial/fine-grain, 0 = none).
func TableII() *Table {
	t := &Table{Title: "Table II: address and compute pattern support (0/1/2 = none/partial/full)"}
	for ap := offload.AddrAffine; ap <= offload.AddrMultiOp; ap++ {
		for cp := offload.CmpLoad; cp <= offload.CmpReduce; cp++ {
			t.Cols = append(t.Cols, fmt.Sprintf("%s/%s", ap, cp))
		}
	}
	for _, a := range offload.AllApproaches() {
		var cells []float64
		for ap := offload.AddrAffine; ap <= offload.AddrMultiOp; ap++ {
			for cp := offload.CmpLoad; cp <= offload.CmpReduce; cp++ {
				cells = append(cells, float64(offload.Supports(a, ap, cp)))
			}
		}
		t.AddRow(a.String(), cells...)
	}
	return t
}

// TableIV demonstrates the stream-configuration encoding: the encoded
// byte size per stream kind.
func TableIV() *Table {
	t := &Table{
		Title: "Table IV: stream configuration encoded sizes (bytes)",
		Cols:  []string{"bytes"},
	}
	mk := func(kind isa.StreamKind) *isa.StreamConfig {
		c := &isa.StreamConfig{ID: isa.StreamID{Core: 1, Sid: 1}, Kind: kind}
		switch kind {
		case isa.KindAffine:
			c.Affine = isa.AffinePattern{Strides: [3]int64{8}, Lens: [3]uint64{64}, Dims: 1, ElemSize: 8}
		case isa.KindIndirect:
			c.Ind = isa.IndirectPattern{ElemSize: 8}
		case isa.KindPointerChase:
			c.Ptr = isa.PointerChasePattern{ElemSize: 8}
		}
		return c
	}
	t.AddRow("affine", float64(isa.EncodedBytes(mk(isa.KindAffine))))
	t.AddRow("indirect", float64(isa.EncodedBytes(mk(isa.KindIndirect))))
	t.AddRow("ptr-chase", float64(isa.EncodedBytes(mk(isa.KindPointerChase))))
	withCmp := mk(isa.KindAffine)
	withCmp.Compute = &isa.ComputeSpec{Type: isa.ComputeReduce, Op: isa.OpAdd, RetSize: 8,
		Args: []isa.ComputeArg{{Kind: isa.ArgSelf, Size: 8}}}
	withCmp.Reduction, withCmp.AssocOnly = true, true
	t.AddRow("affine+reduce", float64(isa.EncodedBytes(withCmp)))
	return t
}

// TableV renders the simulated system's parameters for a configuration —
// the reproduction's counterpart of the paper's Table V.
func TableV(cfg Config) (*Table, error) {
	mc, err := MachineConfig(cfg, true)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: "Table V: system and microarchitecture parameters", Cols: []string{"value"}}
	t.AddRow("mesh width", float64(mc.NoC.Width))
	t.AddRow("mesh height", float64(mc.NoC.Height))
	t.AddRow("core issue width", float64(mc.CoreType.IssueWidth))
	t.AddRow("core ROB", float64(mc.CoreType.ROB))
	t.AddRow("core LQ", float64(mc.CoreType.LQ))
	t.AddRow("core SQ+SB", float64(mc.CoreType.SQ))
	t.AddRow("L1 KB", float64(mc.Cache.L1.SizeBytes)/1024)
	t.AddRow("L1 latency", float64(mc.Cache.L1.Latency))
	t.AddRow("L2 KB", float64(mc.Cache.L2.SizeBytes)/1024)
	t.AddRow("L2 latency", float64(mc.Cache.L2.Latency))
	t.AddRow("L3 bank KB", float64(mc.Cache.L3Bank.SizeBytes)/1024)
	t.AddRow("L3 latency", float64(mc.Cache.L3Bank.Latency))
	t.AddRow("link bytes/cycle", float64(mc.NoC.LinkBytesPerCycle))
	t.AddRow("router stages", float64(mc.NoC.RouterLatency))
	t.AddRow("mem controllers", float64(mc.Mem.Controllers))
	t.AddRow("DRAM latency", float64(mc.Mem.AccessLatency))
	p := core.DefaultParams(mc.NoC.Width * mc.NoC.Height)
	t.AddRow("range window R", float64(p.RangeWindow))
	t.AddRow("credit windows", float64(p.CreditWindows))
	t.AddRow("SCM issue latency", float64(p.SCMIssueLatency))
	t.AddRow("SCC count", float64(p.SCCCount))
	t.AddRow("SCC ROB total", float64(p.SCCROB))
	t.AddRow("SE fifo depth", float64(p.FIFODepth))
	return t, nil
}

// AreaReport renders the §VII-A area estimate.
func AreaReport() *Table {
	t := &Table{Title: "SE area at 22nm (mm^2) and chip overhead (%)", Cols: []string{"value"}}
	for _, e := range energy.AreaTable() {
		t.AddRow(e.Component, e.MM2)
	}
	for _, c := range []string{"IO4", "OOO4", "OOO8"} {
		t.AddRow("overhead% "+c, energy.ChipOverheadPercent(c))
	}
	t.Note = "paper: 2.5% of chip for IO4, 2.1% for OOO8"
	return t
}
