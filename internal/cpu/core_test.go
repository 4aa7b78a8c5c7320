package cpu

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// sliceSource serves a fixed op slice.
type sliceSource struct {
	ops []*MicroOp
	i   int
}

func (s *sliceSource) Next() (*MicroOp, FetchResult) {
	if s.i >= len(s.ops) {
		return nil, FetchDone
	}
	op := s.ops[s.i]
	s.i++
	return op, FetchOp
}

// fixedMem completes every access after a fixed latency from issue.
func fixedMem(e *sim.Engine, lat sim.Time) MemFunc {
	return func(seq uint64, ref MemRef, at sim.Time, done func()) {
		e.ScheduleAt(at+lat, done)
	}
}

func run(t *testing.T, e *sim.Engine, c *Core) sim.Time {
	t.Helper()
	c.Start()
	e.Run()
	if !c.Done() {
		t.Fatal("core did not finish its stream")
	}
	return c.FinishTime()
}

func alu(deps ...uint64) *MicroOp { return &MicroOp{Class: IntAlu, Deps: deps} }

func TestIndependentOpsIssueWide(t *testing.T) {
	e := sim.NewEngine()
	var ops []*MicroOp
	for i := 0; i < 8; i++ {
		ops = append(ops, alu())
	}
	c := NewCore(e, OOO8(), &sliceSource{ops: ops}, nil)
	fin := run(t, e, c)
	// 8 independent ALU ops, 8 units, 8-wide: all complete at cycle 1.
	if fin != 1 {
		t.Fatalf("finish = %d, want 1", fin)
	}
	if c.OpsRetired != 8 {
		t.Fatalf("retired = %d", c.OpsRetired)
	}
}

func TestDependentChainSerializes(t *testing.T) {
	e := sim.NewEngine()
	var ops []*MicroOp
	for i := 0; i < 10; i++ {
		if i == 0 {
			ops = append(ops, alu())
		} else {
			ops = append(ops, alu(uint64(i-1)))
		}
	}
	c := NewCore(e, OOO8(), &sliceSource{ops: ops}, nil)
	fin := run(t, e, c)
	if fin != 10 {
		t.Fatalf("10-deep ALU chain finished at %d, want 10", fin)
	}
}

func TestIssueWidthLimits(t *testing.T) {
	e := sim.NewEngine()
	var ops []*MicroOp
	for i := 0; i < 16; i++ {
		ops = append(ops, alu())
	}
	cfg := OOO4() // 4-wide, 4 int ALUs
	c := NewCore(e, cfg, &sliceSource{ops: ops}, nil)
	fin := run(t, e, c)
	// 16 ops at 4/cycle: issue cycles 0..3, completion 1..4.
	if fin != 4 {
		t.Fatalf("finish = %d, want 4", fin)
	}
}

func TestDivUnpipelined(t *testing.T) {
	e := sim.NewEngine()
	ops := []*MicroOp{
		{Class: IntDiv}, {Class: IntDiv}, {Class: IntDiv}, {Class: IntDiv},
	}
	cfg := OOO4() // 2 int mult/div units
	c := NewCore(e, cfg, &sliceSource{ops: ops}, nil)
	fin := run(t, e, c)
	// 4 divs on 2 unpipelined units, 12 cycles each: two rounds → ≥24.
	if fin < 24 {
		t.Fatalf("finish = %d, want >= 24 (unpipelined divide)", fin)
	}
}

func TestMemOpLatency(t *testing.T) {
	e := sim.NewEngine()
	ops := []*MicroOp{
		{Class: Load, Mem: &MemRef{Addr: 0x100}},
		alu(0), // uses the load
	}
	c := NewCore(e, OOO8(), &sliceSource{ops: ops}, fixedMem(e, 50))
	fin := run(t, e, c)
	if fin < 50 {
		t.Fatalf("finish = %d; dependent op did not wait for the load", fin)
	}
}

func TestMLPOverlapsLoads(t *testing.T) {
	// Independent loads must overlap (bounded by LQ), not serialize.
	e := sim.NewEngine()
	var ops []*MicroOp
	for i := 0; i < 8; i++ {
		ops = append(ops, &MicroOp{Class: Load, Mem: &MemRef{Addr: uint64(i) * 64}})
	}
	c := NewCore(e, OOO8(), &sliceSource{ops: ops}, fixedMem(e, 100))
	fin := run(t, e, c)
	if fin > 110 {
		t.Fatalf("finish = %d; independent loads serialized", fin)
	}
}

func TestLQBoundsMLP(t *testing.T) {
	// With LQ=2, 6 loads of 100 cycles take >= 300 cycles.
	e := sim.NewEngine()
	var ops []*MicroOp
	for i := 0; i < 6; i++ {
		ops = append(ops, &MicroOp{Class: Load, Mem: &MemRef{Addr: uint64(i) * 64}})
	}
	cfg := defaults(Config{Name: "tiny", IssueWidth: 4, ROB: 64, IQ: 16, LQ: 2, SQ: 16})
	c := NewCore(e, cfg, &sliceSource{ops: ops}, fixedMem(e, 100))
	fin := run(t, e, c)
	if fin < 300 {
		t.Fatalf("finish = %d; LQ=2 should bound MLP to 2", fin)
	}
}

func TestROBBoundsWindow(t *testing.T) {
	// A long-latency load at the head plus many ALU ops: a 4-entry ROB
	// cannot run far ahead, an OOO8-sized one can.
	mkOps := func() []*MicroOp {
		ops := []*MicroOp{{Class: Load, Mem: &MemRef{Addr: 0}}}
		for i := 0; i < 64; i++ {
			ops = append(ops, alu())
		}
		// Final op depends on the load so both cores wait for it.
		ops = append(ops, alu(0))
		return ops
	}
	small := defaults(Config{Name: "small", IssueWidth: 4, ROB: 4, IQ: 4, LQ: 4, SQ: 4})
	e1 := sim.NewEngine()
	c1 := NewCore(e1, small, &sliceSource{ops: mkOps()}, fixedMem(e1, 200))
	fin1 := run(t, e1, c1)
	e2 := sim.NewEngine()
	c2 := NewCore(e2, OOO8(), &sliceSource{ops: mkOps()}, fixedMem(e2, 200))
	fin2 := run(t, e2, c2)
	if fin1 <= fin2 {
		t.Fatalf("small ROB (%d) not slower than large (%d)", fin1, fin2)
	}
}

func TestInOrderStallsOnUse(t *testing.T) {
	// In-order: an op issued after a dependent stall delays later
	// independent ops too.
	mkOps := func() []*MicroOp {
		return []*MicroOp{
			{Class: Load, Mem: &MemRef{Addr: 0}},
			alu(0), // dependent: stalls
			alu(),  // independent, but in-order must wait
		}
	}
	eIO := sim.NewEngine()
	cIO := NewCore(eIO, IO4(), &sliceSource{ops: mkOps()}, fixedMem(eIO, 100))
	finIO := run(t, eIO, cIO)
	eOOO := sim.NewEngine()
	cOOO := NewCore(eOOO, OOO8(), &sliceSource{ops: mkOps()}, fixedMem(eOOO, 100))
	finOOO := run(t, eOOO, cOOO)
	if finIO < 100 {
		t.Fatalf("in-order finish = %d, want >= load latency", finIO)
	}
	_ = finOOO // both wait for the chain; the property below matters:
	// The independent op's issue ordering: re-run with OnIssue probes.
	var issueIndep sim.Time
	ops := mkOps()
	ops[2].OnIssue = func(at sim.Time) { issueIndep = at }
	e := sim.NewEngine()
	c := NewCore(e, IO4(), &sliceSource{ops: ops}, fixedMem(e, 100))
	run(t, e, c)
	if issueIndep < 100 {
		t.Fatalf("in-order core issued past a stalled op at %d", issueIndep)
	}
}

func TestOOOHidesStallForIndependents(t *testing.T) {
	ops := []*MicroOp{
		{Class: Load, Mem: &MemRef{Addr: 0}},
		alu(0),
		alu(),
	}
	var issueIndep sim.Time
	ops[2].OnIssue = func(at sim.Time) { issueIndep = at }
	e := sim.NewEngine()
	c := NewCore(e, OOO8(), &sliceSource{ops: ops}, fixedMem(e, 100))
	run(t, e, c)
	if issueIndep >= 100 {
		t.Fatalf("OOO core serialized an independent op (issued %d)", issueIndep)
	}
}

func TestStoreRetiresEarly(t *testing.T) {
	// A store completes into the SB quickly; a dependent ALU op does not
	// wait for the memory ack.
	e := sim.NewEngine()
	var fin sim.Time
	ops := []*MicroOp{
		{Class: Store, Mem: &MemRef{Addr: 0, Write: true}},
		{Class: IntAlu, OnRetire: func(at sim.Time) { fin = at }},
	}
	c := NewCore(e, OOO8(), &sliceSource{ops: ops}, fixedMem(e, 500))
	run(t, e, c)
	if fin >= 500 {
		t.Fatalf("store blocked retirement until memory ack (%d)", fin)
	}
}

func TestOnRetireInOrder(t *testing.T) {
	e := sim.NewEngine()
	var order []int
	mk := func(i int, class OpClass, deps ...uint64) *MicroOp {
		op := &MicroOp{Class: class, Deps: deps, OnRetire: func(sim.Time) { order = append(order, i) }}
		if class.IsMem() {
			op.Mem = &MemRef{Addr: uint64(i) * 64}
		}
		return op
	}
	ops := []*MicroOp{mk(0, Load), mk(1, IntAlu), mk(2, IntAlu, 0)}
	c := NewCore(e, OOO8(), &sliceSource{ops: ops}, fixedMem(e, 100))
	run(t, e, c)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("retirement order = %v, want program order", order)
	}
}

func TestStallAndWake(t *testing.T) {
	e := sim.NewEngine()
	stallOnce := true
	src := &funcSource{fn: func() (*MicroOp, FetchResult) { return nil, FetchDone }}
	var c *Core
	n := 0
	src.fn = func() (*MicroOp, FetchResult) {
		if n < 3 {
			n++
			return alu(), FetchOp
		}
		if stallOnce {
			stallOnce = false
			e.Schedule(50, func() { c.Wake() })
			return nil, FetchStall
		}
		if n < 6 {
			n++
			return alu(), FetchOp
		}
		return nil, FetchDone
	}
	c = NewCore(e, OOO4(), src, nil)
	fin := run(t, e, c)
	if c.OpsRetired != 6 {
		t.Fatalf("retired = %d, want 6", c.OpsRetired)
	}
	if fin < 50 {
		t.Fatalf("finish = %d; wake delay not respected", fin)
	}
}

type funcSource struct {
	fn func() (*MicroOp, FetchResult)
}

func (f *funcSource) Next() (*MicroOp, FetchResult) { return f.fn() }

func TestAtomicUsesBothQueues(t *testing.T) {
	e := sim.NewEngine()
	ops := []*MicroOp{
		{Class: Atomic, Mem: &MemRef{Addr: 0, Write: true}},
		alu(0),
	}
	c := NewCore(e, OOO8(), &sliceSource{ops: ops}, fixedMem(e, 80))
	fin := run(t, e, c)
	if fin < 80 {
		t.Fatalf("dependent op did not wait for atomic (%d)", fin)
	}
	if c.MemOps != 1 {
		t.Fatalf("mem ops = %d", c.MemOps)
	}
}

func TestDependenceOnFuturePanics(t *testing.T) {
	e := sim.NewEngine()
	ops := []*MicroOp{alu(5)}
	c := NewCore(e, OOO8(), &sliceSource{ops: ops}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("future dependence should panic")
		}
	}()
	c.Start()
	e.Run()
}

func TestPresetConfigs(t *testing.T) {
	for _, cfg := range []Config{IO4(), OOO4(), OOO8(), SCC(32)} {
		if cfg.IssueWidth <= 0 || cfg.ROB <= 0 {
			t.Fatalf("%s: bad preset", cfg.Name)
		}
		for c := OpClass(0); c < numOpClasses; c++ {
			if !c.IsMem() && cfg.Latency[c] == 0 {
				t.Fatalf("%s: class %v has zero latency", cfg.Name, c)
			}
		}
	}
	if !IO4().InOrder || OOO8().InOrder {
		t.Fatal("ordering flags wrong")
	}
	if OOO8().ROB != 224 || OOO4().ROB != 96 {
		t.Fatal("Table V ROB sizes wrong")
	}
}

func TestLongStreamManyOps(t *testing.T) {
	// Throughput sanity over a long mixed stream.
	e := sim.NewEngine()
	r := sim.NewRand(11)
	var ops []*MicroOp
	for i := 0; i < 5000; i++ {
		switch r.Intn(4) {
		case 0:
			ops = append(ops, &MicroOp{Class: Load, Mem: &MemRef{Addr: uint64(r.Intn(1 << 16))}})
		case 1:
			if i > 0 {
				ops = append(ops, alu(uint64(i-1)))
			} else {
				ops = append(ops, alu())
			}
		default:
			ops = append(ops, alu())
		}
	}
	c := NewCore(e, OOO8(), &sliceSource{ops: ops}, fixedMem(e, 20))
	run(t, e, c)
	if c.OpsRetired != 5000 {
		t.Fatalf("retired = %d", c.OpsRetired)
	}
}

// refCore is the core model as it was before the issue queue became
// wakeup-driven: parked ops sit in a seq-ordered slice that every drain
// rescans to fixpoint. It is kept here, test-only, as the oracle the
// wakeup-driven Core must match cycle for cycle. Only what the
// differential test drives is kept (no attribution, idle callback or op
// recycling).
type refCore struct {
	cfg    Config
	engine *sim.Engine
	source OpSource
	mem    MemFunc

	robMask    uint64
	rob        []refEntry
	fetched    uint64
	retired    uint64
	lastRetire sim.Time
	doneTimes  []sim.Time

	waiting []refWait

	issueCycle sim.Time
	issueUsed  int
	lastIssue  sim.Time

	fu [numFUKinds][]sim.Time

	loadRing  []sim.Time
	loadIdx   int
	storeRing []sim.Time
	storeIdx  int

	fetchDone bool
	stalled   bool
	ticker    *sim.Recurring
	retryOp   *MicroOp
}

type refEntry struct {
	seq      uint64
	complete sim.Time
	resolved bool
	onRetire func(at sim.Time)
}

type refWait struct {
	op        *MicroOp
	seq       uint64
	loadSlot  int
	storeSlot int
}

func newRefCore(engine *sim.Engine, cfg Config, source OpSource, mem MemFunc) *refCore {
	ring := 1
	for ring < cfg.ROB {
		ring <<= 1
	}
	c := &refCore{
		cfg: cfg, engine: engine, source: source, mem: mem,
		robMask:   uint64(ring - 1),
		rob:       make([]refEntry, ring),
		doneTimes: make([]sim.Time, ring),
		loadRing:  make([]sim.Time, max(cfg.LQ, 1)),
		storeRing: make([]sim.Time, max(cfg.SQ, 1)),
	}
	for k := range c.fu {
		c.fu[k] = make([]sim.Time, cfg.FUCount[k])
	}
	c.ticker = engine.NewRecurring(1, c.pump)
	return c
}

func (c *refCore) Done() bool { return c.fetchDone && c.retired == c.fetched }

func (c *refCore) completionOf(seq uint64) (sim.Time, bool) {
	if seq >= c.fetched {
		panic(fmt.Sprintf("cpu: dependence on future op %d (fetched %d)", seq, c.fetched))
	}
	if seq < c.retired {
		if c.retired-seq <= uint64(c.cfg.ROB) {
			return c.doneTimes[seq&c.robMask], true
		}
		return 0, true
	}
	e := &c.rob[seq&c.robMask]
	if !e.resolved {
		return 0, false
	}
	return e.complete, true
}

func (c *refCore) tryRetire() {
	for c.retired < c.fetched {
		e := &c.rob[c.retired&c.robMask]
		if !e.resolved {
			return
		}
		if e.complete > c.lastRetire {
			c.lastRetire = e.complete
		}
		c.doneTimes[c.retired&c.robMask] = e.complete
		if e.onRetire != nil {
			fn, at := e.onRetire, c.lastRetire
			e.onRetire = nil
			fn(at)
		}
		c.retired++
	}
}

func (c *refCore) pump() bool {
	c.drainWaiting()
	c.tryRetire()
	for n := 0; n < maxPumpOps; n++ {
		if c.fetched-c.retired >= uint64(c.cfg.ROB) {
			if c.rob[c.retired&c.robMask].resolved {
				c.tryRetire()
				continue
			}
			return false
		}
		op := c.retryOp
		if op != nil {
			c.retryOp = nil
		} else {
			var res FetchResult
			op, res = c.source.Next()
			switch res {
			case FetchStall:
				c.stalled = true
				return false
			case FetchDone:
				c.fetchDone = true
				c.tryRetire()
				return false
			}
		}
		if !c.dispatch(op) {
			c.retryOp = op
			return false
		}
	}
	return true
}

func (c *refCore) dispatch(op *MicroOp) bool {
	isLoad := op.Class == Load || op.Class == Atomic
	isStore := op.Class == Store || op.Class == Atomic
	loadSlot, storeSlot := -1, -1
	ready := c.engine.Now()
	if isLoad {
		if c.loadRing[c.loadIdx] == sim.MaxTime {
			return false
		}
		if t := c.loadRing[c.loadIdx]; t > ready {
			ready = t
		}
	}
	if isStore {
		if c.storeRing[c.storeIdx] == sim.MaxTime {
			return false
		}
		if t := c.storeRing[c.storeIdx]; t > ready {
			ready = t
		}
	}
	unresolved := false
	for _, d := range op.Deps {
		t, ok := c.completionOf(d)
		if !ok {
			unresolved = true
			continue
		}
		if t > ready {
			ready = t
		}
	}
	if unresolved {
		if c.cfg.InOrder {
			return false
		}
		if len(c.waiting) >= c.cfg.IQ {
			return false
		}
	}
	if isLoad {
		loadSlot = c.loadIdx
		c.loadRing[loadSlot] = sim.MaxTime
		c.loadIdx = (c.loadIdx + 1) % len(c.loadRing)
	}
	if isStore {
		storeSlot = c.storeIdx
		c.storeRing[storeSlot] = sim.MaxTime
		c.storeIdx = (c.storeIdx + 1) % len(c.storeRing)
	}
	seq := c.fetched
	c.fetched++
	c.rob[seq&c.robMask] = refEntry{seq: seq, onRetire: op.OnRetire}
	if unresolved {
		c.waiting = append(c.waiting, refWait{op: op, seq: seq, loadSlot: loadSlot, storeSlot: storeSlot})
		return true
	}
	c.issueOp(op, seq, ready, loadSlot, storeSlot)
	return true
}

// drainWaiting is the reference rescan: every parked op is re-checked
// in seq order, to fixpoint.
func (c *refCore) drainWaiting() {
	for {
		progressed := false
		remaining := c.waiting[:0]
		for _, w := range c.waiting {
			ready := c.engine.Now()
			ok := true
			for _, d := range w.op.Deps {
				t, resolved := c.completionOf(d)
				if !resolved {
					ok = false
					break
				}
				if t > ready {
					ready = t
				}
			}
			if !ok {
				remaining = append(remaining, w)
				continue
			}
			c.issueOp(w.op, w.seq, ready, w.loadSlot, w.storeSlot)
			progressed = true
		}
		c.waiting = remaining
		if !progressed {
			return
		}
	}
}

func (c *refCore) issueOp(op *MicroOp, seq uint64, ready sim.Time, loadSlot, storeSlot int) {
	if c.cfg.InOrder && c.lastIssue > ready {
		ready = c.lastIssue
	}
	issue := ready
	if issue < c.issueCycle {
		issue = c.issueCycle
	}
	if issue == c.issueCycle && c.issueUsed >= c.cfg.IssueWidth {
		issue++
	}
	units := c.fu[fuFor(op.Class)]
	best := 0
	for i := 1; i < len(units); i++ {
		if units[i] < units[best] {
			best = i
		}
	}
	if units[best] > issue {
		issue = units[best]
	}
	if issue != c.issueCycle {
		c.issueCycle = issue
		c.issueUsed = 0
	}
	c.issueUsed++
	occupancy := sim.Time(1)
	if op.Class == IntDiv || op.Class == FPDiv {
		occupancy = c.cfg.Latency[op.Class]
	}
	units[best] = issue + occupancy
	c.lastIssue = issue

	if op.OnIssue != nil {
		op.OnIssue(issue)
	}

	e := &c.rob[seq&c.robMask]
	if op.Class.IsMem() && op.Mem != nil {
		extra := op.ExtraLatency
		c.mem(seq, *op.Mem, issue, func() {
			c.resolveMem(seq, c.engine.Now()+extra, loadSlot, storeSlot)
		})
		if op.Class == Store {
			e.resolved = true
			e.complete = issue + c.cfg.Latency[Store] + op.ExtraLatency
		}
	} else {
		lat := c.cfg.Latency[op.Class] + op.ExtraLatency
		if op.Class.IsMem() {
			lat = c.cfg.Latency[IntAlu] + op.ExtraLatency
		}
		e.resolved = true
		e.complete = issue + lat
		if loadSlot >= 0 {
			c.loadRing[loadSlot] = e.complete
		}
		if storeSlot >= 0 {
			c.storeRing[storeSlot] = e.complete
		}
	}
	c.tryRetire()
}

func (c *refCore) resolveMem(seq uint64, at sim.Time, loadSlot, storeSlot int) {
	if c.fetched > seq && c.fetched-seq <= uint64(c.cfg.ROB) {
		e := &c.rob[seq&c.robMask]
		if e.seq == seq && !e.resolved {
			e.resolved = true
			e.complete = at
		}
	}
	if loadSlot >= 0 {
		c.loadRing[loadSlot] = at
	}
	if storeSlot >= 0 {
		c.storeRing[storeSlot] = at
	}
	c.drainWaiting()
	c.tryRetire()
	if !c.Done() {
		c.ticker.Wake()
	}
}

// opTimes is one op's observed schedule.
type opTimes struct{ issue, complete, retire sim.Time }

// randomProgram builds n ops over a random dependency graph: mostly
// near dependences (so ops park behind in-flight loads), some far ones
// (older than the window, hence ready), every class including unpipelined
// divides, mem-class ops without a MemRef, and random extra latencies.
// Each call with the same seed returns an identical, fresh op slice.
func randomProgram(seed uint64, n int) []*MicroOp {
	r := sim.NewRand(seed)
	classes := []OpClass{IntAlu, IntAlu, IntAlu, IntMult, FPAlu, SIMD, IntDiv, FPDiv,
		Load, Load, Load, Load, Store, Store, Atomic}
	ops := make([]*MicroOp, n)
	for i := range ops {
		op := &MicroOp{Class: classes[r.Intn(len(classes))]}
		for k := r.Intn(4); k > 0 && i > 0; k-- {
			back := 1 + r.Intn(8)
			if r.Intn(6) == 0 {
				back = 1 + r.Intn(400)
			}
			if back > i {
				back = i
			}
			op.Deps = append(op.Deps, uint64(i-back))
		}
		if op.Class.IsMem() && r.Intn(10) != 0 {
			op.Mem = &MemRef{Addr: uint64(r.Intn(1 << 20)), Write: op.Class != Load}
		}
		if r.Intn(8) == 0 {
			op.ExtraLatency = sim.Time(1 + r.Intn(3))
		}
		ops[i] = op
	}
	return ops
}

// randomLatencyMem completes the access of op seq after a latency drawn
// from the seq alone, so both cores see the same memory.
func randomLatencyMem(e *sim.Engine, seed uint64) MemFunc {
	return func(seq uint64, ref MemRef, at sim.Time, done func()) {
		h := (seq + 1) * (seed | 1) * 0x9e3779b97f4a7c15
		lat := sim.Time(1 + (h>>33)%240)
		e.ScheduleAt(at+lat, done)
	}
}

// observe hooks every op of prog to record its issue and retire times and
// its completion time (the retired-completion shadow at retirement).
func observe(prog []*MicroOp, doneOf func(seq uint64) sim.Time) []opTimes {
	times := make([]opTimes, len(prog))
	for i, op := range prog {
		i := i
		op.OnIssue = func(at sim.Time) { times[i].issue = at }
		op.OnRetire = func(at sim.Time) {
			times[i].retire = at
			times[i].complete = doneOf(uint64(i))
		}
	}
	return times
}

// TestIssueQueueMatchesRescanOracle is the differential check of the
// wakeup-driven issue queue: on random dependency graphs with random
// memory latencies, every op issues, completes and retires at exactly
// the cycle the rescanning reference core gives it.
func TestIssueQueueMatchesRescanOracle(t *testing.T) {
	tiny := defaults(Config{Name: "tiny", IssueWidth: 2, ROB: 16, IQ: 4, LQ: 3, SQ: 3})
	for _, cfg := range []Config{OOO4(), OOO8(), IO4(), tiny} {
		for seed := uint64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.Name, seed), func(t *testing.T) {
				const n = 4000
				eRef := sim.NewEngine()
				progRef := randomProgram(seed, n)
				ref := newRefCore(eRef, cfg, &sliceSource{ops: progRef}, randomLatencyMem(eRef, seed))
				want := observe(progRef, func(s uint64) sim.Time { return ref.doneTimes[s&ref.robMask] })
				ref.ticker.Wake()
				eRef.Run()
				if !ref.Done() {
					t.Fatal("reference core did not finish")
				}

				e := sim.NewEngine()
				prog := randomProgram(seed, n)
				c := NewCore(e, cfg, &sliceSource{ops: prog}, randomLatencyMem(e, seed))
				got := observe(prog, func(s uint64) sim.Time { return c.doneTimes[s&c.robMask] })
				fin := run(t, e, c)

				if fin != ref.lastRetire {
					t.Errorf("finish %d, reference %d", fin, ref.lastRetire)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("op %d (%v): issue/complete/retire %v, reference %v",
							i, prog[i].Class, got[i], want[i])
					}
				}
			})
		}
	}
}
