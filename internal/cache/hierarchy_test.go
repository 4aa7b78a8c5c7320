package cache

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
)

// testMachine builds a small 4-tile hierarchy with tiny caches so tests can
// force evictions cheaply.
func testMachine() (*sim.Engine, *Hierarchy) { return testMesh(2, 2) }

// testMesh builds a width x height hierarchy with testMachine's caches.
func testMesh(width, height int) (*sim.Engine, *Hierarchy) {
	e := sim.NewEngine()
	ncfg := noc.DefaultConfig()
	ncfg.Width, ncfg.Height = width, height
	net := noc.New(e, ncfg)
	dram := mem.New(e, mem.DefaultConfig())
	cfg := Config{
		L1:     ArrayConfig{SizeBytes: 1 << 10, Ways: 2, Policy: LRU, Latency: 2},
		L2:     ArrayConfig{SizeBytes: 4 << 10, Ways: 4, Policy: LRU, Latency: 16},
		L3Bank: ArrayConfig{SizeBytes: 16 << 10, Ways: 4, Policy: LRU, Latency: 20},
	}
	return e, New(e, net, dram, cfg)
}

// counter reads one counter of the hierarchy's registry.
func counter(h *Hierarchy, name string) uint64 { return h.Registry().Get(name) }

// access runs one blocking access and returns the serving level and elapsed
// cycles.
func access(e *sim.Engine, h *Hierarchy, tile int, addr uint64, write bool) (Level, sim.Time) {
	start := e.Now()
	var lv Level
	done := false
	h.Tile(tile).Access(addr, write, 0, func(l Level) { lv = l; done = true })
	e.Run()
	if !done {
		panic("access never completed")
	}
	return lv, e.Now() - start
}

func TestColdMissGoesToMemory(t *testing.T) {
	e, h := testMachine()
	lv, lat := access(e, h, 0, 0x1000, false)
	if lv != ServedMem {
		t.Fatalf("cold miss served at %v, want Mem", lv)
	}
	if lat < 100 {
		t.Fatalf("cold miss latency %d too small for DRAM", lat)
	}
}

func TestL1HitAfterFill(t *testing.T) {
	e, h := testMachine()
	access(e, h, 0, 0x1000, false)
	lv, lat := access(e, h, 0, 0x1000, false)
	if lv != ServedL1 {
		t.Fatalf("second access served at %v, want L1", lv)
	}
	if lat != h.Config().L1.Latency {
		t.Fatalf("L1 hit latency %d, want %d", lat, h.Config().L1.Latency)
	}
}

func TestSecondTileHitsL3(t *testing.T) {
	e, h := testMachine()
	access(e, h, 0, 0x1000, false)
	lv, _ := access(e, h, 1, 0x1000, false)
	if lv != ServedL3 {
		t.Fatalf("sharer fill served at %v, want L3", lv)
	}
}

func TestExclusiveGrantOnSoleReader(t *testing.T) {
	e, h := testMachine()
	access(e, h, 0, 0x1000, false)
	l := h.Tile(0).L1().Peek(0x1000)
	if l == nil || l.State != Exclusive {
		t.Fatalf("sole reader got %v, want E", l)
	}
	// Silent E->M upgrade on write, no extra coherence traffic.
	before := counter(h, "l3.invalidations")
	lv, _ := access(e, h, 0, 0x1000, true)
	if lv != ServedL1 {
		t.Fatalf("write to E line served at %v, want L1", lv)
	}
	if counter(h, "l3.invalidations") != before {
		t.Fatal("E->M upgrade generated invalidations")
	}
}

func TestSharedGrantWithTwoReaders(t *testing.T) {
	e, h := testMachine()
	access(e, h, 0, 0x1000, false)
	access(e, h, 1, 0x1000, false)
	if l := h.Tile(1).L1().Peek(0x1000); l == nil || l.State != Shared {
		t.Fatalf("second reader got %v, want S", l)
	}
	// The first reader's E copy must have been downgraded.
	if l := h.Tile(0).L1().Peek(0x1000); l != nil && (l.State == Exclusive || l.State == Modified) {
		t.Fatalf("first reader still %v after second read", l.State)
	}
}

// TestWriteInvalidatesSharers reads a line from two tiles (the first gets
// E, the second's read downgrades it, leaving both sharers) and writes it
// from a third. On the 16x16 mesh the second reader, tile 100, is past the
// 64-bit sharer vector and must still lose its copy.
func TestWriteInvalidatesSharers(t *testing.T) {
	for _, c := range []struct {
		name          string
		width, height int
		readers       [2]int
		writer        int
	}{
		{"2x2", 2, 2, [2]int{0, 1}, 2},
		{"16x16", 16, 16, [2]int{0, 100}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, h := testMesh(c.width, c.height)
			for _, r := range c.readers {
				access(e, h, r, 0x1000, false)
			}
			access(e, h, c.writer, 0x1000, true)
			for _, r := range c.readers {
				if h.Tile(r).HasLine(0x1000) {
					t.Fatalf("sharer tile %d not invalidated by tile %d's write", r, c.writer)
				}
			}
			if l := h.Tile(c.writer).L1().Peek(0x1000); l == nil || l.State != Modified {
				t.Fatalf("writer got %v, want M", l)
			}
		})
	}
}

func TestDirtyDataMigratesBetweenWriters(t *testing.T) {
	e, h := testMachine()
	access(e, h, 0, 0x1000, true)
	access(e, h, 1, 0x1000, true)
	if h.Tile(0).HasLine(0x1000) {
		t.Fatal("previous writer retained the line")
	}
	if l := h.Tile(1).L1().Peek(0x1000); l == nil || l.State != Modified {
		t.Fatalf("new writer got %v, want M", l)
	}
}

func TestReadAfterRemoteWriteDowngrades(t *testing.T) {
	e, h := testMachine()
	access(e, h, 0, 0x1000, true)
	lv, _ := access(e, h, 1, 0x1000, false)
	if lv != ServedL3 {
		t.Fatalf("read after remote write served at %v", lv)
	}
	if l := h.Tile(0).L1().Peek(0x1000); l != nil && l.State != Shared {
		t.Fatalf("old writer in %v, want S or evicted", l.State)
	}
	// The bank must now hold the dirty data.
	bank := h.Bank(h.HomeBank(0x1000))
	if bl := bank.Probe(0x1000); bl == nil || !bl.Dirty {
		t.Fatal("dirty data not captured at the bank")
	}
}

func TestUpgradeFromShared(t *testing.T) {
	e, h := testMachine()
	access(e, h, 0, 0x1000, false)
	access(e, h, 1, 0x1000, false) // both S now
	lv, _ := access(e, h, 0, 0x1000, true)
	_ = lv
	if l := h.Tile(0).L1().Peek(0x1000); l == nil || l.State != Modified {
		t.Fatalf("upgrader got %v, want M", l)
	}
	if h.Tile(1).HasLine(0x1000) {
		t.Fatal("other sharer survived the upgrade")
	}
	if counter(h, "l2.upgrades") == 0 {
		t.Fatal("upgrade path not taken")
	}
}

func TestStreamReadRecallsDirtyCopy(t *testing.T) {
	e, h := testMachine()
	access(e, h, 0, 0x1000, true) // tile 0 has it M
	bank := h.Bank(h.HomeBank(0x1000))
	done := false
	bank.StreamRead(h.LineAddr(0x1000), func(fromMem bool) { done = true })
	e.Run()
	if !done {
		t.Fatal("stream read never completed")
	}
	if bl := bank.Probe(0x1000); bl == nil || !bl.Dirty {
		t.Fatal("stream read did not pull dirty data into L3")
	}
	if l := h.Tile(0).L1().Peek(0x1000); l != nil && l.State == Modified {
		t.Fatal("owner still M after stream read")
	}
}

func TestStreamWriteInvalidatesAll(t *testing.T) {
	e, h := testMachine()
	access(e, h, 0, 0x1000, false)
	access(e, h, 1, 0x1000, false)
	bank := h.Bank(h.HomeBank(0x1000))
	done := false
	bank.StreamWrite(h.LineAddr(0x1000), func(fromMem bool) { done = true })
	e.Run()
	if !done {
		t.Fatal("stream write never completed")
	}
	if h.Tile(0).HasLine(0x1000) || h.Tile(1).HasLine(0x1000) {
		t.Fatal("stream write left private copies")
	}
	if bl := bank.Probe(0x1000); bl == nil || !bl.Dirty {
		t.Fatal("stream write did not dirty the L3 line")
	}
}

func TestStreamReadDowngradesCleanExclusive(t *testing.T) {
	e, h := testMachine()
	const addr = 0x1000 // homed at bank 0, one hop from tile 1
	access(e, h, 1, addr, false)
	if l := h.Tile(1).L2().Peek(addr); l == nil || l.State != Exclusive || l.Dirty {
		t.Fatalf("sole reader holds %v, want clean E", l)
	}
	reg := h.net.Registry()
	dataBefore := reg.Get("noc.bytehops.data")
	ctrlBefore := reg.Get("noc.bytehops.control")
	bank := h.Bank(h.HomeBank(addr))
	done := false
	bank.StreamRead(addr, func(bool) { done = true })
	e.Run()
	if !done {
		t.Fatal("stream read never completed")
	}
	if counter(h, "l3.downgrades") != 1 {
		t.Fatalf("l3.downgrades = %d, want 1", counter(h, "l3.downgrades"))
	}
	if l := h.Tile(1).L2().Peek(addr); l == nil || l.State != Shared {
		t.Fatalf("previous owner holds %v, want S", l)
	}
	// The downgrade and its ack are both control-size: a clean copy
	// returns no data.
	if got := reg.Get("noc.bytehops.data"); got != dataBefore {
		t.Fatalf("clean downgrade moved data: bytehops.data %d -> %d", dataBefore, got)
	}
	hops := uint64(h.net.HopCount(bank.ID(), 1))
	want := 2 * uint64(CtrlBytes+h.net.Config().HeaderBytes) * hops
	if got := reg.Get("noc.bytehops.control") - ctrlBefore; got != want {
		t.Fatalf("downgrade round trip charged %d control byte-hops, want %d", got, want)
	}
	if bl := bank.Probe(addr); bl == nil || bl.Dirty {
		t.Fatal("clean downgrade left the L3 line missing or dirty")
	}
}

// l3Conflicts returns n line addresses homed at addr's bank that share
// its L3 set in testMachine's geometry (4 banks, 64 sets of 4 ways), so
// reading four of them evicts addr from the L3.
func l3Conflicts(addr uint64, n int) []uint64 {
	const stride = LineBytes * 4 * 64 // banks × sets
	var out []uint64
	for i := 1; i <= n; i++ {
		out = append(out, addr+uint64(i)*stride)
	}
	return out
}

func TestL3VictimRecallsPrivateCopies(t *testing.T) {
	e, h := testMachine()
	const addr = 0x1000
	access(e, h, 0, addr, false)
	for _, a := range l3Conflicts(addr, 4) {
		access(e, h, 1, a, false)
	}
	if h.Bank(h.HomeBank(addr)).Probe(addr) != nil {
		t.Fatal("line not evicted from the L3")
	}
	if counter(h, "l3.recalls") != 1 {
		t.Fatalf("l3.recalls = %d, want 1", counter(h, "l3.recalls"))
	}
	if h.Tile(0).HasLine(addr) {
		t.Fatal("inclusive L3 eviction left a private copy")
	}
	if counter(h, "l3.writebacks") != 0 {
		t.Fatal("clean L3 victim written back")
	}
}

func TestDirtyL3VictimWritesBack(t *testing.T) {
	e, h := testMachine()
	const addr = 0x1000
	access(e, h, 0, addr, true)
	access(e, h, 1, addr, false) // downgrade: the dirty data moves to the L3
	bank := h.Bank(h.HomeBank(addr))
	if bl := bank.Probe(addr); bl == nil || !bl.Dirty {
		t.Fatal("setup: L3 line not dirty")
	}
	writesBefore := h.dram.Registry().Get("dram.writes")
	for _, a := range l3Conflicts(addr, 4) {
		access(e, h, 2, a, false)
	}
	if bank.Probe(addr) != nil {
		t.Fatal("line not evicted from the L3")
	}
	if counter(h, "l3.writebacks") != 1 {
		t.Fatalf("l3.writebacks = %d, want 1", counter(h, "l3.writebacks"))
	}
	if got := h.dram.Registry().Get("dram.writes") - writesBefore; got != 1 {
		t.Fatalf("dram.writes grew by %d, want 1", got)
	}
	if h.Tile(0).HasLine(addr) || h.Tile(1).HasLine(addr) {
		t.Fatal("inclusive L3 eviction left a sharer's copy")
	}
}

// TestLineEvictedDuringDowngrade races an L3 eviction against an owner
// downgrade: tile 3 owns the line dirty, tile 2's misses fill the line's
// L3 set, and a read started at a swept offset finds the owner and waits
// on its ack while the fourth fill evicts the line. A GetS then refetches
// the line before granting it; a stream read completes without it.
func TestLineEvictedDuringDowngrade(t *testing.T) {
	const addr = 0x1000
	// stage runs one race with the read starting start cycles after the
	// conflicting misses; lost reports whether the line left the L3 while
	// the read waited on its owner's ack: a sixth L3 miss (tile 3's fill,
	// the four conflict fills, a refetch), or no line when a stream read
	// completes.
	stage := func(start sim.Time, stream bool) (h *Hierarchy, lost bool) {
		e, h := testMachine()
		access(e, h, 3, addr, true)
		for _, a := range l3Conflicts(addr, 4) {
			h.Tile(2).Access(a, false, 0, nil)
		}
		bank := h.Bank(h.HomeBank(addr))
		done := false
		e.Schedule(start, func() {
			if stream {
				bank.StreamRead(addr, func(bool) {
					done = true
					lost = bank.Probe(addr) == nil || counter(h, "l3.misses") == 6
				})
				return
			}
			h.Tile(1).Access(addr, false, 0, func(Level) { done = true })
		})
		e.Run()
		if !done {
			t.Fatalf("read started at +%d never completed", start)
		}
		if !stream {
			lost = counter(h, "l3.misses") == 6
		}
		return h, lost && counter(h, "l3.downgrades") == 1
	}
	for _, stream := range []bool{false, true} {
		raced := false
		for start := sim.Time(0); start < 400 && !raced; start++ {
			h, lost := stage(start, stream)
			if !lost {
				continue
			}
			raced = true
			present := h.Bank(h.HomeBank(addr)).Probe(addr) != nil
			if stream && present {
				t.Errorf("stream read at +%d refetched the evicted line", start)
			}
			if !stream && (!present || !h.Tile(1).HasLine(addr)) {
				t.Errorf("GetS at +%d did not refetch the evicted line: L3 %v, tile 1 %v", start, present, h.Tile(1).HasLine(addr))
			}
		}
		if !raced {
			t.Fatalf("no start offset evicted the line during the downgrade (stream=%v)", stream)
		}
	}
}

func TestStreamOpsAtWrongBankPanic(t *testing.T) {
	_, h := testMachine()
	home := h.HomeBank(0x1000)
	wrong := (home + 1) % h.Tiles()
	defer func() {
		if recover() == nil {
			t.Fatal("stream read at non-home bank should panic")
		}
	}()
	h.Bank(wrong).StreamRead(h.LineAddr(0x1000), nil)
}

func TestMSHRMergesSameLineMisses(t *testing.T) {
	e, h := testMachine()
	done := 0
	h.Tile(0).Access(0x2000, false, 0, func(Level) { done++ })
	h.Tile(0).Access(0x2040-0x20, false, 0, func(Level) { done++ }) // same line
	before := counter(h, "l3.misses")
	_ = before
	e.Run()
	if done != 2 {
		t.Fatalf("completed %d accesses, want 2", done)
	}
	if counter(h, "l3.misses") != 1 {
		t.Fatalf("l3 misses = %d, want 1 (merged)", counter(h, "l3.misses"))
	}
}

func TestEvictionWritesBack(t *testing.T) {
	e, h := testMachine()
	// Dirty a line, then stream enough conflicting lines through the same
	// L2 set (tag stride 16 => addr stride 1024) to evict it. The stride
	// spreads the lines across L3 sets so the L3 does not recall the dirty
	// line first.
	access(e, h, 0, 0x0, true)
	for i := uint64(1); i <= 8; i++ {
		access(e, h, 0, i*1024, false)
	}
	if counter(h, "l2.writebacks") == 0 {
		t.Fatal("dirty eviction produced no writeback")
	}
	// The bank's copy must have the data (dirty bit set at L3).
	if bl := h.Bank(h.HomeBank(0)).Probe(0); bl != nil && !bl.Dirty {
		t.Fatal("writeback did not mark L3 dirty")
	}
}

func TestHomeBankInterleave(t *testing.T) {
	_, h := testMachine()
	if h.HomeBank(0) != 0 || h.HomeBank(64) != 1 || h.HomeBank(128) != 2 || h.HomeBank(192) != 3 || h.HomeBank(256) != 0 {
		t.Fatal("NUCA line interleave wrong")
	}
}

func TestManyTilesManyLinesConsistency(t *testing.T) {
	// Torture test: interleaved reads/writes from all tiles to a small
	// set of lines; afterwards at most one tile holds each line in M.
	e, h := testMachine()
	r := sim.NewRand(99)
	for i := 0; i < 400; i++ {
		tile := r.Intn(4)
		addr := uint64(r.Intn(16)) * 64
		write := r.Bool(0.5)
		h.Tile(tile).Access(addr, write, 0, nil)
		if i%7 == 0 {
			e.Run()
		}
	}
	e.Run()
	for lineIdx := 0; lineIdx < 16; lineIdx++ {
		addr := uint64(lineIdx) * 64
		owners := 0
		holders := 0
		for tl := 0; tl < 4; tl++ {
			l := h.Tile(tl).L1().Peek(addr)
			if l == nil {
				l = h.Tile(tl).L2().Peek(addr)
			}
			if l != nil {
				holders++
				if l.State == Modified || l.State == Exclusive {
					owners++
				}
			}
		}
		if owners > 1 {
			t.Fatalf("line %#x has %d exclusive owners", addr, owners)
		}
		if owners == 1 && holders > 1 {
			t.Fatalf("line %#x owned exclusively but %d tiles hold it", addr, holders)
		}
	}
}
