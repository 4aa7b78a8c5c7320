package cache

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
)

// testMachine builds a small 4-tile hierarchy with tiny caches so tests can
// force evictions cheaply.
func testMachine() (*sim.Engine, *Hierarchy) {
	e := sim.NewEngine()
	ncfg := noc.DefaultConfig()
	ncfg.Width, ncfg.Height = 2, 2
	net := noc.New(e, ncfg)
	dram := mem.New(e, mem.DefaultConfig())
	cfg := Config{
		LineBytes: 64,
		L1:        ArrayConfig{SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, Policy: LRU, Latency: 2},
		L2:        ArrayConfig{SizeBytes: 4 << 10, Ways: 4, LineBytes: 64, Policy: LRU, Latency: 16},
		L3Bank:    ArrayConfig{SizeBytes: 16 << 10, Ways: 4, LineBytes: 64, Policy: LRU, Latency: 20},
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

func TestWriteInvalidatesSharers(t *testing.T) {
	e, h := testMachine()
	access(e, h, 0, 0x1000, false)
	access(e, h, 1, 0x1000, false)
	access(e, h, 2, 0x1000, true)
	if h.Tile(0).HasLine(0x1000) || h.Tile(1).HasLine(0x1000) {
		t.Fatal("sharers not invalidated by remote write")
	}
	if l := h.Tile(2).L1().Peek(0x1000); l == nil || l.State != Modified {
		t.Fatalf("writer got %v, want M", l)
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
