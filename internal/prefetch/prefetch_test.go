package prefetch

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
)

func testTile() (*sim.Engine, *cache.Hierarchy, *cache.Tile) {
	e := sim.NewEngine()
	ncfg := noc.DefaultConfig()
	ncfg.Width, ncfg.Height = 2, 2
	net := noc.New(e, ncfg)
	dram := mem.New(e, mem.DefaultConfig())
	h := cache.New(e, net, dram, cache.DefaultConfig())
	return e, h, h.Tile(0)
}

// counter sums one counter over the hierarchy's shard-lane registries.
func counter(h *cache.Hierarchy, name string) uint64 {
	var v uint64
	for _, r := range h.Registries() {
		v += r.Get(name)
	}
	return v
}

func TestStrideDetectsAndPrefetches(t *testing.T) {
	e, h, tile := testTile()
	s := NewStride(tile, DefaultStrideConfig())
	const pc = 0x400
	for i := uint64(0); i < 8; i++ {
		s.Observe(i*64, pc)
		e.Run()
	}
	if s.Fired == 0 {
		t.Fatal("stride prefetcher never fired on a perfect stride")
	}
	if counter(h, "prefetch.issued") == 0 {
		t.Fatal("no prefetches reached the hierarchy")
	}
	e.Run()
	// The next line in the stride pattern should now be resident.
	if !tile.HasLine(8 * 64) {
		t.Fatal("next stride line not prefetched")
	}
}

func TestStrideIgnoresRandomPattern(t *testing.T) {
	e, _, tile := testTile()
	s := NewStride(tile, DefaultStrideConfig())
	r := sim.NewRand(3)
	for i := 0; i < 64; i++ {
		s.Observe(uint64(r.Intn(1<<20)), 0x400)
		e.Run()
	}
	if s.Fired > 8 {
		t.Fatalf("stride prefetcher fired %d times on random addresses", s.Fired)
	}
}

func TestStrideDistinguishesPCs(t *testing.T) {
	e, _, tile := testTile()
	s := NewStride(tile, StrideConfig{TableEntries: 256, Degree: 2, ConfidenceThreshold: 2})
	// Interleave two streams at different PCs; both perfect strides.
	for i := uint64(0); i < 10; i++ {
		s.Observe(i*64, 0x101)
		s.Observe(1<<20+i*128, 0x202)
		e.Run()
	}
	if s.Fired == 0 {
		t.Fatal("interleaved per-PC strides not detected")
	}
}

func TestBingoLearnsAndReplays(t *testing.T) {
	e, _, tile := testTile()
	b := NewBingo(tile, DefaultBingoConfig())
	const pc = 0x500
	// Generation 1: touch a sparse footprint in region 0.
	for _, off := range []uint64{0, 128, 256, 1024} {
		b.Observe(off, pc)
	}
	b.Flush()
	e.Run()
	if b.Trained == 0 {
		t.Fatal("bingo trained nothing")
	}
	// Generation 2: same trigger (same PC, same region offset) in a new
	// region must replay the footprint.
	base := uint64(1 << 21)
	b.Observe(base, pc)
	e.Run()
	if b.Fired == 0 {
		t.Fatal("bingo did not replay learned footprint")
	}
	for _, off := range []uint64{128, 256, 1024} {
		if !tile.HasLine(base + off) {
			t.Fatalf("footprint line +%d not prefetched", off)
		}
	}
}

func TestBingoNoReplayWithoutTraining(t *testing.T) {
	e, _, tile := testTile()
	b := NewBingo(tile, DefaultBingoConfig())
	b.Observe(0, 0x900)
	e.Run()
	if b.Fired != 0 {
		t.Fatal("bingo fired with an empty PHT")
	}
	_ = tile
}

func TestBingoCapsOpenGenerations(t *testing.T) {
	e, _, tile := testTile()
	b := NewBingo(tile, DefaultBingoConfig())
	for i := uint64(0); i < 200; i++ {
		b.Observe(i*2048, 0x100)
	}
	e.Run()
	if len(b.tracking) > 65 {
		t.Fatalf("open generations unbounded: %d", len(b.tracking))
	}
	_ = tile
}

// TestBingoEvictionDeterministic pins the FIFO generation cap: the same
// access trace must train the same PHT and fire the same prefetches on
// every run. The trace deliberately opens far more than 64 regions (so
// the cap evicts constantly), reuses colliding trigger keys, and then
// replays — previously the victim came from map iteration order and the
// fired count varied between identical runs (seen as run-to-run cycle
// drift in the hash_join pointer chase).
func TestBingoEvictionDeterministic(t *testing.T) {
	trace := func() (trained, fired uint64) {
		e, _, tile := testTile()
		b := NewBingo(tile, DefaultBingoConfig())
		r := sim.NewRand(7)
		for i := 0; i < 4096; i++ {
			b.Observe(r.Uint64n(512)*2048+r.Uint64n(32)*64, 0x100+r.Uint64n(4))
			if i%64 == 0 {
				e.Run()
			}
		}
		b.Flush()
		e.Run()
		return b.Trained, b.Fired
	}
	t1, f1 := trace()
	for i := 0; i < 4; i++ {
		t2, f2 := trace()
		if t1 != t2 || f1 != f2 {
			t.Fatalf("run %d diverged: trained/fired %d/%d vs %d/%d",
				i+2, t1, f1, t2, f2)
		}
	}
}

func TestUnitFeedsBoth(t *testing.T) {
	e, h, tile := testTile()
	u := NewUnit(tile)
	for i := uint64(0); i < 16; i++ {
		u.Observe(i*64, 0x100)
		e.Run()
	}
	if counter(h, "prefetch.issued") == 0 {
		t.Fatal("unit issued no prefetches")
	}
}

func TestPrefetchIsNoOpWhenResident(t *testing.T) {
	e, h, tile := testTile()
	tile.Access(0x1000, false, 0, nil)
	e.Run()
	before := counter(h, "prefetch.issued")
	tile.Prefetch(0x1000)
	e.Run()
	if counter(h, "prefetch.issued") != before {
		t.Fatal("prefetch of resident line issued a request")
	}
}
