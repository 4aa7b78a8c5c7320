// Package prefetch implements the Base system's hardware prefetchers per
// Table V: a Bingo-style spatial prefetcher at L1 (8 KB pattern history
// table, 2 KB regions) and a stride prefetcher at L2. Per §VI, these run
// only on the baseline core; all stream-based systems turn them off and
// rely on SE-driven stream prefetching instead.
package prefetch

import (
	"repro/internal/cache"
)

// BingoConfig sizes the spatial prefetcher.
type BingoConfig struct {
	// RegionBytes is the spatial region size (2 KB in Table V).
	RegionBytes uint64
	// PHTEntries is the number of pattern-history-table entries
	// (8 KB table / ~8 B per entry = 1024).
	PHTEntries int
	// LineBytes is the cache line size.
	LineBytes uint64
}

// DefaultBingoConfig returns the Table V configuration.
func DefaultBingoConfig() BingoConfig {
	return BingoConfig{RegionBytes: 2048, PHTEntries: 1024, LineBytes: 64}
}

// bingoEntry is one learned region footprint, keyed by the long event
// (PC+address) with PC+offset fallback, simplified to a PC⊕offset hash key.
type bingoEntry struct {
	key       uint64
	footprint uint64 // bitmap over region lines (2048/64 = 32 bits used)
	valid     bool
}

// Bingo is the spatial prefetcher. It observes L1 demand accesses through
// the hierarchy hook and replays learned region footprints on a region
// trigger.
type Bingo struct {
	cfg BingoConfig
	// tracking holds regions currently being observed (open generations);
	// order remembers their opening sequence (with stale entries skipped
	// lazily) so the capacity cap evicts oldest-first. Map iteration order
	// must never pick the victim: it would make the PHT contents — and so
	// the fired prefetches and the simulated cycle count — vary from run
	// to run.
	tracking map[uint64]*regionGen
	order    []uint64
	pht      []bingoEntry
	tile     *cache.Tile
	// Trained and Fired count learning and replay events.
	Trained, Fired uint64
}

type regionGen struct {
	key       uint64
	footprint uint64
}

// NewBingo attaches a Bingo prefetcher to a tile.
func NewBingo(tile *cache.Tile, cfg BingoConfig) *Bingo {
	if cfg.RegionBytes == 0 || cfg.LineBytes == 0 || cfg.PHTEntries <= 0 {
		panic("prefetch: bad bingo config")
	}
	return &Bingo{
		cfg:      cfg,
		tracking: make(map[uint64]*regionGen),
		pht:      make([]bingoEntry, cfg.PHTEntries),
		tile:     tile,
	}
}

func (b *Bingo) regionOf(addr uint64) uint64 { return addr / b.cfg.RegionBytes }

func (b *Bingo) lineBit(addr uint64) uint {
	return uint(addr % b.cfg.RegionBytes / b.cfg.LineBytes)
}

// eventKey hashes the trigger event (PC + region offset).
func (b *Bingo) eventKey(pc, addr uint64) uint64 {
	off := addr % b.cfg.RegionBytes / b.cfg.LineBytes
	h := pc*0x9e3779b97f4a7c15 ^ off*0xbf58476d1ce4e5b9
	return h
}

// Observe feeds one demand access. On a region's first touch it looks up
// the PHT and issues prefetches for the learned footprint; every touch
// extends the open generation's footprint. Closing happens lazily via a
// FIFO cap on open generations.
func (b *Bingo) Observe(addr, pc uint64) {
	region := b.regionOf(addr)
	gen, open := b.tracking[region]
	if !open {
		key := b.eventKey(pc, addr)
		// Region trigger: replay a learned footprint.
		slot := &b.pht[key%uint64(len(b.pht))]
		if slot.valid && slot.key == key {
			b.Fired++
			base := region * b.cfg.RegionBytes
			fp := slot.footprint
			for bit := uint(0); fp != 0; bit++ {
				if fp&(1<<bit) != 0 {
					fp &^= 1 << bit
					b.tile.Prefetch(base + uint64(bit)*b.cfg.LineBytes)
				}
			}
		}
		gen = &regionGen{key: key}
		b.tracking[region] = gen
		b.order = append(b.order, region)
		// Cap open generations: close the oldest still-open one. With
		// >64 live regions the front live entry predates the region just
		// appended, so no self-eviction check is needed.
		if len(b.tracking) > 64 {
			for len(b.order) > 0 {
				r := b.order[0]
				b.order = b.order[1:]
				if g, ok := b.tracking[r]; ok {
					b.close(r, g)
					break
				}
			}
		}
	}
	gen.footprint |= 1 << b.lineBit(addr)
}

// close commits a generation's footprint into the PHT.
func (b *Bingo) close(region uint64, g *regionGen) {
	slot := &b.pht[g.key%uint64(len(b.pht))]
	*slot = bingoEntry{key: g.key, footprint: g.footprint, valid: true}
	b.Trained++
	delete(b.tracking, region)
}

// Flush commits all open generations (end of kernel) in opening order,
// so colliding PHT slots settle identically on every run.
func (b *Bingo) Flush() {
	for _, r := range b.order {
		if g, ok := b.tracking[r]; ok {
			b.close(r, g)
		}
	}
	b.order = b.order[:0]
}

// StrideConfig sizes the L2 stride prefetcher.
type StrideConfig struct {
	// TableEntries is the number of PC-indexed tracking entries.
	TableEntries int
	// Degree is how many strides ahead to prefetch once confident.
	Degree int
	// ConfidenceThreshold is the consecutive-stride count required.
	ConfidenceThreshold int
}

// DefaultStrideConfig returns a typical L2 stride prefetcher.
func DefaultStrideConfig() StrideConfig {
	return StrideConfig{TableEntries: 256, Degree: 4, ConfidenceThreshold: 2}
}

type strideEntry struct {
	pc         uint64
	lastAddr   uint64
	stride     int64
	confidence int
	valid      bool
}

// Stride is the per-PC stride prefetcher.
type Stride struct {
	cfg   StrideConfig
	table []strideEntry
	tile  *cache.Tile
	Fired uint64
}

// NewStride attaches a stride prefetcher to a tile.
func NewStride(tile *cache.Tile, cfg StrideConfig) *Stride {
	if cfg.TableEntries <= 0 || cfg.Degree <= 0 {
		panic("prefetch: bad stride config")
	}
	return &Stride{cfg: cfg, table: make([]strideEntry, cfg.TableEntries), tile: tile}
}

// Observe feeds one demand access; confident strides prefetch Degree lines
// ahead.
func (s *Stride) Observe(addr, pc uint64) {
	e := &s.table[pc%uint64(len(s.table))]
	if !e.valid || e.pc != pc {
		*e = strideEntry{pc: pc, lastAddr: addr, valid: true}
		return
	}
	stride := int64(addr) - int64(e.lastAddr)
	e.lastAddr = addr
	if stride == 0 {
		return
	}
	if stride == e.stride {
		if e.confidence < s.cfg.ConfidenceThreshold {
			e.confidence++
		}
	} else {
		e.stride = stride
		e.confidence = 0
		return
	}
	if e.confidence >= s.cfg.ConfidenceThreshold {
		for d := 1; d <= s.cfg.Degree; d++ {
			target := int64(addr) + stride*int64(d)
			if target < 0 {
				break
			}
			s.Fired++
			s.tile.Prefetch(uint64(target))
		}
	}
}

// Unit bundles both prefetchers for one tile and adapts them to the
// hierarchy's PrefetchHook signature.
type Unit struct {
	Bingo  *Bingo
	Stride *Stride
}

// NewUnit attaches default-configured prefetchers to a tile.
func NewUnit(tile *cache.Tile) *Unit {
	return &Unit{
		Bingo:  NewBingo(tile, DefaultBingoConfig()),
		Stride: NewStride(tile, DefaultStrideConfig()),
	}
}

// Observe feeds one demand access to both prefetchers.
func (u *Unit) Observe(addr, pc uint64) {
	u.Bingo.Observe(addr, pc)
	u.Stride.Observe(addr, pc)
}
