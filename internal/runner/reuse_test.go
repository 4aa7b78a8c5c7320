package runner

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestArenaTakeAndReset pins the arena contract: Take returns zeroed,
// exactly-sized slices whose capacity is clamped (no aliasing via
// append), and Reset recycles the chunks for the next job.
func TestArenaTakeAndReset(t *testing.T) {
	a := ir.NewArena()
	x := a.Take(10)
	y := a.Take(20)
	if len(x) != 10 || len(y) != 20 {
		t.Fatalf("lengths %d/%d, want 10/20", len(x), len(y))
	}
	if cap(x) != 10 || cap(y) != 20 {
		t.Fatalf("capacities %d/%d, want clamped to 10/20", cap(x), cap(y))
	}
	for i := range x {
		x[i] = 7
	}
	for _, v := range y {
		if v != 0 {
			t.Fatal("Take returned dirty memory")
		}
	}
	held := a.HeldBytes()
	a.Reset()
	z := a.Take(10)
	for _, v := range z {
		if v != 0 {
			t.Fatal("Take after Reset returned dirty memory")
		}
	}
	if a.HeldBytes() != held {
		t.Fatalf("Reset changed held bytes %d -> %d; chunks should be retained", held, a.HeldBytes())
	}
	if a.Take(0) != nil {
		t.Fatal("Take(0) should return nil")
	}
}

// TestDatasetCacheEvictsLRU pins the byte-capped LRU: inserting past the
// cap evicts the least-recently-used entry, never the one just inserted,
// and the counters track it.
func TestDatasetCacheEvictsLRU(t *testing.T) {
	c := NewDatasetCache(100)
	put := func(key string, words int) {
		c.mu.Lock()
		c.tick++
		ent := &datasetEntry{arrays: [][]uint64{make([]uint64, words)},
			bytes: int64(words) * 8, used: c.tick}
		c.entries[key] = ent
		c.total += ent.bytes
		c.evictLocked(key)
		c.mu.Unlock()
	}
	put("a", 5) // 40 bytes
	put("b", 5) // 80 bytes
	put("c", 5) // 120 bytes -> evicts a (oldest)
	c.mu.Lock()
	_, hasA := c.entries["a"]
	_, hasB := c.entries["b"]
	_, hasC := c.entries["c"]
	c.mu.Unlock()
	if hasA || !hasB || !hasC {
		t.Fatalf("after cap overflow: a=%v b=%v c=%v, want only b and c resident", hasA, hasB, hasC)
	}
	_, _, ev, bytes := c.Stats()
	if ev != 1 || bytes != 80 {
		t.Fatalf("evictions=%d bytes=%d, want 1/80", ev, bytes)
	}
	// An oversized entry survives its own insertion (it must serve the
	// job that generated it) even though it alone busts the cap.
	put("big", 50) // 400 bytes -> evicts b and c, keeps big
	c.mu.Lock()
	_, hasBig := c.entries["big"]
	n := len(c.entries)
	c.mu.Unlock()
	if !hasBig || n != 1 {
		t.Fatalf("oversized insert: resident=%d big=%v, want only big", n, hasBig)
	}
}

// TestMachinePoolKeyNormalization pins the pool-key contract: get is
// keyed by the normalized config, so a raw config (zero NoC dims, zero
// Cores, unclamped Shards) checks out a machine that was pooled under
// its canonical m.Cfg.
func TestMachinePoolKeyNormalization(t *testing.T) {
	mp := newMachinePool(2)
	raw := machine.CI()
	m := machine.New(raw)
	defer m.Close()
	mp.put(m)
	got := mp.get(raw) // raw differs from m.Cfg until normalized
	if got != m {
		t.Fatalf("pooled machine not found under raw config key")
	}
	if hits, misses := mp.stats(); hits != 1 || misses != 0 {
		t.Fatalf("hits=%d misses=%d, want 1/0", hits, misses)
	}
	if mp.get(raw) != nil {
		t.Fatal("second get should miss (pool emptied)")
	}
	// Depth cap: a third put of the same key is discarded, not pooled.
	m2, m3, m4 := machine.New(raw), machine.New(raw), machine.New(raw)
	defer func() { m2.Close(); m3.Close(); m4.Close() }()
	mp.put(m2)
	mp.put(m3)
	mp.put(m4)
	key := poolKey(raw)
	mp.mu.Lock()
	depth := len(mp.free[key])
	mp.mu.Unlock()
	if depth != 2 {
		t.Fatalf("pool depth %d, want capped at 2", depth)
	}
}

// TestDataSnapshotRestoreRoundTrip pins the dataset-cache restore path:
// a Restore onto a freshly allocated Data reproduces the snapshotted
// array contents exactly, including arena-backed storage.
func TestDataSnapshotRestoreRoundTrip(t *testing.T) {
	m := machine.New(machine.CI())
	defer m.Close()
	b := ir.NewKernel("snap")
	b.Array("a", ir.I64, 8).Array("b", ir.I64, 4)
	b.LoopN("i", "n")
	b.Param("n", 4)
	b.Load(ir.I64, ir.AffineAddr("a", 0, map[int]int64{0: 1}))
	k := b.Build()

	d1 := ir.NewData(m.AS)
	d1.AllocArrays(k)
	for i := uint64(0); i < 8; i++ {
		d1.Array("a").Set(i, i*3+1)
	}
	for i := uint64(0); i < 4; i++ {
		d1.Array("b").Set(i, 100+i)
	}
	snap := d1.Snapshot()

	m2 := machine.New(machine.CI())
	defer m2.Close()
	d2 := ir.NewDataArena(m2.AS, ir.NewArena())
	d2.AllocArrays(k)
	d2.Restore(snap)
	for i := uint64(0); i < 8; i++ {
		if got := d2.Array("a").Get(i); got != i*3+1 {
			t.Fatalf("a[%d] = %d after restore, want %d", i, got, i*3+1)
		}
	}
	for i := uint64(0); i < 4; i++ {
		if got := d2.Array("b").Get(i); got != 100+i {
			t.Fatalf("b[%d] = %d after restore, want %d", i, got, 100+i)
		}
	}
}

// TestPooledMachineReseedMatchesFresh pins the seedless pool key: seed
// reaches a machine only through its address space, so a machine built
// at seed A, pooled, and checked out for seed B must run bit-identically
// to a fresh seed-B machine. Base pages (UseHugePages off) make the
// address-space RNG live, so the seed really moves physical placement.
func TestPooledMachineReseedMatchesFresh(t *testing.T) {
	w := workloads.Get("histogram", workloads.ScaleCI)
	cfg := MachineConfig(job("histogram", core.NS), false)
	cfg.UseHugePages = false
	run := func(m *machine.Machine) (*core.RunResult, uint64) {
		d := ir.NewData(m.AS)
		d.AllocArrays(w.Kernel)
		w.Init(d, sim.NewRand(0x9e37))
		res, err := core.Run(m, w.Kernel, core.NS, core.DefaultParams(m.Tiles()), w.Params, d)
		if err != nil {
			t.Fatal(err)
		}
		// The last array is placed after the scatter RNG has run.
		last := w.Kernel.Arrays[len(w.Kernel.Arrays)-1].Name
		return res, m.Translate(d.Array(last).Base)
	}
	cfgA, cfgB := cfg, cfg
	cfgA.Seed, cfgB.Seed = 3, 11
	_, paA := run(machine.New(cfgA))
	freshB, paB := run(machine.New(cfgB))
	if paA == paB {
		t.Fatal("seeds 3 and 11 place pages identically; the test would be vacuous")
	}

	mp := newMachinePool(1)
	m := machine.New(cfgA)
	defer m.Close()
	run(m)
	mp.put(m)
	reused := mp.get(cfgB)
	if reused != m {
		t.Fatal("seed-B checkout missed the machine pooled at seed A")
	}
	if reused.Cfg.Seed != cfgB.Seed {
		t.Fatalf("reused machine reports seed %d, want %d", reused.Cfg.Seed, cfgB.Seed)
	}
	got, pa := run(reused)
	if pa != paB || got.Cycles != freshB.Cycles || !reflect.DeepEqual(got.Stats, freshB.Stats) {
		t.Fatalf("reused-at-B diverged from fresh B: pa %#x/%#x cycles %d/%d",
			pa, paB, got.Cycles, freshB.Cycles)
	}
}

// TestPoolBoundedAcrossSeeds is the daemon-growth regression: a batch of
// 20 distinct seeds must reuse machines across seeds and leave at most
// workers pooled machines per seedless config, not one per seed.
func TestPoolBoundedAcrossSeeds(t *testing.T) {
	const workers = 2
	p := NewPool(workers)
	var jobs []Job
	for seed := uint64(1); seed <= 20; seed++ {
		j := job("histogram", core.NS)
		j.Seed = seed
		jobs = append(jobs, j)
	}
	if _, err := p.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if hits, _ := p.MachineReuse(); hits == 0 {
		t.Fatal("no machine reused across seeds")
	}
	mp := p.env.machines
	mp.mu.Lock()
	defer mp.mu.Unlock()
	perConfig := map[machine.Config]int{}
	for key, l := range mp.free {
		perConfig[poolKey(key)] += len(l)
	}
	for key, n := range perConfig {
		if n > workers {
			t.Fatalf("%d machines pooled for one seedless config (mesh %dx%d), want <= %d",
				n, key.MeshWidth, key.MeshHeight, workers)
		}
	}
}
