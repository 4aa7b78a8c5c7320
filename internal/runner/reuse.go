package runner

import (
	"fmt"
	"sync"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// execEnv carries a pool's reuse facilities into one job execution. A
// nil env (the public Execute/ExecuteObs/ExecuteShardsObs entry points)
// means fresh-build semantics: new machine, GC-backed arrays, generated
// dataset. Reuse is observationally equivalent — the machine Reset
// contract and the dataset cache both reproduce a fresh build bit for
// bit — so results are identical either way.
type execEnv struct {
	machines *machinePool
	arenas   *arenaPool
	datasets *DatasetCache
}

// machinePool is a per-config free list of whole machines. Building a
// machine allocates the mesh routes, cache arrays, directory tables and
// shard engines — tens of MB and millions of allocations at paper scale
// — so jobs check one out, Reset it (see machine.Machine.Reset) and
// return it instead of rebuilding. Keyed by the normalized config with
// Seed zeroed (a comparable struct: the config digest): the seed reaches
// machine state only through the address space, which get reseeds, so
// jobs of every seed share one free list. Per-key depth is capped at the
// pool's worker count, which is the most machines of one config that can
// ever be in flight.
type machinePool struct {
	mu     sync.Mutex
	perKey int
	free   map[machine.Config][]*machine.Machine
	hits   uint64
	misses uint64
}

// poolKey is the free-list key of cfg: normalized, seedless.
func poolKey(cfg machine.Config) machine.Config {
	cfg = machine.Normalize(cfg)
	cfg.Seed = 0
	return cfg
}

func newMachinePool(perKey int) *machinePool {
	if perKey < 1 {
		perKey = 1
	}
	return &machinePool{perKey: perKey, free: make(map[machine.Config][]*machine.Machine)}
}

// get pops a pooled machine for cfg, Reset, reseeded to cfg.Seed and
// ready to run, or returns nil (a miss: the caller builds fresh and puts
// it back afterwards).
func (mp *machinePool) get(cfg machine.Config) *machine.Machine {
	key := poolKey(cfg)
	mp.mu.Lock()
	l := mp.free[key]
	if n := len(l); n > 0 {
		m := l[n-1]
		l[n-1] = nil
		mp.free[key] = l[:n-1]
		mp.hits++
		mp.mu.Unlock()
		m.Reset()
		m.Reseed(cfg.Seed)
		return m
	}
	mp.misses++
	mp.mu.Unlock()
	return nil
}

// put returns a machine whose job completed cleanly. Machines from
// failed or panicked jobs must be discarded (Close) instead — their
// state is suspect. Close before pooling releases any shard worker
// goroutines; a ShardGroup restarts them on its next run.
func (mp *machinePool) put(m *machine.Machine) {
	m.Close()
	key := poolKey(m.Cfg)
	mp.mu.Lock()
	if len(mp.free[key]) >= mp.perKey {
		mp.mu.Unlock()
		return
	}
	mp.free[key] = append(mp.free[key], m)
	mp.mu.Unlock()
}

// stats reports checkout hits and misses.
func (mp *machinePool) stats() (hits, misses uint64) {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	return mp.hits, mp.misses
}

// arenaPool is a free list of workload-data arenas. Balanced get/put
// bounds it at one arena per in-flight job, so no cap is needed.
type arenaPool struct {
	mu   sync.Mutex
	free []*ir.Arena
}

func (ap *arenaPool) get() *ir.Arena {
	ap.mu.Lock()
	if n := len(ap.free); n > 0 {
		a := ap.free[n-1]
		ap.free[n-1] = nil
		ap.free = ap.free[:n-1]
		ap.mu.Unlock()
		return a
	}
	ap.mu.Unlock()
	return ir.NewArena()
}

func (ap *arenaPool) put(a *ir.Arena) {
	a.Reset()
	ap.mu.Lock()
	ap.free = append(ap.free, a)
	ap.mu.Unlock()
}

// DefaultDatasetCacheBytes caps the in-process dataset cache. Paper-scale
// kernels hold up to ~100 MB of array bits each; half a gigabyte keeps
// every kernel of a figure sweep resident while bounding a long daemon's
// footprint.
const DefaultDatasetCacheBytes = 512 << 20

// DatasetCache memoizes generated workload datasets — the post-Init
// array contents plus any workload parameters Init computed (e.g.
// binTree's root) — keyed by (workload, scale, seed). Sweeps that run
// one kernel under many systems or machine configs generate its data
// once; every later job copies the snapshot in. It mirrors runner.Store:
// a byte-capped LRU with hit/miss/eviction counters, but in-process and
// holding raw bits instead of JSON envelopes.
type DatasetCache struct {
	mu                      sync.Mutex
	maxBytes                int64
	entries                 map[string]*datasetEntry
	total                   int64
	tick                    uint64
	hits, misses, evictions uint64
}

// datasetEntry is one cached dataset. arrays and params are immutable
// after insertion; readers copy out under their own job's lock-free
// restore, so eviction can drop the entry at any time.
type datasetEntry struct {
	arrays [][]uint64
	params map[string]uint64
	bytes  int64
	used   uint64 // LRU tick of the last hit
}

// NewDatasetCache returns a cache capped at maxBytes (0 = unlimited).
func NewDatasetCache(maxBytes int64) *DatasetCache {
	return &DatasetCache{maxBytes: maxBytes, entries: make(map[string]*datasetEntry)}
}

// datasetKey digests the inputs that determine a dataset: the workload
// generator, its scale, and the init seed. Machine config is irrelevant
// — array layout is a function of (kernel, huge pages, seed), which the
// scale and seed pin.
func datasetKey(j Job) string {
	return fmt.Sprintf("%s|%s|seed=%d", j.Workload, j.Scale, j.Seed)
}

// Stats reports cumulative hits, misses, LRU evictions and resident
// bytes, for summaries and /metrics.
func (c *DatasetCache) Stats() (hits, misses, evictions uint64, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.total
}

// Materialize fills d (freshly allocated for w's kernel) with the
// dataset for key: from cache on a hit, otherwise by running init and
// snapshotting what it produced. w.Params is brought to its post-Init
// state either way.
func (c *DatasetCache) Materialize(key string, w *workloads.Workload, d *ir.Data, init func()) {
	c.mu.Lock()
	if ent, ok := c.entries[key]; ok {
		c.hits++
		c.tick++
		ent.used = c.tick
		c.mu.Unlock()
		// Copying outside the lock is safe: entries are immutable and
		// eviction only unlinks them.
		d.Restore(ent.arrays)
		for k, v := range ent.params {
			w.Params[k] = v
		}
		return
	}
	c.misses++
	c.mu.Unlock()

	init()
	snap := d.Snapshot()
	params := make(map[string]uint64, len(w.Params))
	var bytes int64
	for k, v := range w.Params {
		params[k] = v
	}
	for _, a := range snap {
		bytes += int64(len(a)) * 8
	}

	c.mu.Lock()
	if _, dup := c.entries[key]; !dup {
		// Two jobs can race the same miss; both generate (identical bits),
		// first insert wins.
		c.tick++
		c.entries[key] = &datasetEntry{arrays: snap, params: params, bytes: bytes, used: c.tick}
		c.total += bytes
		c.evictLocked(key)
	}
	c.mu.Unlock()
}

// evictLocked drops least-recently-used entries until the cap is met,
// never evicting the entry just inserted (a dataset larger than the cap
// must still serve its own job's peers before vanishing).
func (c *DatasetCache) evictLocked(keep string) {
	for c.maxBytes > 0 && c.total > c.maxBytes && len(c.entries) > 1 {
		victim := ""
		var oldest uint64
		for k, e := range c.entries {
			if k == keep {
				continue
			}
			if victim == "" || e.used < oldest || (e.used == oldest && k < victim) {
				victim, oldest = k, e.used
			}
		}
		if victim == "" {
			return
		}
		c.total -= c.entries[victim].bytes
		delete(c.entries, victim)
		c.evictions++
	}
}
