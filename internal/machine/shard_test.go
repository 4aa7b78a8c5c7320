package machine

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
)

// driveMachine runs runScript on a machine of the given shard count and
// returns the counter snapshot plus the final clock and delivery count.
// With reuse set the script runs twice, with a Reset in between, and the
// second run's results return: a Reset machine must be indistinguishable
// from a fresh one.
func driveMachine(t *testing.T, shards int, force, reuse bool) (map[string]uint64, sim.Time, uint64) {
	t.Helper()
	cfg := CI()
	cfg.Shards = shards
	m := New(cfg)
	defer m.Close()
	if force {
		m.Group.ForceParallel(true)
	}
	if reuse {
		runScript(t, m)
		m.Reset()
	}
	runScript(t, m)
	return m.Counters(), m.Now(), m.Net.Delivered
}

// runScript runs a deterministic access script through a machine's full
// stack — tiles, coherence, NoC, DRAM. Each tile issues a mix of local,
// cross-mesh and conflicting (shared-line) accesses from its own engine,
// so the script exercises every cross-shard interaction:
// request/response messages, invalidation multicasts, writebacks, and
// DRAM bursts at the corners.
func runScript(t *testing.T, m *Machine) {
	t.Helper()
	tiles := m.Tiles()
	// Completion counts are per-tile: each tile's callbacks fire on its own
	// shard's goroutine, so a shared counter would race under -race.
	done := make([]int, tiles)
	want := 0
	for tile := 0; tile < tiles; tile++ {
		tile := tile
		base := uint64(0x100000 + tile*64*257)
		for k := 0; k < 12; k++ {
			k := k
			// Mix strided private lines with a shared hot line so the
			// directory generates invalidations and forwards.
			addr := base + uint64(k)*64*uint64(1+tile%3)
			if k%5 == 4 {
				addr = 0x400000 + uint64(k%2)*64 // contended lines
			}
			write := (tile+k)%3 == 0
			want++
			// Stagger issue times so shards are mid-window when traffic
			// crosses their boundaries.
			m.EngineOf(tile).ScheduleAt(sim.Time(1+tile+7*k), func() {
				m.Hier.Tile(tile).Access(addr, write, uint64(tile*100+k), func(cache.Level) {
					done[tile]++
				})
			})
		}
	}
	m.Run()
	total := 0
	for _, d := range done {
		total += d
	}
	if total != want {
		t.Fatalf("shards=%d: %d/%d accesses completed", m.Shards(), total, want)
	}
}

// TestShardedMachineMatchesSerial is the machine-level determinism oracle:
// the full stack simulated at 1, 2 and 4 shards, on a fresh machine and
// on a Reset one, must produce exactly the fresh serial (1-shard) counter
// snapshot — NoC traffic included — clock and delivery count. Run with
// -race to check the parallel windows too (ForceParallel overrides the
// single-processor inline fallback).
func TestShardedMachineMatchesSerial(t *testing.T) {
	base, clock1, del1 := driveMachine(t, 1, false, false)
	for _, name := range []string{"noc.bytehops.data", "noc.messages.control", "l3.misses", "dram.reads"} {
		if base[name] == 0 {
			t.Fatalf("serial snapshot lacks %s", name)
		}
	}
	for _, k := range []int{1, 2, 4} {
		for _, force := range []bool{false, true} {
			for _, reuse := range []bool{false, true} {
				if k == 1 && !reuse {
					continue // the baseline itself
				}
				run := fmt.Sprintf("shards=%d force=%v reuse=%v", k, force, reuse)
				snap, clock, del := driveMachine(t, k, force, reuse)
				if clock != clock1 {
					t.Errorf("%s: clock %d, serial %d", run, clock, clock1)
				}
				if del != del1 {
					t.Errorf("%s: delivered %d, serial %d", run, del, del1)
				}
				for name, v := range base {
					if snap[name] != v {
						t.Errorf("%s: %s = %d, serial %d", run, name, snap[name], v)
					}
				}
				for name := range snap {
					if _, ok := base[name]; !ok {
						t.Errorf("%s: extra counter %s = %d", run, name, snap[name])
					}
				}
			}
		}
	}
}

// TestShardOfPartition pins the row-band partition: contiguous rows,
// monotone shard ids, every shard non-empty, clamped to the mesh height.
func TestShardOfPartition(t *testing.T) {
	cfg := CI()
	cfg.Shards = 3
	m := New(cfg)
	defer m.Close()
	if m.Shards() != 3 {
		t.Fatalf("shards=%d, want 3", m.Shards())
	}
	seen := make(map[int32]bool)
	for node, s := range m.ShardOf {
		seen[s] = true
		if node >= cfg.MeshWidth { // same column, one row up
			if prev := m.ShardOf[node-cfg.MeshWidth]; s < prev {
				t.Fatalf("shard ids not monotone down rows: node %d shard %d, above %d", node, s, prev)
			}
		}
		if row := node / cfg.MeshWidth; m.ShardOf[row*cfg.MeshWidth] != s {
			t.Fatalf("row %d split across shards", row)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("%d shards populated, want 3", len(seen))
	}

	over := CI()
	over.Shards = 99
	mo := New(over)
	defer mo.Close()
	if mo.Shards() != over.MeshHeight {
		t.Fatalf("shards=%d, want clamp to mesh height %d", mo.Shards(), over.MeshHeight)
	}
	if fmt.Sprint(mo.ShardOf[:4]) != "[0 0 0 0]" {
		t.Fatalf("first row not on shard 0: %v", mo.ShardOf[:4])
	}
}
