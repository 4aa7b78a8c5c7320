package machine

import (
	"testing"

	"repro/internal/cache"
)

func TestDefaultIsTableV(t *testing.T) {
	cfg := Default()
	if cfg.NoC.Width != 8 || cfg.NoC.Height != 8 {
		t.Fatal("default mesh is not 8x8")
	}
	if cfg.CoreType.Name != "OOO8" {
		t.Fatalf("default core %s, want OOO8", cfg.CoreType.Name)
	}
	if cfg.Cache.L2.SizeBytes != 256<<10 || cfg.Cache.L3Bank.SizeBytes != 1<<20 {
		t.Fatal("Table V cache sizes wrong")
	}
}

func TestNewAssemblesEverything(t *testing.T) {
	m := New(CI())
	if m.Tiles() != 16 {
		t.Fatalf("tiles=%d, want 16", m.Tiles())
	}
	if m.Hier.Tiles() != 16 {
		t.Fatal("hierarchy size mismatch")
	}
	// Round-trip an allocation through translation and bank mapping.
	va := m.AS.Alloc(4096)
	pa := m.Translate(va)
	bank := m.HomeBank(va)
	if bank != m.Hier.HomeBank(pa) {
		t.Fatal("HomeBank(va) inconsistent with Translate")
	}
}

func TestPrefetchersOnlyWhenEnabled(t *testing.T) {
	off := New(CI())
	if off.Hier.PrefetchHook != nil || len(off.PFUnits) != 0 {
		t.Fatal("prefetchers attached without EnablePrefetchers")
	}
	cfg := CI()
	cfg.EnablePrefetchers = true
	on := New(cfg)
	if on.Hier.PrefetchHook == nil || len(on.PFUnits) != on.Tiles() {
		t.Fatal("prefetchers missing with EnablePrefetchers")
	}
}

func TestCollectStatsMergesTraffic(t *testing.T) {
	m := New(CI())
	done := false
	// An address homed at bank 5, accessed from tile 0, crosses the mesh.
	m.Hier.Tile(0).Access(0x200000+64*5, false, 0, func(cache.Level) { done = true })
	m.Engine.Run()
	if !done {
		t.Fatal("access incomplete")
	}
	s := m.Counters()
	if s["noc.bytehops.data"]+s["noc.bytehops.control"] == 0 {
		t.Fatal("Counters lost the NoC traffic")
	}
	if s["noc.messages.data"]+s["noc.messages.control"] == 0 {
		t.Fatal("Counters lost the NoC message counts")
	}
	if s["l3.misses"] == 0 || s["dram.reads"] == 0 {
		t.Fatal("Counters lost the hierarchy or DRAM counters")
	}
	for name, v := range s {
		if v == 0 {
			t.Fatalf("snapshot holds zero counter %s", name)
		}
	}
	// Counters belong to the machine: a new one starts with none, traffic
	// included.
	if fresh := New(CI()).Counters(); len(fresh) != 0 {
		t.Fatalf("new machine reports counters: %v", fresh)
	}
}
