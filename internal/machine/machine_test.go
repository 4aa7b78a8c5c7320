package machine

import (
	"testing"

	"repro/internal/cache"
)

func TestDefaultIsTableV(t *testing.T) {
	cfg := Default()
	if cfg.MeshWidth != 8 || cfg.MeshHeight != 8 {
		t.Fatal("default mesh is not 8x8")
	}
	if cfg.CoreType.Name != "OOO8" {
		t.Fatalf("default core %s, want OOO8", cfg.CoreType.Name)
	}
	if cfg.Cache.L2.SizeBytes != 256<<10 || cfg.Cache.L3Bank.SizeBytes != 1<<20 {
		t.Fatal("Table V cache sizes wrong")
	}
	if !cfg.UseHugePages {
		t.Fatal("huge pages must default on (§IV-A)")
	}
}

func TestNewAssemblesEverything(t *testing.T) {
	m := New(CI())
	if m.Tiles() != 16 || m.Cores() != 16 {
		t.Fatalf("tiles=%d cores=%d", m.Tiles(), m.Cores())
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
	m.Run()
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
	// Reset must zero every counter, traffic included.
	m.Reset()
	if after := m.Counters(); len(after) != 0 {
		t.Fatalf("counters survive Reset: %v", after)
	}
}

func TestCoresCappedByConfig(t *testing.T) {
	cfg := CI()
	cfg.Cores = 4
	m := New(cfg)
	if m.Cores() != 4 || m.Tiles() != 16 {
		t.Fatalf("cores=%d tiles=%d, want 4/16", m.Cores(), m.Tiles())
	}
}
