package energy

import (
	"testing"
)

func TestEstimateComponents(t *testing.T) {
	s := map[string]uint64{
		"l1.hits":           1000,
		"l2.hits":           100,
		"l3.hits":           10,
		"noc.bytehops.data": 5000,
		"dram.bytes":        640,
	}
	c := ForCore("OOO8")
	b := Estimate(c, s, 10000, 2_000_000)
	if b.Core <= 0 || b.Caches <= 0 || b.NoC <= 0 || b.DRAM <= 0 || b.Static <= 0 {
		t.Fatalf("zero component: %+v", b)
	}
	if b.Total() <= b.Core {
		t.Fatal("total not summing")
	}
	// 2M cycles at 2GHz = 1ms at 14W leakage = 14 mJ.
	if b.Static < 0.013 || b.Static > 0.015 {
		t.Fatalf("static = %v J, want ~0.014", b.Static)
	}
}

func TestCoreSizeOrdering(t *testing.T) {
	io4, ooo4, ooo8 := ForCore("IO4"), ForCore("OOO4"), ForCore("OOO8")
	if !(io4.CoreOpPJ < ooo4.CoreOpPJ && ooo4.CoreOpPJ < ooo8.CoreOpPJ) {
		t.Fatal("per-op energy should grow with core size")
	}
	if !(io4.LeakageW < ooo8.LeakageW) {
		t.Fatal("leakage should grow with core size")
	}
}

func TestLessTrafficLessEnergy(t *testing.T) {
	mk := func(bh uint64) float64 {
		s := map[string]uint64{"noc.bytehops.data": bh}
		return Estimate(ForCore("OOO8"), s, 1000, 1000).Total()
	}
	if mk(1_000_000) <= mk(10_000) {
		t.Fatal("traffic reduction must reduce energy")
	}
}

func TestAreaTable(t *testing.T) {
	entries := AreaTable()
	if len(entries) < 3 {
		t.Fatal("area table incomplete")
	}
	var total float64
	for _, e := range entries {
		if e.MM2 <= 0 {
			t.Fatalf("%s has non-positive area", e.Component)
		}
		total += e.MM2
	}
	// Paper: SE_core 0.09 + SE_L3 0.195 + 0.11 + logic ≈ 0.4-0.5 mm².
	if total < 0.3 || total > 0.6 {
		t.Fatalf("total SE area %v mm² implausible", total)
	}
}

func TestChipOverheadMatchesPaper(t *testing.T) {
	io4 := ChipOverheadPercent("IO4")
	ooo8 := ChipOverheadPercent("OOO8")
	// §VII-A: 2.5% (IO4) and 2.1% (OOO8); allow ±0.5pp.
	if io4 < 2.0 || io4 > 3.0 {
		t.Fatalf("IO4 overhead %v%%, want ~2.5%%", io4)
	}
	if ooo8 < 1.6 || ooo8 > 2.6 {
		t.Fatalf("OOO8 overhead %v%%, want ~2.1%%", ooo8)
	}
	if ooo8 >= io4 {
		t.Fatal("bigger cores should dilute the SE overhead")
	}
}
