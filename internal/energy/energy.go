// Package energy estimates energy and area in the style of McPAT/CACTI at
// 22 nm (§VI, §VII-A). The model is per-event: each micro-op, cache
// access, NoC byte-hop, DRAM byte and SE operation carries a fixed energy,
// plus leakage proportional to runtime. Figure 10 plots energy *ratios*
// between systems on the same substrate, which a consistent per-event
// model preserves; absolute joules are indicative only.
package energy

// Coefficients are per-event energies in picojoules and leakage in
// watts. Values are representative of 22 nm McPAT output for the Table V
// configuration.
type Coefficients struct {
	CoreOpPJ     float64 // per retired micro-op (core-size dependent)
	L1AccessPJ   float64
	L2AccessPJ   float64
	L3AccessPJ   float64
	NoCByteHopPJ float64
	DRAMBytePJ   float64
	SEOpPJ       float64 // SE_core/SE_L3 bookkeeping per stream element
	SCCOpPJ      float64 // per SCC compute instance
	LeakageW     float64 // whole-chip static power
	ClockGHz     float64
}

// ForCore returns coefficients for a named core type ("IO4", "OOO4",
// "OOO8"). Bigger cores pay more per op and leak more.
func ForCore(name string) Coefficients {
	c := Coefficients{
		L1AccessPJ:   10,
		L2AccessPJ:   35,
		L3AccessPJ:   120,
		NoCByteHopPJ: 1.2,
		DRAMBytePJ:   25,
		SEOpPJ:       2,
		SCCOpPJ:      8,
		ClockGHz:     2.0,
	}
	switch name {
	case "IO4":
		c.CoreOpPJ = 8
		c.LeakageW = 4
	case "OOO4":
		c.CoreOpPJ = 16
		c.LeakageW = 8
	default: // OOO8
		c.CoreOpPJ = 28
		c.LeakageW = 14
	}
	return c
}

// Breakdown is a per-component energy report in joules.
type Breakdown struct {
	Core, Caches, NoC, DRAM, SE, Static float64
}

// Total returns the summed energy.
func (b Breakdown) Total() float64 {
	return b.Core + b.Caches + b.NoC + b.DRAM + b.SE + b.Static
}

// Estimate computes the energy of one run from its counter snapshot
// (machine.Counters). ops is the total retired micro-op count; cycles the
// runtime.
func Estimate(c Coefficients, s map[string]uint64, ops uint64, cycles uint64) Breakdown {
	pj := func(v float64) float64 { return v * 1e-12 }
	var b Breakdown
	b.Core = pj(c.CoreOpPJ * float64(ops))
	b.Caches = pj(c.L1AccessPJ*float64(s["l1.hits"]+s["l1.misses"]) +
		c.L2AccessPJ*float64(s["l2.hits"]+s["l2.misses"]) +
		c.L3AccessPJ*float64(s["l3.hits"]+s["l3.misses"]))
	bh := s["noc.bytehops.data"] + s["noc.bytehops.control"] + s["noc.bytehops.offloaded"]
	b.NoC = pj(c.NoCByteHopPJ * float64(bh))
	b.DRAM = pj(c.DRAMBytePJ * float64(s["dram.bytes"]))
	b.SE = pj(c.SEOpPJ*float64(s["ns.sload"]+s["ns.migrations"]+s["ns.remote_compute"]) +
		c.SCCOpPJ*float64(s["ns.remote_compute"]))
	seconds := float64(cycles) / (c.ClockGHz * 1e9)
	b.Static = c.LeakageW * seconds
	return b
}

// AreaEntry is one component of the §VII-A area table.
type AreaEntry struct {
	Component string
	MM2       float64
}

// AreaTable returns the paper's SE area additions at 22 nm: the SE_core
// stream buffer (0.09 mm²), the SE_L3 64 kB operand buffer (0.195 mm²),
// the SE_L3 48 kB configuration store (0.11 mm²) and small logic.
func AreaTable() []AreaEntry {
	return []AreaEntry{
		{"SE_core stream buffer (per core)", 0.09},
		{"SE_L3 stream buffer 64kB (per bank)", 0.195},
		{"SE_L3 stream config 48kB (per bank)", 0.11},
		{"SE logic + range units (per tile)", 0.04},
	}
}

// ChipOverheadPercent estimates the whole-chip area overhead for a core
// type (§VII-A: 2.5% for IO4, 2.1% for OOO8 — bigger cores dilute the SE
// area).
func ChipOverheadPercent(core string) float64 {
	var per float64
	for _, e := range AreaTable() {
		per += e.MM2
	}
	tile := map[string]float64{"IO4": 17.4, "OOO4": 19.5, "OOO8": 20.7}[core]
	if tile == 0 {
		tile = 20.7
	}
	return per / tile * 100
}
