// Package tlb models address translation: page tables with 4 KB base and
// 2 MB huge pages and an allocating address space. Translation is
// functional — it charges no cycles; the SE_L3-colocated TLB of Table V
// is modelled by the near-stream runtime (internal/core), and core-side
// translation latency is zero because every workload runs on huge pages.
//
// Range-based synchronization (§IV-B of the paper) assumes per-data-
// structure physical contiguity via huge pages; the AddressSpace allocator
// reproduces that: huge-page allocations are physically contiguous, while
// base-page allocations are deliberately scattered so tests can exercise
// the conservative fallback.
package tlb

import (
	"fmt"

	"repro/internal/sim"
)

// Page sizes.
const (
	BasePageBits = 12 // 4 KB
	HugePageBits = 21 // 2 MB
	BasePageSize = 1 << BasePageBits
	HugePageSize = 1 << HugePageBits
)

// PageTable maps virtual to physical pages at both granularities. Huge
// mappings take priority over base mappings.
type PageTable struct {
	base map[uint64]uint64 // base VPN -> base PPN
	huge map[uint64]uint64 // huge VPN -> huge PPN
}

// NewPageTable returns an empty page table.
func NewPageTable() *PageTable {
	return &PageTable{base: make(map[uint64]uint64), huge: make(map[uint64]uint64)}
}

// MapBase installs a 4 KB mapping.
func (pt *PageTable) MapBase(vpn, ppn uint64) { pt.base[vpn] = ppn }

// MapHuge installs a 2 MB mapping.
func (pt *PageTable) MapHuge(vpn, ppn uint64) { pt.huge[vpn] = ppn }

// Translate resolves a virtual address. ok is false for unmapped addresses.
// huge reports whether the translation came from a huge-page entry.
func (pt *PageTable) Translate(va uint64) (pa uint64, huge, ok bool) {
	hvpn := va >> HugePageBits
	if hppn, found := pt.huge[hvpn]; found {
		return hppn<<HugePageBits | va&(HugePageSize-1), true, true
	}
	bvpn := va >> BasePageBits
	if bppn, found := pt.base[bvpn]; found {
		return bppn<<BasePageBits | va&(BasePageSize-1), false, true
	}
	return 0, false, false
}

// AddressSpace allocates virtual regions and backs them with physical
// memory. With UseHugePages set, each allocation is physically contiguous
// (the paper's §IV-A assumption); otherwise base pages are scattered
// pseudo-randomly.
type AddressSpace struct {
	PT           *PageTable
	UseHugePages bool
	nextVA       uint64
	nextPA       uint64
	seed         uint64
	rng          *sim.Rand
}

// NewAddressSpace returns a fresh address space. Virtual addresses start
// above zero so that nil-like addresses stay invalid.
func NewAddressSpace(useHuge bool, seed uint64) *AddressSpace {
	return &AddressSpace{
		PT:           NewPageTable(),
		UseHugePages: useHuge,
		nextVA:       HugePageSize, // keep page 0 unmapped
		nextPA:       HugePageSize,
		seed:         seed,
		rng:          sim.NewRand(seed),
	}
}

// Reset forgets every mapping and restarts the allocators, replaying the
// same seed: a Reset address space hands out exactly the addresses a
// fresh one would. The page-table maps are cleared, not reallocated, so
// steady-state reuse stays off the allocator.
func (as *AddressSpace) Reset() {
	clear(as.PT.base)
	clear(as.PT.huge)
	as.nextVA = HugePageSize
	as.nextPA = HugePageSize
	as.rng = sim.NewRand(as.seed)
}

// Reseed replaces the seed of the base-page scatter RNG and restarts the
// RNG from it, so the address space allocates as a fresh one built with
// seed would. A pooled machine uses it to serve a job with another seed.
func (as *AddressSpace) Reseed(seed uint64) {
	as.seed = seed
	as.rng = sim.NewRand(seed)
}

// Alloc reserves size bytes and returns the virtual base address. The
// region is aligned to (and padded to) the page size in use.
func (as *AddressSpace) Alloc(size uint64) uint64 {
	if size == 0 {
		size = 1
	}
	if as.UseHugePages {
		va := align(as.nextVA, HugePageSize)
		pa := align(as.nextPA, HugePageSize)
		pages := (size + HugePageSize - 1) / HugePageSize
		for i := uint64(0); i < pages; i++ {
			as.PT.MapHuge(va>>HugePageBits+i, pa>>HugePageBits+i)
		}
		as.nextVA = va + pages*HugePageSize
		as.nextPA = pa + pages*HugePageSize
		return va
	}
	va := align(as.nextVA, BasePageSize)
	pages := (size + BasePageSize - 1) / BasePageSize
	for i := uint64(0); i < pages; i++ {
		// Scatter physical pages: hash the page index into a sparse PPN
		// space. Deterministic, collision-free by construction (sequence
		// counter mixed with a random stride within a private region).
		pa := align(as.nextPA, BasePageSize)
		as.nextPA = pa + BasePageSize*(1+as.rng.Uint64n(7))
		as.PT.MapBase(va>>BasePageBits+i, pa>>BasePageBits)
	}
	as.nextVA = va + pages*BasePageSize
	return va
}

// Translate resolves va, panicking on unmapped addresses: workloads only
// touch allocated memory, so a miss is a generator bug.
func (as *AddressSpace) Translate(va uint64) uint64 {
	pa, _, ok := as.PT.Translate(va)
	if !ok {
		panic(fmt.Sprintf("tlb: access to unmapped address %#x", va))
	}
	return pa
}

func align(x, a uint64) uint64 {
	return (x + a - 1) / a * a
}
