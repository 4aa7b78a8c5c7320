// Package tlb models the address space: every allocation is backed by
// 2 MB huge pages, so each data structure is physically contiguous (the
// §IV-A assumption that range-based synchronization, §IV-B, relies on).
// Pages are laid out at PA == VA. Translation is functional — it charges
// no cycles; the SE_L3-colocated TLB of Table V is modelled by the
// near-stream runtime (internal/core), and core-side translation latency
// is zero because every workload runs on huge pages.
package tlb

import "fmt"

// Huge-page geometry.
const (
	HugePageBits = 21 // 2 MB
	HugePageSize = 1 << HugePageBits
)

// AddressSpace allocates huge-page-backed regions with a bump pointer.
// Page 0 stays unmapped so that nil-like addresses stay invalid.
type AddressSpace struct {
	next uint64 // first unmapped address above every allocation
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{next: HugePageSize}
}

// Alloc reserves size bytes, padded to whole huge pages, and returns the
// region's base address.
func (as *AddressSpace) Alloc(size uint64) uint64 {
	if size == 0 {
		size = 1
	}
	va := as.next
	as.next += (size + HugePageSize - 1) / HugePageSize * HugePageSize
	return va
}

// Translate resolves va to its physical address (va itself), panicking
// on unmapped addresses: workloads only touch allocated memory, so a miss
// is a generator bug.
func (as *AddressSpace) Translate(va uint64) uint64 {
	if va < HugePageSize || va >= as.next {
		panic(fmt.Sprintf("tlb: access to unmapped address %#x", va))
	}
	return va
}
