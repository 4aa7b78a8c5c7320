package tlb

import (
	"testing"
	"testing/quick"
)

func TestHugeAllocContiguous(t *testing.T) {
	as := NewAddressSpace()
	va := as.Alloc(3 * HugePageSize)
	base := as.Translate(va)
	for off := uint64(0); off < 3*HugePageSize; off += 4096 {
		if as.Translate(va+off) != base+off {
			t.Fatalf("huge alloc not physically contiguous at offset %#x", off)
		}
	}
}

func TestAllocationsDisjointProperty(t *testing.T) {
	// Property: distinct allocations never share a physical huge page.
	f := func(sizes []uint16) bool {
		as := NewAddressSpace()
		seen := map[uint64]bool{}
		for _, s := range sizes {
			size := uint64(s) + 1
			va := as.Alloc(size)
			first, last := as.Translate(va)>>HugePageBits, as.Translate(va+size-1)>>HugePageBits
			for ppn := first; ppn <= last; ppn++ {
				if seen[ppn] {
					return false
				}
				seen[ppn] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTranslateUnmappedPanics(t *testing.T) {
	as := NewAddressSpace()
	end := as.Alloc(1) + HugePageSize
	for _, va := range []uint64{0, end} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("translate of unmapped address %#x should panic", va)
				}
			}()
			as.Translate(va)
		}()
	}
}
