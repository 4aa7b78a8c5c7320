package tlb

import (
	"testing"
	"testing/quick"
)

func TestPageTableBase(t *testing.T) {
	pt := NewPageTable()
	pt.MapBase(5, 9)
	pa, huge, ok := pt.Translate(5<<BasePageBits | 123)
	if !ok || huge {
		t.Fatal("base translation failed")
	}
	if pa != 9<<BasePageBits|123 {
		t.Fatalf("pa = %#x", pa)
	}
}

func TestPageTableHuge(t *testing.T) {
	pt := NewPageTable()
	pt.MapHuge(3, 7)
	va := uint64(3)<<HugePageBits | 0x12345
	pa, huge, ok := pt.Translate(va)
	if !ok || !huge {
		t.Fatal("huge translation failed")
	}
	if pa != 7<<HugePageBits|0x12345 {
		t.Fatalf("pa = %#x", pa)
	}
}

func TestPageTableUnmapped(t *testing.T) {
	pt := NewPageTable()
	if _, _, ok := pt.Translate(0x1234); ok {
		t.Fatal("unmapped address translated")
	}
}

func TestHugeAllocContiguous(t *testing.T) {
	as := NewAddressSpace(true, 1)
	va := as.Alloc(3 * HugePageSize)
	base := as.Translate(va)
	for off := uint64(0); off < 3*HugePageSize; off += 4096 {
		if as.Translate(va+off) != base+off {
			t.Fatalf("huge alloc not physically contiguous at offset %#x", off)
		}
	}
}

func TestBasePageAllocScattered(t *testing.T) {
	as := NewAddressSpace(false, 1)
	va := as.Alloc(16 * BasePageSize)
	contiguous := true
	base := as.Translate(va)
	for off := uint64(0); off < 16*BasePageSize; off += BasePageSize {
		if as.Translate(va+off) != base+off {
			contiguous = false
		}
	}
	if contiguous {
		t.Fatal("base-page allocation unexpectedly contiguous; scatter broken")
	}
}

func TestAllocationsDisjointProperty(t *testing.T) {
	// Property: distinct allocations never share a physical page.
	f := func(sizes []uint16) bool {
		as := NewAddressSpace(true, 2)
		seen := map[uint64]bool{}
		for _, s := range sizes {
			size := uint64(s) + 1
			va := as.Alloc(size)
			for off := uint64(0); off < size; off += BasePageSize {
				ppn := as.Translate(va+off) >> BasePageBits
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
	as := NewAddressSpace(true, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("translate of unmapped address should panic")
		}
	}()
	as.Translate(0)
}

// TestResetReseedMatchesFresh pins the pooled-machine contract: an
// address space Reset and reseeded to seed B scatters its base pages
// exactly like one built fresh with seed B.
func TestResetReseedMatchesFresh(t *testing.T) {
	used := NewAddressSpace(false, 1)
	used.Alloc(5 * BasePageSize)
	used.Reset()
	used.Reseed(7)
	fresh := NewAddressSpace(false, 7)
	for i := 0; i < 4; i++ {
		a, b := used.Alloc(3*BasePageSize), fresh.Alloc(3*BasePageSize)
		if a != b {
			t.Fatalf("alloc %d: va %#x, fresh %#x", i, a, b)
		}
		for p := uint64(0); p < 3; p++ {
			va := a + p*BasePageSize
			if used.Translate(va) != fresh.Translate(va) {
				t.Fatalf("alloc %d page %d: pa %#x, fresh %#x", i, p, used.Translate(va), fresh.Translate(va))
			}
		}
	}
}
