package cache

import (
	"testing"
	"testing/quick"
)

func testArray(policy ReplacementPolicy) *Array {
	return NewArray(ArrayConfig{SizeBytes: 1024, Ways: 2, Policy: policy, Latency: 1}, 1)
}

func TestArrayGeometry(t *testing.T) {
	a := testArray(LRU)
	if a.Config().Sets() != 8 {
		t.Fatalf("sets = %d, want 8", a.Config().Sets())
	}
}

func TestArrayLookupMissThenHit(t *testing.T) {
	a := testArray(LRU)
	if a.Lookup(0x40) != nil {
		t.Fatal("empty array hit")
	}
	a.Insert(0x40, Shared)
	l := a.Lookup(0x43) // same line
	if l == nil {
		t.Fatal("inserted line missed")
	}
	if l.State != Shared {
		t.Fatalf("state = %v", l.State)
	}
}

func TestArrayLineAddr(t *testing.T) {
	a := testArray(LRU)
	if a.LineAddr(0x7f) != 0x40 {
		t.Fatalf("LineAddr(0x7f) = %#x", a.LineAddr(0x7f))
	}
}

func TestArrayLRUEviction(t *testing.T) {
	a := testArray(LRU)
	// Three lines mapping to set 0 in a 2-way array: stride = sets*line = 512.
	a.Insert(0, Shared)
	a.Insert(512, Shared)
	a.Lookup(0) // make line 0 most recent
	_, victim := a.Insert(1024, Shared)
	if !victim.Valid() || victim.Tag != 512/64 {
		t.Fatalf("victim tag = %#x, want line 512", victim.Tag*64)
	}
	if a.Peek(0) == nil || a.Peek(1024) == nil {
		t.Fatal("survivors wrong")
	}
}

func TestArrayInvalidate(t *testing.T) {
	a := testArray(LRU)
	l, _ := a.Insert(0x100, Modified)
	l.Dirty = true
	old := a.Invalidate(0x100)
	if !old.Valid() || !old.Dirty || old.State != Modified {
		t.Fatalf("invalidate returned %+v", old)
	}
	if a.Peek(0x100) != nil {
		t.Fatal("line still present")
	}
	if a.Invalidate(0x100).Valid() {
		t.Fatal("double invalidate returned valid line")
	}
}

func TestArrayPeekDoesNotPromote(t *testing.T) {
	a := testArray(LRU)
	a.Insert(0, Shared)
	a.Insert(512, Shared)
	a.Peek(0) // must NOT refresh line 0
	_, victim := a.Insert(1024, Shared)
	if victim.Tag != 0 {
		t.Fatalf("peek promoted the line; victim = %#x", victim.Tag*64)
	}
}

func TestBRRIPEvictsSomething(t *testing.T) {
	a := testArray(BRRIP)
	// 16 lines, all mapping to set 0 of a 2-way array: occupancy must cap
	// at the associativity and the latest insert must be resident.
	for i := uint64(0); i < 16; i++ {
		a.Insert(i*512, Shared)
		if a.Peek(i*512) == nil {
			t.Fatalf("just-inserted line %d missing", i)
		}
	}
	if a.CountValid() != 2 {
		t.Fatalf("valid = %d, want 2 (set capacity)", a.CountValid())
	}
}

func TestArrayCapacityInvariant(t *testing.T) {
	// Property: valid count never exceeds capacity; lookups after insert hit.
	f := func(addrs []uint16, brrip bool) bool {
		policy := LRU
		if brrip {
			policy = BRRIP
		}
		a := testArray(policy)
		for _, x := range addrs {
			addr := uint64(x) * 64
			a.Insert(addr, Shared)
			if a.Peek(addr) == nil {
				return false // just-inserted line must be present
			}
			if a.CountValid() > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStateStrings(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Exclusive.String() != "E" || Modified.String() != "M" {
		t.Fatal("MESI state names wrong")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size not a multiple of ways*line should panic")
		}
	}()
	NewArray(ArrayConfig{SizeBytes: 960, Ways: 2}, 1)
}
