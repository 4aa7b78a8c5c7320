package ir

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/tlb"
)

// floatBits converts a float value to its stored bit pattern for type t.
func floatBits(t Type, v float64) uint64 {
	if t == F32 {
		return uint64(math.Float32bits(float32(v)))
	}
	return math.Float64bits(v)
}

// bitsToFloat converts a stored bit pattern to a float for type t.
func bitsToFloat(t Type, bits uint64) float64 {
	if t == F32 {
		return float64(math.Float32frombits(uint32(bits)))
	}
	return math.Float64frombits(bits)
}

// ArrayData is one allocated array: declaration, virtual base address, and
// element bit patterns.
type ArrayData struct {
	Decl ArrayDecl
	Base uint64
	bits []uint64
}

// Len returns the element count.
func (a *ArrayData) Len() uint64 { return a.Decl.Len }

// Get returns element i's bit pattern.
func (a *ArrayData) Get(i uint64) uint64 {
	if i >= a.Decl.Len {
		panic(fmt.Sprintf("ir: %s[%d] out of bounds (len %d)", a.Decl.Name, i, a.Decl.Len))
	}
	return a.bits[i]
}

// Set stores element i's bit pattern.
func (a *ArrayData) Set(i, v uint64) {
	if i >= a.Decl.Len {
		panic(fmt.Sprintf("ir: %s[%d] out of bounds (len %d)", a.Decl.Name, i, a.Decl.Len))
	}
	a.bits[i] = v
}

// GetF / SetF access elements as floats.
func (a *ArrayData) GetF(i uint64) float64 { return bitsToFloat(a.Decl.Type, a.Get(i)) }

// SetF stores a float element.
func (a *ArrayData) SetF(i uint64, v float64) { a.Set(i, floatBits(a.Decl.Type, v)) }

// AddrOf returns the virtual address of element i.
func (a *ArrayData) AddrOf(i uint64) uint64 {
	return a.Base + i*uint64(a.Decl.Type.Size())
}

// EndAddr returns one past the last byte.
func (a *ArrayData) EndAddr() uint64 {
	return a.Base + a.Decl.Len*uint64(a.Decl.Type.Size())
}

// Data owns a kernel's arrays and their address-space backing. Element
// values are bit patterns; the type in the declaration says how to
// interpret them.
type Data struct {
	AS     *tlb.AddressSpace
	arrays map[string]*ArrayData
	sorted []*ArrayData // by base address, for pointer-form resolution
}

// NewData creates a data store over an address space.
func NewData(as *tlb.AddressSpace) *Data {
	return &Data{AS: as, arrays: map[string]*ArrayData{}}
}

// AllocArrays allocates every declared array of a kernel (idempotent per
// name: re-declaring a name panics).
func (d *Data) AllocArrays(k *Kernel) {
	for _, decl := range k.Arrays {
		d.Alloc(decl)
	}
}

// Alloc allocates one array.
func (d *Data) Alloc(decl ArrayDecl) *ArrayData {
	if _, dup := d.arrays[decl.Name]; dup {
		panic(fmt.Sprintf("ir: array %q allocated twice", decl.Name))
	}
	bytes := decl.Len * uint64(decl.Type.Size())
	base := d.AS.Alloc(bytes)
	a := &ArrayData{Decl: decl, Base: base, bits: make([]uint64, decl.Len)}
	d.arrays[decl.Name] = a
	d.sorted = append(d.sorted, a)
	sort.Slice(d.sorted, func(i, j int) bool { return d.sorted[i].Base < d.sorted[j].Base })
	return a
}

// ArrayOK returns a named array and whether it exists.
func (d *Data) ArrayOK(name string) (*ArrayData, bool) {
	a, ok := d.arrays[name]
	return a, ok
}

// Array returns a named array; it panics when missing (workload bug).
func (d *Data) Array(name string) *ArrayData {
	a, ok := d.arrays[name]
	if !ok {
		panic(fmt.Sprintf("ir: unknown array %q", name))
	}
	return a
}

// Resolve maps a virtual address to (array, element index). Used by
// pointer-form accesses.
func (d *Data) Resolve(addr uint64) (*ArrayData, uint64) {
	i := sort.Search(len(d.sorted), func(i int) bool { return d.sorted[i].Base > addr })
	if i == 0 {
		panic(fmt.Sprintf("ir: address %#x below all arrays", addr))
	}
	a := d.sorted[i-1]
	if addr >= a.EndAddr() {
		panic(fmt.Sprintf("ir: address %#x past end of %s", addr, a.Decl.Name))
	}
	off := addr - a.Base
	return a, off / uint64(a.Decl.Type.Size())
}
