// Package ir defines the loop-nest intermediate representation the
// near-stream compiler (internal/compiler) analyzes and the simulator
// executes. It stands in for the paper's LLVM IR: kernels are authored
// with the builder API (the role the C frontend plays in the paper), and
// the §III-B passes — stream recognition, computation assignment,
// reduction detection, RMW merging, nesting — run over this
// representation.
//
// A kernel is a nest of loops; each loop body is a DAG of per-iteration
// operations (SSA-like: every op is defined once and referenced by id).
// Loads/stores address arrays through structured address expressions so
// the compiler can recognize affine, indirect, and pointer-chase patterns
// syntactically, exactly as the paper's compiler recognizes them from
// LLVM's scalar evolution.
package ir

import "fmt"

// Type is an element type.
type Type int

const (
	I8 Type = iota
	I32
	I64
	F32
	F64
)

// Size returns the element size in bytes.
func (t Type) Size() int {
	switch t {
	case I8:
		return 1
	case I32, F32:
		return 4
	case I64, F64:
		return 8
	default:
		panic(fmt.Sprintf("ir: unknown type %d", int(t)))
	}
}

// IsFloat reports whether the type is floating point.
func (t Type) IsFloat() bool { return t == F32 || t == F64 }

// String names the type.
func (t Type) String() string {
	switch t {
	case I8:
		return "i8"
	case I32:
		return "i32"
	case I64:
		return "i64"
	case F32:
		return "f32"
	case F64:
		return "f64"
	default:
		return "?"
	}
}

// ValueRef names an op within the enclosing kernel (its index in
// Kernel.Ops). NoValue marks absent optional references.
type ValueRef int

// NoValue is the nil ValueRef.
const NoValue ValueRef = -1

// BinKind is a two-operand arithmetic/logic operation.
type BinKind int

const (
	Add BinKind = iota
	Sub
	Mul
	Div
	Min
	Max
	And
	Or
	Xor
	Shl
	Shr
	CmpEQ // 1 if equal
	CmpLT // 1 if a < b
)

// String names the op.
func (b BinKind) String() string {
	names := []string{"add", "sub", "mul", "div", "min", "max", "and", "or", "xor", "shl", "shr", "cmpeq", "cmplt"}
	if int(b) < len(names) {
		return names[b]
	}
	return "bin?"
}

// AtomicKind is a read-modify-write operation.
type AtomicKind int

const (
	AtomicAdd AtomicKind = iota
	AtomicMin
	AtomicMax
	AtomicCAS // compare-and-swap: swaps New in when old == Expected
	AtomicOr
)

// String names the atomic.
func (a AtomicKind) String() string {
	names := []string{"add", "min", "max", "cas", "or"}
	if int(a) < len(names) {
		return names[a]
	}
	return "atomic?"
}

// OpKind discriminates ops.
type OpKind int

const (
	// OpConst is a literal (Imm holds the bit pattern).
	OpConst OpKind = iota
	// OpParam reads a named kernel parameter (loop-invariant).
	OpParam
	// OpIndex reads the loop index at nesting Level.
	OpIndex
	// OpLoad reads Array[Addr].
	OpLoad
	// OpStore writes Val to Array[Addr].
	OpStore
	// OpAtomic read-modify-writes Array[Addr] with Atomic/Val (and
	// Expected for CAS); its value is the OLD memory value.
	OpAtomic
	// OpBin applies Bin to A, B.
	OpBin
	// OpSelect is Cond != 0 ? A : B.
	OpSelect
	// OpReduce accumulates Val into the named accumulator with Bin;
	// its value is the running accumulator.
	OpReduce
	// OpChaseVar reads the current pointer of the enclosing while loop.
	OpChaseVar
	// OpConvert converts A to the op's Type (bit width change only).
	OpConvert
	// OpAccRead reads a reduction accumulator's current value (used at an
	// outer level after the reducing loop finishes).
	OpAccRead
)

// Addr is a structured address: element index into Array. Exactly one of
// the index forms is active:
//
//   - Affine: index = Sum(Coef[L]*loopIndex[L]) + Offset, optionally plus
//     the value of Base (an outer-loop computed value, which is what makes
//     nested streams configurable from outer streams, Figure 4d).
//   - IndexVal: index = value of another op (indirect access B[A[i]]).
//   - Pointer: the byte address IS the value of another op (+Offset bytes)
//     — pointer chasing.
type Addr struct {
	Array string

	// Affine form.
	Coefs  map[int]int64 // loop level -> element-index coefficient
	Offset int64         // element-index offset
	Base   ValueRef      // optional outer-loop value added to the index

	// Indirect form.
	IndexVal ValueRef

	// Pointer form (byte addressing).
	Pointer    ValueRef
	ByteOffset int64
}

// IsAffine reports whether the address is (nested-)affine.
func (a *Addr) IsAffine() bool { return a.IndexVal == NoValue && a.Pointer == NoValue }

// IsIndirect reports whether the address is value-indexed.
func (a *Addr) IsIndirect() bool { return a.IndexVal != NoValue }

// IsPointer reports whether the address is a raw pointer.
func (a *Addr) IsPointer() bool { return a.Pointer != NoValue }

// Op is one operation in a loop body.
type Op struct {
	Kind OpKind
	Type Type

	// Level is the loop nesting level this op executes at (0 =
	// outermost). Ops at level L run once per level-L iteration.
	Level int

	Imm   uint64 // OpConst
	Param string // OpParam

	Array    string // OpLoad/OpStore/OpAtomic (via Addr.Array, mirrored)
	Addr     Addr
	Val      ValueRef // OpStore/OpAtomic/OpReduce operand
	Expected ValueRef // OpAtomic CAS expected value

	A, B, Cond ValueRef // OpBin/OpSelect/OpConvert operands
	Bin        BinKind
	Atomic     AtomicKind

	// Acc names the accumulator for OpReduce/OpAccRead; reductions with
	// the same name share state within a (core, kernel invocation).
	Acc string
	// AccLevel is the loop level whose iterations each reset the
	// accumulator (-1 = once per kernel invocation).
	AccLevel int
	// Vector marks a SIMD op (the vectorizer's work, for SCC sizing).
	Vector bool
}

// Loop is one level of the nest.
type Loop struct {
	// Var documents the index name.
	Var string
	// Trip selects the count: >0 literal, or via TripParam, or TripVal
	// (an outer-level computed value — nested data-dependent loops).
	Trip      uint64
	TripParam string
	TripVal   ValueRef
	// While marks a pointer-chase loop: iteration continues while
	// ContinueVal evaluates non-zero; the chase pointer starts at
	// StartVal (an outer-level value) and steps to NextVal each
	// iteration.
	While       bool
	StartVal    ValueRef
	NextVal     ValueRef
	ContinueVal ValueRef
}

// ArrayDecl declares a data array.
type ArrayDecl struct {
	Name string
	Type Type
	Len  uint64
}

// Kernel is a complete loop nest.
type Kernel struct {
	Name   string
	Arrays []ArrayDecl
	Loops  []Loop // outermost first
	Ops    []Op
	// SyncFree records the s_sync_free pragma (§V).
	SyncFree bool
	// Params are default parameter values (overridable at run time).
	Params map[string]uint64
}

// NumLevels returns the loop-nest depth.
func (k *Kernel) NumLevels() int { return len(k.Loops) }

// LevelOps splits each loop level's ops, in op order, into its prologue
// (the ops before the first op of a deeper level) and its epilogue (the
// ops after it). The IR has no conditional execution: one iteration of
// level L runs prologue[L], one whole instance of level L+1 (when there
// is one), then epilogue[L].
func (k *Kernel) LevelOps() (prologue, epilogue [][]ValueRef) {
	levels := len(k.Loops)
	prologue = make([][]ValueRef, levels)
	epilogue = make([][]ValueRef, levels)
	for L := 0; L < levels; L++ {
		seenDeeper := false
		for i := range k.Ops {
			switch lv := k.Ops[i].Level; {
			case lv > L:
				seenDeeper = true
			case lv == L && seenDeeper:
				epilogue[L] = append(epilogue[L], ValueRef(i))
			case lv == L:
				prologue[L] = append(prologue[L], ValueRef(i))
			}
		}
	}
	return prologue, epilogue
}

// ArrayByName finds an array declaration.
func (k *Kernel) ArrayByName(name string) (ArrayDecl, bool) {
	for _, a := range k.Arrays {
		if a.Name == name {
			return a, true
		}
	}
	return ArrayDecl{}, false
}

// Validate checks structural invariants: operands must reference earlier
// ops at the same or an outer level, arrays must be declared, levels in
// range.
func (k *Kernel) Validate() error {
	if len(k.Loops) == 0 {
		return fmt.Errorf("ir: kernel %q has no loops", k.Name)
	}
	arrays := map[string]bool{}
	for _, a := range k.Arrays {
		if arrays[a.Name] {
			return fmt.Errorf("ir: duplicate array %q", a.Name)
		}
		arrays[a.Name] = true
	}
	checkRef := func(i int, r ValueRef, what string) error {
		if r == NoValue {
			return nil
		}
		if int(r) >= i {
			return fmt.Errorf("ir: op %d %s references op %d (not strictly earlier)", i, what, r)
		}
		if k.Ops[r].Level > k.Ops[i].Level {
			return fmt.Errorf("ir: op %d (level %d) %s references inner-level op %d (level %d)",
				i, k.Ops[i].Level, what, r, k.Ops[r].Level)
		}
		return nil
	}
	for i := range k.Ops {
		op := &k.Ops[i]
		if op.Level < 0 || op.Level >= len(k.Loops) {
			return fmt.Errorf("ir: op %d level %d outside nest depth %d", i, op.Level, len(k.Loops))
		}
		for _, pr := range []struct {
			r    ValueRef
			what string
		}{
			{op.Val, "val"}, {op.Expected, "expected"}, {op.A, "a"}, {op.B, "b"}, {op.Cond, "cond"},
			{op.Addr.Base, "addr.base"}, {op.Addr.IndexVal, "addr.index"}, {op.Addr.Pointer, "addr.pointer"},
		} {
			if err := checkRef(i, pr.r, pr.what); err != nil {
				return err
			}
		}
		switch op.Kind {
		case OpLoad, OpStore, OpAtomic:
			if !arrays[op.Addr.Array] {
				return fmt.Errorf("ir: op %d accesses undeclared array %q", i, op.Addr.Array)
			}
			forms := 0
			if op.Addr.IsIndirect() {
				forms++
			}
			if op.Addr.IsPointer() {
				forms++
			}
			if forms > 1 {
				return fmt.Errorf("ir: op %d address has multiple index forms", i)
			}
		case OpIndex:
			if op.Imm >= uint64(len(k.Loops)) {
				return fmt.Errorf("ir: op %d indexes loop level %d outside nest", i, op.Imm)
			}
		case OpReduce:
			if op.Acc == "" {
				return fmt.Errorf("ir: op %d reduce without accumulator name", i)
			}
			if op.AccLevel < -1 || op.AccLevel >= len(k.Loops) {
				return fmt.Errorf("ir: op %d accumulator level %d out of range", i, op.AccLevel)
			}
		case OpAccRead:
			if op.Acc == "" {
				return fmt.Errorf("ir: op %d acc-read without accumulator name", i)
			}
		}
	}
	for li, l := range k.Loops {
		if l.While {
			for _, r := range []ValueRef{l.StartVal, l.NextVal, l.ContinueVal} {
				if r == NoValue || int(r) >= len(k.Ops) {
					return fmt.Errorf("ir: loop %d while refs invalid", li)
				}
			}
		} else if l.Trip == 0 && l.TripParam == "" && l.TripVal == NoValue {
			return fmt.Errorf("ir: loop %d has no trip count", li)
		}
	}
	return nil
}
