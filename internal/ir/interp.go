package ir

import (
	"fmt"
	"math"
)

// MemEvent describes one dynamic memory access during interpretation.
type MemEvent struct {
	Op     *Op
	OpID   ValueRef
	Addr   uint64 // virtual address
	Size   int
	Write  bool
	Atomic bool
	// Changed reports whether an atomic modified memory (false for a
	// failed CAS or a non-improving min/max) — the MRSW lock optimization
	// of §IV-C keys on this.
	Changed bool
	// Old and New are the memory values around the access.
	Old, New uint64
}

// Hooks observe interpretation for trace-driven timing and μop accounting.
type Hooks struct {
	// OnOp fires for every executed op, including memory ops.
	OnOp func(id ValueRef, op *Op)
	// OnMem fires for every memory access.
	OnMem func(ev MemEvent)
	// OnIter fires at the start of each iteration of each loop level.
	OnIter func(level int, index uint64)
}

// maxWhileIters guards against runaway pointer chases.
const maxWhileIters = 100_000_000

// Exec interprets a kernel functionally over a partition of the outermost
// loop [outerLo, outerHi). It returns the accumulators (by name) that were
// reset at least once, at their final values. params override the
// kernel's default Params. hooks may be nil.
//
// Names (arrays, parameters, accumulators) are resolved once per call
// into per-op tables; a name that does not resolve still fails only when
// an op using it executes.
func Exec(k *Kernel, d *Data, params map[string]uint64, outerLo, outerHi uint64, hooks *Hooks) (map[string]uint64, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	in := &interp{
		k: k, d: d, hooks: hooks,
		vals:  make([]uint64, len(k.Ops)),
		idx:   make([]uint64, len(k.Loops)),
		chase: make([]uint64, len(k.Loops)),
	}
	in.resolve(params)
	in.splitLevels()
	if err := in.runLevel(0, outerLo, outerHi); err != nil {
		return nil, err
	}
	accs := make(map[string]uint64, len(in.accNames))
	for slot, name := range in.accNames {
		if in.accSet[slot] {
			accs[name] = in.accs[slot]
		}
	}
	return accs, nil
}

type interp struct {
	k     *Kernel
	d     *Data
	hooks *Hooks
	vals  []uint64
	idx   []uint64
	chase []uint64
	// ops[i] holds op i's resolved names and trips[L] loop L's trip
	// parameter (see resolve).
	ops   []resolvedOp
	trips []param
	// accs/accSet are the accumulators by slot; accNames[slot] is the
	// accumulator's name.
	accs     []uint64
	accSet   []bool
	accNames []string
	// prologue[L] and epilogue[L] are level L's ops (see LevelOps).
	prologue [][]ValueRef
	epilogue [][]ValueRef
	// accResets[L+1] lists, in op order, the reduce ops whose accumulators
	// reset at each entry to level L (L = -1: kernel-wide, once).
	accResets [][]int
}

// resolvedOp is an op's names resolved for one Exec.
type resolvedOp struct {
	// arr is a memory op's array (nil when d has no such array).
	arr *ArrayData
	// coefs are an affine memory op's (level, coefficient) pairs.
	coefs []levelCoef
	// acc is an OpReduce/OpAccRead's accumulator slot.
	acc int
	// param is an OpParam's value.
	param param
}

type levelCoef struct {
	level int
	coef  int64
}

// param is a parameter's value and whether it was given.
type param struct {
	v  uint64
	ok bool
}

// resolve builds the per-op and per-loop name tables: params (falling
// back to the kernel's defaults) for OpParam ops and trip parameters,
// arrays and affine coefficients for memory ops, and one accumulator slot
// per distinct accumulator name.
func (in *interp) resolve(params map[string]uint64) {
	lookup := func(name string) param {
		if v, ok := params[name]; ok {
			return param{v, true}
		}
		v, ok := in.k.Params[name]
		return param{v, ok}
	}
	in.ops = make([]resolvedOp, len(in.k.Ops))
	slots := map[string]int{}
	for i := range in.k.Ops {
		op, r := &in.k.Ops[i], &in.ops[i]
		switch op.Kind {
		case OpParam:
			r.param = lookup(op.Param)
		case OpLoad, OpStore, OpAtomic:
			r.arr, _ = in.d.ArrayOK(op.Addr.Array)
			if op.Addr.IsAffine() {
				for level, coef := range op.Addr.Coefs {
					r.coefs = append(r.coefs, levelCoef{level, coef})
				}
			}
		case OpReduce, OpAccRead:
			slot, ok := slots[op.Acc]
			if !ok {
				slot = len(in.accNames)
				slots[op.Acc] = slot
				in.accNames = append(in.accNames, op.Acc)
			}
			r.acc = slot
		}
	}
	in.accs = make([]uint64, len(in.accNames))
	in.accSet = make([]bool, len(in.accNames))
	in.trips = make([]param, len(in.k.Loops))
	for L, loop := range in.k.Loops {
		if loop.TripParam != "" {
			in.trips[L] = lookup(loop.TripParam)
		}
	}
}

// splitLevels takes each level's prologue and epilogue from LevelOps and
// lists the reduce ops whose accumulators each level resets.
func (in *interp) splitLevels() {
	in.prologue, in.epilogue = in.k.LevelOps()
	in.accResets = make([][]int, len(in.k.Loops)+1)
	for i := range in.k.Ops {
		if op := &in.k.Ops[i]; op.Kind == OpReduce { // Exec validated AccLevel
			in.accResets[op.AccLevel+1] = append(in.accResets[op.AccLevel+1], i)
		}
	}
}

// resetAccs clears accumulators bound to level L (-1: kernel-wide).
func (in *interp) resetAccs(L int) {
	for _, i := range in.accResets[L+1] {
		slot := in.ops[i].acc
		in.accs[slot] = in.k.Ops[i].Imm
		in.accSet[slot] = true
	}
}

func (in *interp) runLevel(L int, lo, hi uint64) error {
	if L == 0 {
		// Kernel-wide accumulators initialize once.
		in.resetAccs(-1)
	}
	loop := &in.k.Loops[L]
	if loop.While {
		return in.runWhile(L)
	}
	trip := hi
	start := lo
	if L != 0 {
		start = 0
		trip = in.tripOf(L)
	}
	for i := start; i < trip; i++ {
		in.idx[L] = i
		if in.hooks != nil && in.hooks.OnIter != nil {
			in.hooks.OnIter(L, i)
		}
		in.resetAccs(L)
		if err := in.runBody(L); err != nil {
			return err
		}
	}
	return nil
}

func (in *interp) tripOf(L int) uint64 {
	loop := &in.k.Loops[L]
	switch {
	case loop.TripVal != NoValue:
		return in.vals[loop.TripVal]
	case loop.TripParam != "":
		p := in.trips[L]
		if !p.ok {
			panic(fmt.Sprintf("ir: missing trip parameter %q", loop.TripParam))
		}
		return p.v
	default:
		return loop.Trip
	}
}

func (in *interp) runWhile(L int) error {
	loop := &in.k.Loops[L]
	in.chase[L] = in.vals[loop.StartVal]
	for iter := 0; ; iter++ {
		if iter >= maxWhileIters {
			return fmt.Errorf("ir: while loop at level %d exceeded %d iterations", L, maxWhileIters)
		}
		if in.chase[L] == 0 {
			return nil // nil pointer terminates
		}
		in.idx[L] = uint64(iter)
		if in.hooks != nil && in.hooks.OnIter != nil {
			in.hooks.OnIter(L, uint64(iter))
		}
		in.resetAccs(L)
		if err := in.runBody(L); err != nil {
			return err
		}
		if in.vals[loop.ContinueVal] == 0 {
			return nil
		}
		in.chase[L] = in.vals[loop.NextVal]
	}
}

func (in *interp) runBody(L int) error {
	for _, i := range in.prologue[L] {
		if err := in.eval(i); err != nil {
			return err
		}
	}
	if L+1 < len(in.k.Loops) {
		if err := in.runLevel(L+1, 0, 0); err != nil {
			return err
		}
	}
	for _, i := range in.epilogue[L] {
		if err := in.eval(i); err != nil {
			return err
		}
	}
	return nil
}

// address resolves op id's Addr to (array, element index).
func (in *interp) address(id ValueRef, op *Op) (*ArrayData, uint64) {
	r := &in.ops[id]
	a := r.arr
	if a == nil {
		a = in.d.Array(op.Addr.Array) // panics: unknown array
	}
	switch {
	case op.Addr.IsPointer():
		ptr := in.vals[op.Addr.Pointer]
		va := uint64(int64(ptr) + op.Addr.ByteOffset)
		arr, idx := in.d.Resolve(va)
		return arr, idx
	case op.Addr.IsIndirect():
		return a, in.vals[op.Addr.IndexVal]
	default:
		idx := op.Addr.Offset
		for _, c := range r.coefs {
			idx += c.coef * int64(in.idx[c.level])
		}
		if op.Addr.Base != NoValue {
			idx += int64(in.vals[op.Addr.Base])
		}
		return a, uint64(idx)
	}
}

func (in *interp) eval(id ValueRef) error {
	op := &in.k.Ops[id]
	if in.hooks != nil && in.hooks.OnOp != nil {
		in.hooks.OnOp(id, op)
	}
	switch op.Kind {
	case OpConst:
		in.vals[id] = op.Imm
	case OpParam:
		p := in.ops[id].param
		if !p.ok {
			return fmt.Errorf("ir: missing parameter %q", op.Param)
		}
		in.vals[id] = p.v
	case OpIndex:
		in.vals[id] = in.idx[op.Imm]
	case OpChaseVar:
		in.vals[id] = in.chase[op.Level]
	case OpConvert:
		in.vals[id] = convert(op.Type, in.k.Ops[op.A].Type, in.vals[op.A])
	case OpBin:
		in.vals[id] = binOp(op.Type, op.Bin, in.vals[op.A], in.vals[op.B])
	case OpSelect:
		if in.vals[op.Cond] != 0 {
			in.vals[id] = in.vals[op.A]
		} else {
			in.vals[id] = in.vals[op.B]
		}
	case OpReduce:
		slot := in.ops[id].acc
		if !in.accSet[slot] {
			return fmt.Errorf("ir: accumulator %q used before reset (AccLevel wrong?)", op.Acc)
		}
		in.accs[slot] = binOp(op.Type, op.Bin, in.accs[slot], in.vals[op.Val])
		in.vals[id] = in.accs[slot]
	case OpAccRead:
		in.vals[id] = in.accs[in.ops[id].acc]
	case OpLoad:
		arr, idx := in.address(id, op)
		v := arr.Get(idx)
		in.vals[id] = v
		in.emitMem(id, op, arr, idx, false, false, false, v, v)
	case OpStore:
		arr, idx := in.address(id, op)
		old := arr.Get(idx)
		v := in.vals[op.Val]
		arr.Set(idx, v)
		in.emitMem(id, op, arr, idx, true, false, old != v, old, v)
		in.vals[id] = v
	case OpAtomic:
		arr, idx := in.address(id, op)
		old := arr.Get(idx)
		var next uint64
		switch op.Atomic {
		case AtomicAdd:
			next = binOp(op.Type, Add, old, in.vals[op.Val])
		case AtomicMin:
			next = binOp(op.Type, Min, old, in.vals[op.Val])
		case AtomicMax:
			next = binOp(op.Type, Max, old, in.vals[op.Val])
		case AtomicOr:
			next = old | in.vals[op.Val]
		case AtomicCAS:
			if old == in.vals[op.Expected] {
				next = in.vals[op.Val]
			} else {
				next = old
			}
		default:
			return fmt.Errorf("ir: unknown atomic kind %d", op.Atomic)
		}
		arr.Set(idx, next)
		in.emitMem(id, op, arr, idx, true, true, next != old, old, next)
		in.vals[id] = old
	default:
		return fmt.Errorf("ir: unknown op kind %d", op.Kind)
	}
	return nil
}

func (in *interp) emitMem(id ValueRef, op *Op, arr *ArrayData, idx uint64, write, atomic, changed bool, old, new uint64) {
	if in.hooks == nil || in.hooks.OnMem == nil {
		return
	}
	in.hooks.OnMem(MemEvent{
		Op: op, OpID: id,
		Addr: arr.AddrOf(idx), Size: op.Type.Size(),
		Write: write, Atomic: atomic, Changed: changed,
		Old: old, New: new,
	})
}

// convert changes bit width/type.
func convert(to, from Type, v uint64) uint64 {
	switch {
	case from.IsFloat() && to.IsFloat():
		return floatBits(to, bitsToFloat(from, v))
	case from.IsFloat() && !to.IsFloat():
		return uint64(int64(bitsToFloat(from, v)))
	case !from.IsFloat() && to.IsFloat():
		return floatBits(to, float64(int64(v)))
	default:
		switch to {
		case I8:
			return v & 0xff
		case I32:
			return v & 0xffff_ffff
		default:
			return v
		}
	}
}

// binOp applies a binary op to bit patterns of type t.
func binOp(t Type, kind BinKind, a, b uint64) uint64 {
	if t.IsFloat() {
		x, y := bitsToFloat(t, a), bitsToFloat(t, b)
		var r float64
		switch kind {
		case Add:
			r = x + y
		case Sub:
			r = x - y
		case Mul:
			r = x * y
		case Div:
			r = x / y
		case Min:
			r = math.Min(x, y)
		case Max:
			r = math.Max(x, y)
		case CmpEQ:
			if x == y {
				return 1
			}
			return 0
		case CmpLT:
			if x < y {
				return 1
			}
			return 0
		default:
			panic(fmt.Sprintf("ir: float %v unsupported", kind))
		}
		return floatBits(t, r)
	}
	x, y := int64(a), int64(b)
	mask := uint64(math.MaxUint64)
	if t == I32 {
		x, y = int64(int32(a)), int64(int32(b))
		mask = 0xffff_ffff
	} else if t == I8 {
		x, y = int64(int8(a)), int64(int8(b))
		mask = 0xff
	}
	var r int64
	switch kind {
	case Add:
		r = x + y
	case Sub:
		r = x - y
	case Mul:
		r = x * y
	case Div:
		if y == 0 {
			panic("ir: integer divide by zero")
		}
		r = x / y
	case Min:
		if x < y {
			r = x
		} else {
			r = y
		}
	case Max:
		if x > y {
			r = x
		} else {
			r = y
		}
	case And:
		r = x & y
	case Or:
		r = x | y
	case Xor:
		r = x ^ y
	case Shl:
		r = x << uint(y&63)
	case Shr:
		r = int64(uint64(x) >> uint(y&63))
	case CmpEQ:
		if x == y {
			return 1
		}
		return 0
	case CmpLT:
		if x < y {
			return 1
		}
		return 0
	default:
		panic(fmt.Sprintf("ir: int %v unsupported", kind))
	}
	return uint64(r) & mask
}
