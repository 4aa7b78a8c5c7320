// Package workloads implements the 14 evaluation kernels of Table VI —
// Rodinia's pathfinder/srad/hotspot/hotspot3D, histogram, MineBench's
// scluster/svm, the GAP graph suite's bfs (push+pull), pr (push+pull) and
// sssp, plus bin_tree and hash_join — each authored in the loop-nest IR
// (the role C source plays in the paper) together with its data
// generators (Kronecker graphs with A/B/C = 0.57/0.19/0.19, matrices,
// trees, hash tables).
package workloads

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/tlb"
)

// Scale selects workload sizing.
type Scale int

const (
	// ScaleCI is the test/benchmark scale: sizes reduced so a 4×4-mesh
	// simulation finishes in seconds. Used with the harness's
	// proportionally reduced caches so the §IV-B offload policy sees the
	// same footprint ratios as the paper configuration.
	ScaleCI Scale = iota
	// ScalePaper approximates Table VI sizes (large; minutes per run).
	ScalePaper
)

// String names the scale.
func (s Scale) String() string {
	if s == ScalePaper {
		return "paper"
	}
	return "ci"
}

// ParseScale returns the scale a name (Scale.String) names; an unknown
// name is an error listing the valid ones.
func ParseScale(name string) (Scale, error) {
	for _, s := range []Scale{ScaleCI, ScalePaper} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scale %q (want ci, paper)", name)
}

// Workload is one benchmark: kernel, inputs, and Table VI metadata.
type Workload struct {
	Name string
	// AddrClass and CmpClass are the Table VI taxonomy labels.
	AddrClass, CmpClass string
	// Iters is the outer repetition count ("8 iters" in Table VI); the
	// harness re-runs the kernel on a warm machine.
	Iters int
	// Kernel is the loop-nest IR.
	Kernel *ir.Kernel
	// Params are runtime kernel parameters.
	Params map[string]uint64
	// Init fills the arrays (deterministic from the seed).
	Init func(d *ir.Data, r *sim.Rand)
	// Check validates functional results after a run (optional); accs
	// aggregates per-core accumulators.
	Check func(d *ir.Data, accs map[string]uint64) error
}

// NewData builds the workload's data image for a job seeded with seed:
// every array the kernel declares, allocated in as and filled by Init.
func (w *Workload) NewData(as *tlb.AddressSpace, seed uint64) *ir.Data {
	d := ir.NewData(as)
	d.AllocArrays(w.Kernel)
	w.Init(d, sim.NewRand(seed^0x9e37))
	return d
}

// Names lists every workload in Table VI order.
func Names() []string {
	return []string{
		"pathfinder", "srad", "hotspot", "hotspot3d", "histogram",
		"scluster", "svm", "bfs_push", "pr_push", "sssp",
		"bfs_pull", "pr_pull", "bin_tree", "hash_join",
	}
}

// CheckNames reports whether every name is a workload; the first
// unknown name is an error listing the valid ones.
func CheckNames(names ...string) error {
	for _, name := range names {
		if !slices.Contains(Names(), name) {
			return fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(Names(), ", "))
		}
	}
	return nil
}

// Get builds one workload at a scale. Unknown names panic: callers check
// them with CheckNames.
func Get(name string, scale Scale) *Workload {
	switch name {
	case "pathfinder":
		return pathfinder(scale)
	case "srad":
		return srad(scale)
	case "hotspot":
		return hotspot(scale)
	case "hotspot3d":
		return hotspot3D(scale)
	case "histogram":
		return histogram(scale)
	case "scluster":
		return scluster(scale)
	case "svm":
		return svm(scale)
	case "bfs_push":
		return bfsPush(scale)
	case "pr_push":
		return prPush(scale)
	case "sssp":
		return sssp(scale)
	case "bfs_pull":
		return bfsPull(scale)
	case "pr_pull":
		return prPull(scale)
	case "bin_tree":
		return binTree(scale)
	case "hash_join":
		return hashJoin(scale)
	default:
		panic("workloads: " + CheckNames(name).Error())
	}
}

// All builds every workload.
func All(scale Scale) []*Workload {
	out := make([]*Workload, 0, len(Names()))
	for _, n := range Names() {
		out = append(out, Get(n, scale))
	}
	return out
}

// --- Rodinia: multi-operand affine store kernels ---

// pathfinder: dst[i] = src[i] + min(wall[i-1], wall[i], wall[i+1]),
// row-by-row dynamic programming (Table VI: 1.5M entries, 8 iters).
func pathfinder(scale Scale) *Workload {
	n := uint64(96 << 10)
	iters := 2
	if scale == ScalePaper {
		n = 1500 << 10
		iters = 8
	}
	b := ir.NewKernel("pathfinder").
		Array("wall", ir.I32, n+2).Array("src", ir.I32, n).Array("dst", ir.I32, n)
	b.SyncFree()
	b.LoopN("i", "n")
	b.Param("n", n)
	l := b.Load(ir.I32, ir.AffineAddr("wall", 0, map[int]int64{0: 1}))
	c := b.Load(ir.I32, ir.AffineAddr("wall", 1, map[int]int64{0: 1}))
	r := b.Load(ir.I32, ir.AffineAddr("wall", 2, map[int]int64{0: 1}))
	s := b.Load(ir.I32, ir.AffineAddr("src", 0, map[int]int64{0: 1}))
	m1 := b.VecBin(ir.I32, ir.Min, l, c)
	m2 := b.VecBin(ir.I32, ir.Min, m1, r)
	sum := b.VecBin(ir.I32, ir.Add, s, m2)
	b.Store(ir.I32, ir.AffineAddr("dst", 0, map[int]int64{0: 1}), sum)
	k := b.Build()
	return &Workload{
		Name: "pathfinder", AddrClass: "MO", CmpClass: "Store", Iters: iters,
		Kernel: k,
		Init: func(d *ir.Data, r *sim.Rand) {
			wall, src := d.Array("wall"), d.Array("src")
			for i := uint64(0); i < n+2; i++ {
				wall.Set(i, uint64(r.Intn(10)))
			}
			for i := uint64(0); i < n; i++ {
				src.Set(i, uint64(r.Intn(10)))
			}
		},
		Check: func(d *ir.Data, accs map[string]uint64) error {
			w, s, dst := d.Array("wall"), d.Array("src"), d.Array("dst")
			for _, i := range []uint64{0, n / 2, n - 1} {
				want := s.Get(i) + min(w.Get(i), w.Get(i+1), w.Get(i+2))
				if dst.Get(i) != want {
					return fmt.Errorf("pathfinder: dst[%d]=%d want %d", i, dst.Get(i), want)
				}
			}
			return nil
		},
	}
}

// stencil2D builds a 5-point stencil kernel out[r][c] =
// k0*in[r][c] + k1*(N+S+E+W); srad and hotspot share the shape with
// different coefficients and array names.
func stencil2D(name string, rows, cols uint64, k0, k1 float64) *ir.Kernel {
	b := ir.NewKernel(name).
		Array("in", ir.F32, rows*cols).Array("out", ir.F32, rows*cols)
	b.SyncFree()
	b.LoopN("r", "rows")
	b.Param("rows", rows-2)
	b.Loop("c", cols-2)
	rc := int64(cols)
	center := b.Load(ir.F32, ir.AffineAddr("in", rc+1, map[int]int64{0: rc, 1: 1}))
	north := b.Load(ir.F32, ir.AffineAddr("in", 1, map[int]int64{0: rc, 1: 1}))
	south := b.Load(ir.F32, ir.AffineAddr("in", 2*rc+1, map[int]int64{0: rc, 1: 1}))
	west := b.Load(ir.F32, ir.AffineAddr("in", rc, map[int]int64{0: rc, 1: 1}))
	east := b.Load(ir.F32, ir.AffineAddr("in", rc+2, map[int]int64{0: rc, 1: 1}))
	c0 := b.ConstF(ir.F32, k0)
	c1 := b.ConstF(ir.F32, k1)
	s1 := b.VecBin(ir.F32, ir.Add, north, south)
	s2 := b.VecBin(ir.F32, ir.Add, east, west)
	s3 := b.VecBin(ir.F32, ir.Add, s1, s2)
	t1 := b.VecBin(ir.F32, ir.Mul, center, c0)
	t2 := b.VecBin(ir.F32, ir.Mul, s3, c1)
	res := b.VecBin(ir.F32, ir.Add, t1, t2)
	b.Store(ir.F32, ir.AffineAddr("out", rc+1, map[int]int64{0: rc, 1: 1}), res)
	return b.Build()
}

func stencilInit(rows, cols uint64) func(d *ir.Data, r *sim.Rand) {
	return func(d *ir.Data, r *sim.Rand) {
		in := d.Array("in")
		for i := uint64(0); i < rows*cols; i++ {
			in.SetF(i, r.Float64())
		}
	}
}

// srad: speckle-reducing anisotropic diffusion (Table VI: 1k×2k, 8 iters).
func srad(scale Scale) *Workload {
	rows, cols, iters := uint64(96), uint64(1024), 2
	if scale == ScalePaper {
		rows, cols, iters = 1024, 2048, 8
	}
	return &Workload{
		Name: "srad", AddrClass: "MO", CmpClass: "Store", Iters: iters,
		Kernel: stencil2D("srad", rows, cols, 0.6, 0.1),
		Init:   stencilInit(rows, cols),
	}
}

// hotspot: thermal simulation (Table VI: 2k×1k, 8 iters).
func hotspot(scale Scale) *Workload {
	rows, cols, iters := uint64(192), uint64(512), 2
	if scale == ScalePaper {
		rows, cols, iters = 2048, 1024, 8
	}
	return &Workload{
		Name: "hotspot", AddrClass: "MO", CmpClass: "Store", Iters: iters,
		Kernel: stencil2D("hotspot", rows, cols, 0.8, 0.05),
		Init:   stencilInit(rows, cols),
	}
}

// hotspot3D: 7-point 3-D stencil (Table VI: 256×1k×8, 8 iters); 8 operand
// streams — the Table IV argument-count limit.
func hotspot3D(scale Scale) *Workload {
	nx, ny, nz, iters := uint64(64), uint64(64), uint64(8), 2
	if scale == ScalePaper {
		nx, ny, nz, iters = 256, 1024, 8, 8
	}
	total := nx * ny * nz
	b := ir.NewKernel("hotspot3d").
		Array("in", ir.F32, total).Array("pow", ir.F32, total).Array("out", ir.F32, total)
	b.SyncFree()
	b.LoopN("z", "nz")
	b.Param("nz", nz-2)
	b.Loop("y", ny-2)
	b.Loop("x", nx-2)
	sx, sy, sz := int64(1), int64(nx), int64(nx*ny)
	at := func(off int64) ir.Addr {
		return ir.AffineAddr("in", off+sx+sy+sz, map[int]int64{0: sz, 1: sy, 2: sx})
	}
	c := b.Load(ir.F32, at(0))
	xm := b.Load(ir.F32, at(-sx))
	xp := b.Load(ir.F32, at(sx))
	ym := b.Load(ir.F32, at(-sy))
	yp := b.Load(ir.F32, at(sy))
	zm := b.Load(ir.F32, at(-sz))
	zp := b.Load(ir.F32, at(sz))
	p := b.Load(ir.F32, ir.AffineAddr("pow", sx+sy+sz, map[int]int64{0: sz, 1: sy, 2: sx}))
	cc := b.ConstF(ir.F32, 0.5)
	cn := b.ConstF(ir.F32, 0.0833)
	a1 := b.VecBin(ir.F32, ir.Add, xm, xp)
	a2 := b.VecBin(ir.F32, ir.Add, ym, yp)
	a3 := b.VecBin(ir.F32, ir.Add, zm, zp)
	a4 := b.VecBin(ir.F32, ir.Add, a1, a2)
	a5 := b.VecBin(ir.F32, ir.Add, a4, a3)
	a6 := b.VecBin(ir.F32, ir.Mul, a5, cn)
	a7 := b.VecBin(ir.F32, ir.Mul, c, cc)
	a8 := b.VecBin(ir.F32, ir.Add, a6, a7)
	res := b.VecBin(ir.F32, ir.Add, a8, p)
	b.Store(ir.F32, ir.AffineAddr("out", sx+sy+sz, map[int]int64{0: sz, 1: sy, 2: sx}), res)
	k := b.Build()
	return &Workload{
		Name: "hotspot3d", AddrClass: "MO", CmpClass: "Store", Iters: iters,
		Kernel: k,
		Init: func(d *ir.Data, r *sim.Rand) {
			in, pow := d.Array("in"), d.Array("pow")
			for i := uint64(0); i < total; i++ {
				in.SetF(i, r.Float64())
				pow.SetF(i, r.Float64()*0.1)
			}
		},
	}
}

// --- histogram: affine load with key extraction + indirect atomic
// (Table VI: 12M 32-bit values, 8-bit key). ---

func histogram(scale Scale) *Workload {
	n := uint64(192 << 10)
	if scale == ScalePaper {
		n = 12 << 20
	}
	b := ir.NewKernel("histogram").
		Array("A", ir.I32, n).Array("hist", ir.I64, 256)
	b.LoopN("i", "n")
	b.Param("n", n)
	v := b.Load(ir.I32, ir.AffineAddr("A", 0, map[int]int64{0: 1}))
	sh := b.Const(ir.I32, 24)
	key32 := b.Bin(ir.I32, ir.Shr, v, sh)
	key := b.Convert(ir.I8, key32)
	one := b.Const(ir.I64, 1)
	b.Atomic(ir.I64, ir.AtomicAdd, ir.IndirectAddr("hist", key), one)
	k := b.Build()
	return &Workload{
		Name: "histogram", AddrClass: "Aff.", CmpClass: "Load", Iters: 1,
		Kernel: k,
		Init: func(d *ir.Data, r *sim.Rand) {
			a := d.Array("A")
			for i := uint64(0); i < n; i++ {
				a.Set(i, r.Uint64()&0x7fff_ffff)
			}
			h := d.Array("hist")
			for i := uint64(0); i < 256; i++ {
				h.Set(i, 0)
			}
		},
		Check: func(d *ir.Data, accs map[string]uint64) error {
			var total uint64
			h := d.Array("hist")
			for i := uint64(0); i < 256; i++ {
				total += h.Get(i)
			}
			if total != n {
				return fmt.Errorf("histogram: total %d, want %d", total, n)
			}
			return nil
		},
	}
}

// --- scluster: per-point Euclidean distance to its assigned center
// (Table VI: 768k × 64 B points, 5 iters). Indirect load + reduction that
// returns a scalar instead of the high-dimension point (§VII-B). ---

func scluster(scale Scale) *Workload {
	points, dims, centers, iters := uint64(12<<10), uint64(16), uint64(64), 1
	if scale == ScalePaper {
		points, dims, centers, iters = 768<<10, 16, 256, 5
	}
	b := ir.NewKernel("scluster").
		Array("pt", ir.F32, points*dims).
		Array("cen", ir.F32, centers*dims).
		Array("assign", ir.I64, points).
		Array("dist", ir.F32, points)
	b.LoopN("i", "points")
	b.Param("points", points)
	c := b.Load(ir.I64, ir.AffineAddr("assign", 0, map[int]int64{0: 1}))
	dimsC := b.Const(ir.I64, dims)
	base := b.Bin(ir.I64, ir.Mul, c, dimsC)
	b.Loop("d", dims)
	pv := b.Load(ir.F32, ir.AffineAddr("pt", 0, map[int]int64{0: int64(dims), 1: 1}))
	cv := b.Load(ir.F32, ir.AffineBaseAddr("cen", base, 0, map[int]int64{1: 1}))
	diff := b.VecBin(ir.F32, ir.Sub, pv, cv)
	sq := b.VecBin(ir.F32, ir.Mul, diff, diff)
	b.Reduce(ir.F32, ir.Add, "dist", sq, 0, 0)
	b.AtLevel(0)
	dv := b.AccRead(ir.F32, "dist")
	b.Store(ir.F32, ir.AffineAddr("dist", 0, map[int]int64{0: 1}), dv)
	k := b.Build()
	return &Workload{
		Name: "scluster", AddrClass: "Ind.", CmpClass: "Load", Iters: iters,
		Kernel: k,
		Init: func(d *ir.Data, r *sim.Rand) {
			pt, cen, assign := d.Array("pt"), d.Array("cen"), d.Array("assign")
			for i := uint64(0); i < points*dims; i++ {
				pt.SetF(i, r.Float64())
			}
			for i := uint64(0); i < centers*dims; i++ {
				cen.SetF(i, r.Float64())
			}
			for i := uint64(0); i < points; i++ {
				assign.Set(i, uint64(r.Intn(int(centers))))
			}
		},
	}
}

// --- svm: sparse dot products margin[i] = Σ_j val[j]·w[idx[j]]
// (Table VI: 384k × 64 B rows, 2 iters). ---

func svm(scale Scale) *Workload {
	rows, nnzPerRow, features, iters := uint64(8<<10), uint64(16), uint64(64<<10), 1
	if scale == ScalePaper {
		rows, nnzPerRow, features, iters = 384<<10, 16, 1<<20, 2
	}
	nnz := rows * nnzPerRow
	b := ir.NewKernel("svm").
		Array("idx", ir.I64, nnz).Array("val", ir.F32, nnz).
		Array("w", ir.F32, features).Array("margin", ir.F32, rows)
	b.LoopN("i", "rows")
	b.Param("rows", rows)
	b.Loop("j", nnzPerRow)
	iv := b.Load(ir.I64, ir.AffineAddr("idx", 0, map[int]int64{0: int64(nnzPerRow), 1: 1}))
	vv := b.Load(ir.F32, ir.AffineAddr("val", 0, map[int]int64{0: int64(nnzPerRow), 1: 1}))
	wv := b.Load(ir.F32, ir.IndirectAddr("w", iv))
	prod := b.VecBin(ir.F32, ir.Mul, vv, wv)
	b.Reduce(ir.F32, ir.Add, "dot", prod, 0, 0)
	b.AtLevel(0)
	dot := b.AccRead(ir.F32, "dot")
	b.Store(ir.F32, ir.AffineAddr("margin", 0, map[int]int64{0: 1}), dot)
	k := b.Build()
	return &Workload{
		Name: "svm", AddrClass: "Ind.", CmpClass: "Load", Iters: iters,
		Kernel: k,
		Init: func(d *ir.Data, r *sim.Rand) {
			idx, val, w := d.Array("idx"), d.Array("val"), d.Array("w")
			for i := uint64(0); i < nnz; i++ {
				idx.Set(i, r.Uint64n(features))
				val.SetF(i, r.Float64())
			}
			for i := uint64(0); i < features; i++ {
				w.SetF(i, r.Float64())
			}
		},
	}
}
