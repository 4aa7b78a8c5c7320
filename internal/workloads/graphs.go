package workloads

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/ir"
	"repro/internal/sim"
)

// Graph is a CSR graph with edge weights, as used by the GAP workloads
// (Table VI: Kronecker, 256k nodes / 3.6M edges, weights in [1,255]).
type Graph struct {
	Nodes   uint64
	Offsets []uint64 // len Nodes+1
	Cols    []uint64 // len Edges
	Weights []uint64 // len Edges, in [1,255]
}

// Edges returns the edge count.
func (g *Graph) Edges() uint64 { return uint64(len(g.Cols)) }

// Kronecker generates an R-MAT/Kronecker graph with the paper's
// A/B/C = 0.57/0.19/0.19 probabilities (D = 0.05), deterministic from the
// seed.
func Kronecker(scaleLog2 int, edgeFactor int, seed uint64) *Graph {
	n := uint64(1) << uint(scaleLog2)
	m := n * uint64(edgeFactor)
	r := sim.NewRand(seed)
	type edge struct{ u, v uint64 }
	edges := make([]edge, 0, m)
	for i := uint64(0); i < m; i++ {
		var u, v uint64
		for bit := 0; bit < scaleLog2; bit++ {
			p := r.Float64()
			switch {
			case p < 0.57: // A: top-left
			case p < 0.76: // B: top-right
				v |= 1 << uint(bit)
			case p < 0.95: // C: bottom-left
				u |= 1 << uint(bit)
			default: // D: bottom-right
				u |= 1 << uint(bit)
				v |= 1 << uint(bit)
			}
		}
		edges = append(edges, edge{u, v})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	g := &Graph{Nodes: n, Offsets: make([]uint64, n+1)}
	for _, e := range edges {
		g.Offsets[e.u+1]++
	}
	for i := uint64(1); i <= n; i++ {
		g.Offsets[i] += g.Offsets[i-1]
	}
	g.Cols = make([]uint64, len(edges))
	g.Weights = make([]uint64, len(edges))
	for i, e := range edges {
		g.Cols[i] = e.v
		g.Weights[i] = 1 + r.Uint64n(255)
	}
	return g
}

// kronKey identifies one generated graph.
type kronKey struct {
	logN, ef int
	seed     uint64
}

var (
	kronMu    sync.Mutex
	kronCache = map[kronKey]*Graph{}
)

// kronecker memoizes Kronecker per (scale, edge factor, seed). Workload
// constructors run on every Get call — once per executed job — and
// regenerating a multi-million-edge graph each time dominates their
// cost. A Graph is immutable after construction (loadGraph and the
// workload closures only read it), so sharing one instance across
// concurrent jobs is safe. The cache is small and unbounded by design:
// at most one graph per (scale, seed) pair ever used by a process.
func kronecker(logN, ef int, seed uint64) *Graph {
	key := kronKey{logN, ef, seed}
	kronMu.Lock()
	if g, ok := kronCache[key]; ok {
		kronMu.Unlock()
		return g
	}
	kronMu.Unlock()
	g := Kronecker(logN, ef, seed)
	kronMu.Lock()
	if prev, ok := kronCache[key]; ok {
		g = prev // a racing generator won; both built identical graphs
	} else {
		kronCache[key] = g
	}
	kronMu.Unlock()
	return g
}

// graphScale returns the Kronecker scale parameters.
func graphScale(scale Scale) (logN, edgeFactor int) {
	if scale == ScalePaper {
		return 18, 14 // 256k nodes, ~3.6M edges
	}
	// CI: 16k nodes / ~128k edges keeps the node-array-to-L2 ratio of the
	// paper configuration once the harness scales the caches down 16×.
	return 14, 8
}

// loadGraph fills the CSR arrays of a kernel's data store.
func loadGraph(d *ir.Data, g *Graph) {
	off, col := d.Array("off"), d.Array("col")
	for i := uint64(0); i <= g.Nodes; i++ {
		off.Set(i, g.Offsets[i])
	}
	for i, c := range g.Cols {
		col.Set(uint64(i), c)
	}
	if w, ok := d.ArrayOK("w"); ok {
		for i, wt := range g.Weights {
			w.Set(uint64(i), wt)
		}
	}
	deg := d.Array("deg")
	for u := uint64(0); u < g.Nodes; u++ {
		deg.Set(u, g.Offsets[u+1]-g.Offsets[u])
	}
}

// graphArrays declares the CSR arrays on a builder.
func graphArrays(b *ir.Builder, g *Graph, weights bool) {
	b.Array("off", ir.I64, g.Nodes+1).
		Array("col", ir.I64, g.Edges()+1).
		Array("deg", ir.I64, g.Nodes)
	if weights {
		b.Array("w", ir.I64, g.Edges()+1)
	}
}

const inf = ^uint64(0)

// bfsPush: frontier-driven BFS with compare-exchange on the depth array
// (Table VI "Ind. Atomic"). One frontier expansion is simulated (the
// frontier is every node, worst case).
func bfsPush(scale Scale) *Workload {
	logN, ef := graphScale(scale)
	g := kronecker(logN, ef, 42)
	b := ir.NewKernel("bfs_push")
	graphArrays(b, g, false)
	b.Array("depth", ir.I64, g.Nodes)
	b.LoopN("u", "nodes")
	b.Param("nodes", g.Nodes)
	deg := b.Load(ir.I64, ir.AffineAddr("deg", 0, map[int]int64{0: 1}))
	off := b.Load(ir.I64, ir.AffineAddr("off", 0, map[int]int64{0: 1}))
	b.LoopVal("e", deg)
	v := b.Load(ir.I64, ir.AffineBaseAddr("col", off, 0, map[int]int64{1: 1}))
	infC := b.Const(ir.I64, inf)
	nd := b.Const(ir.I64, 1)
	old := b.AtomicCAS(ir.I64, ir.IndirectAddr("depth", v), infC, nd)
	won := b.Bin(ir.I64, ir.CmpEQ, old, infC)
	b.Reduce(ir.I64, ir.Add, "visited", won, -1, 0)
	k := b.Build()
	return &Workload{
		Name: "bfs_push", AddrClass: "Ind.", CmpClass: "Atomic", Iters: 1,
		Kernel: k, Params: map[string]uint64{"nodes": g.Nodes},
		Init: func(d *ir.Data, r *sim.Rand) {
			loadGraph(d, g)
			dep := d.Array("depth")
			for u := uint64(0); u < g.Nodes; u++ {
				if r.Bool(0.5) {
					dep.Set(u, inf) // unvisited half: CASes modify
				} else {
					dep.Set(u, 0) // visited half: CASes fail (MRSW readers)
				}
			}
		},
		Check: func(d *ir.Data, accs map[string]uint64) error {
			dep := d.Array("depth")
			for u := uint64(0); u < g.Nodes; u++ {
				if dv := dep.Get(u); dv != 0 && dv != 1 && dv != inf {
					return fmt.Errorf("bfs_push: depth[%d]=%d", u, dv)
				}
			}
			return nil
		},
	}
}

// prPush: push-style PageRank — atomic float add of each node's
// contribution to its out-neighbors (Table VI "Ind. Atomic").
func prPush(scale Scale) *Workload {
	logN, ef := graphScale(scale)
	g := kronecker(logN, ef, 43)
	b := ir.NewKernel("pr_push")
	graphArrays(b, g, false)
	b.Array("contrib", ir.F32, g.Nodes).Array("next", ir.F32, g.Nodes)
	b.LoopN("u", "nodes")
	b.Param("nodes", g.Nodes)
	deg := b.Load(ir.I64, ir.AffineAddr("deg", 0, map[int]int64{0: 1}))
	off := b.Load(ir.I64, ir.AffineAddr("off", 0, map[int]int64{0: 1}))
	cv := b.Load(ir.F32, ir.AffineAddr("contrib", 0, map[int]int64{0: 1}))
	b.LoopVal("e", deg)
	v := b.Load(ir.I64, ir.AffineBaseAddr("col", off, 0, map[int]int64{1: 1}))
	b.Atomic(ir.F32, ir.AtomicAdd, ir.IndirectAddr("next", v), cv)
	k := b.Build()
	return &Workload{
		Name: "pr_push", AddrClass: "Ind.", CmpClass: "Atomic", Iters: 1,
		Kernel: k, Params: map[string]uint64{"nodes": g.Nodes},
		Init: func(d *ir.Data, r *sim.Rand) {
			loadGraph(d, g)
			contrib, next := d.Array("contrib"), d.Array("next")
			for u := uint64(0); u < g.Nodes; u++ {
				contrib.SetF(u, 1.0/float64(g.Nodes))
				next.SetF(u, 0)
			}
		},
	}
}

// sssp: one relaxation sweep — atomic min on tentative distances
// (Table VI "Ind. Atomic", weights in [1,255]).
func sssp(scale Scale) *Workload {
	logN, ef := graphScale(scale)
	g := kronecker(logN, ef, 44)
	b := ir.NewKernel("sssp")
	graphArrays(b, g, true)
	b.Array("dist", ir.I64, g.Nodes).Array("distNext", ir.I64, g.Nodes)
	b.LoopN("u", "nodes")
	b.Param("nodes", g.Nodes)
	deg := b.Load(ir.I64, ir.AffineAddr("deg", 0, map[int]int64{0: 1}))
	off := b.Load(ir.I64, ir.AffineAddr("off", 0, map[int]int64{0: 1}))
	du := b.Load(ir.I64, ir.AffineAddr("dist", 0, map[int]int64{0: 1}))
	b.LoopVal("e", deg)
	v := b.Load(ir.I64, ir.AffineBaseAddr("col", off, 0, map[int]int64{1: 1}))
	wv := b.Load(ir.I64, ir.AffineBaseAddr("w", off, 0, map[int]int64{1: 1}))
	cand := b.Bin(ir.I64, ir.Add, du, wv)
	b.Atomic(ir.I64, ir.AtomicMin, ir.IndirectAddr("distNext", v), cand)
	k := b.Build()
	return &Workload{
		Name: "sssp", AddrClass: "Ind.", CmpClass: "Atomic", Iters: 1,
		Kernel: k, Params: map[string]uint64{"nodes": g.Nodes},
		Init: func(d *ir.Data, r *sim.Rand) {
			loadGraph(d, g)
			di, dn := d.Array("dist"), d.Array("distNext")
			for u := uint64(0); u < g.Nodes; u++ {
				// A spread of tentative distances; many relaxations fail
				// (MRSW readers), some succeed.
				v := uint64(r.Intn(1000))
				di.Set(u, v)
				dn.Set(u, v)
			}
		},
	}
}

// bfsPull: pull-style BFS — each unvisited node scans in-neighbors for a
// frontier member (Table VI "Ind. Reduce", associative Or).
func bfsPull(scale Scale) *Workload {
	logN, ef := graphScale(scale)
	g := kronecker(logN, ef, 45)
	b := ir.NewKernel("bfs_pull")
	graphArrays(b, g, false)
	b.Array("depth", ir.I64, g.Nodes).Array("found", ir.I64, g.Nodes)
	b.LoopN("u", "nodes")
	b.Param("nodes", g.Nodes)
	deg := b.Load(ir.I64, ir.AffineAddr("deg", 0, map[int]int64{0: 1}))
	off := b.Load(ir.I64, ir.AffineAddr("off", 0, map[int]int64{0: 1}))
	b.LoopVal("e", deg)
	v := b.Load(ir.I64, ir.AffineBaseAddr("col", off, 0, map[int]int64{1: 1}))
	dv := b.Load(ir.I64, ir.IndirectAddr("depth", v))
	cur := b.Const(ir.I64, 0)
	hit := b.Bin(ir.I64, ir.CmpEQ, dv, cur)
	b.Reduce(ir.I64, ir.Or, "found", hit, 0, 0)
	b.AtLevel(0)
	f := b.AccRead(ir.I64, "found")
	b.Store(ir.I64, ir.AffineAddr("found", 0, map[int]int64{0: 1}), f)
	k := b.Build()
	return &Workload{
		Name: "bfs_pull", AddrClass: "Ind.", CmpClass: "Reduce", Iters: 1,
		Kernel: k, Params: map[string]uint64{"nodes": g.Nodes},
		Init: func(d *ir.Data, r *sim.Rand) {
			loadGraph(d, g)
			dep := d.Array("depth")
			for u := uint64(0); u < g.Nodes; u++ {
				if r.Bool(0.25) {
					dep.Set(u, 0) // frontier
				} else {
					dep.Set(u, inf)
				}
			}
		},
	}
}

// prPull: pull-style PageRank — per-node sum of in-neighbor contributions
// (Table VI "Ind. Reduce", associative Add).
func prPull(scale Scale) *Workload {
	logN, ef := graphScale(scale)
	g := kronecker(logN, ef, 46)
	b := ir.NewKernel("pr_pull")
	graphArrays(b, g, false)
	b.Array("contrib", ir.F32, g.Nodes).Array("score", ir.F32, g.Nodes)
	b.LoopN("u", "nodes")
	b.Param("nodes", g.Nodes)
	deg := b.Load(ir.I64, ir.AffineAddr("deg", 0, map[int]int64{0: 1}))
	off := b.Load(ir.I64, ir.AffineAddr("off", 0, map[int]int64{0: 1}))
	b.LoopVal("e", deg)
	v := b.Load(ir.I64, ir.AffineBaseAddr("col", off, 0, map[int]int64{1: 1}))
	cv := b.Load(ir.F32, ir.IndirectAddr("contrib", v))
	b.Reduce(ir.F32, ir.Add, "sum", cv, 0, 0)
	b.AtLevel(0)
	s := b.AccRead(ir.F32, "sum")
	b.Store(ir.F32, ir.AffineAddr("score", 0, map[int]int64{0: 1}), s)
	k := b.Build()
	return &Workload{
		Name: "pr_pull", AddrClass: "Ind.", CmpClass: "Reduce", Iters: 1,
		Kernel: k, Params: map[string]uint64{"nodes": g.Nodes},
		Init: func(d *ir.Data, r *sim.Rand) {
			loadGraph(d, g)
			contrib := d.Array("contrib")
			for u := uint64(0); u < g.Nodes; u++ {
				contrib.SetF(u, 1.0/float64(g.Nodes))
			}
		},
	}
}

// binTree: random searches in a binary search tree (Table VI "Ptr.
// Reduce": 128k nodes, 8 B keys). Node layout: [key, left, right] triples.
func binTree(scale Scale) *Workload {
	nodes, queries := uint64(8<<10), uint64(2<<10)
	if scale == ScalePaper {
		nodes, queries = 128<<10, 32<<10
	}
	b := ir.NewKernel("bin_tree").
		Array("nodes", ir.I64, nodes*3).Array("queries", ir.I64, queries)
	b.SyncFree()
	b.LoopN("q", "queries")
	b.Param("queries", queries)
	qk := b.Load(ir.I64, ir.AffineAddr("queries", 0, map[int]int64{0: 1}))
	rootC := b.ParamVal(ir.I64, "root")
	b.While("p", rootC)
	p := b.Chase()
	key := b.Load(ir.I64, ir.PointerAddr("nodes", p, 0))
	left := b.Load(ir.I64, ir.PointerAddr("nodes", p, 8))
	right := b.Load(ir.I64, ir.PointerAddr("nodes", p, 16))
	hit := b.Bin(ir.I64, ir.CmpEQ, key, qk)
	b.Reduce(ir.I64, ir.Add, "hits", hit, -1, 0)
	goLeft := b.Bin(ir.I64, ir.CmpLT, qk, key)
	next := b.Select(ir.I64, goLeft, left, right)
	notHit := b.Bin(ir.I64, ir.Xor, hit, b.Const(ir.I64, 1))
	b.SetNext(next)
	b.SetContinue(notHit)
	k := b.Build()
	w := &Workload{
		Name: "bin_tree", AddrClass: "Ptr.", CmpClass: "Reduce", Iters: 1,
		Kernel: k, Params: map[string]uint64{"queries": queries},
	}
	w.Init = func(d *ir.Data, r *sim.Rand) {
		nd := d.Array("nodes")
		// Build a balanced BST over keys 0..nodes-1 (node i holds the
		// median of its range).
		var build func(lo, hi uint64) uint64 // returns node addr or 0
		nextIdx := uint64(0)
		build = func(lo, hi uint64) uint64 {
			if lo >= hi {
				return 0
			}
			i := nextIdx
			nextIdx++
			mid := (lo + hi) / 2
			nd.Set(i*3, mid*2) // keys are even so odd queries miss
			l := build(lo, mid)
			rr := build(mid+1, hi)
			nd.Set(i*3+1, l)
			nd.Set(i*3+2, rr)
			return nd.AddrOf(i * 3)
		}
		w.Params["root"] = build(0, nodes)
		q := d.Array("queries")
		for i := uint64(0); i < queries; i++ {
			q.Set(i, r.Uint64n(nodes*2)) // ~half hit, ~half miss
		}
	}
	return w
}

// hashJoin: hash-table probe with bucket chains (Table VI "Ptr. Reduce":
// 512k uniform lookups, 8 B keys, hit rate 1/8). Node layout:
// [key, val, next].
func hashJoin(scale Scale) *Workload {
	buildRows, probes, buckets := uint64(16<<10), uint64(8<<10), uint64(4<<10)
	if scale == ScalePaper {
		buildRows, probes, buckets = 512<<10, 512<<10, 128<<10
	}
	b := ir.NewKernel("hash_join").
		Array("nodes", ir.I64, buildRows*3).
		Array("buckets", ir.I64, buckets).
		Array("probes", ir.I64, probes)
	b.SyncFree()
	b.LoopN("i", "probes")
	b.Param("probes", probes)
	pk := b.Load(ir.I64, ir.AffineAddr("probes", 0, map[int]int64{0: 1}))
	mask := b.Const(ir.I64, buckets-1)
	h := b.Bin(ir.I64, ir.And, pk, mask)
	head := b.Load(ir.I64, ir.IndirectAddr("buckets", h))
	b.While("p", head)
	p := b.Chase()
	key := b.Load(ir.I64, ir.PointerAddr("nodes", p, 0))
	val := b.Load(ir.I64, ir.PointerAddr("nodes", p, 8))
	nxt := b.Load(ir.I64, ir.PointerAddr("nodes", p, 16))
	match := b.Bin(ir.I64, ir.CmpEQ, key, pk)
	contrib := b.Select(ir.I64, match, val, b.Const(ir.I64, 0))
	b.Reduce(ir.I64, ir.Add, "joined", contrib, -1, 0)
	one := b.Const(ir.I64, 1)
	b.SetNext(nxt)
	b.SetContinue(one)
	k := b.Build()
	return &Workload{
		Name: "hash_join", AddrClass: "Ptr.", CmpClass: "Reduce", Iters: 1,
		Kernel: k, Params: map[string]uint64{"probes": probes},
		Init: func(d *ir.Data, r *sim.Rand) {
			nd, bk := d.Array("nodes"), d.Array("buckets")
			for i := uint64(0); i < buckets; i++ {
				bk.Set(i, 0)
			}
			// Build side: keys spread over 8× the probe key space →
			// ~1/8 hit rate.
			for i := uint64(0); i < buildRows; i++ {
				key := r.Uint64n(buildRows * 8)
				nd.Set(i*3, key)
				nd.Set(i*3+1, 1)
				h := key & (buckets - 1)
				nd.Set(i*3+2, bk.Get(h)) // chain
				bk.Set(h, nd.AddrOf(i*3))
			}
			pr := d.Array("probes")
			for i := uint64(0); i < probes; i++ {
				pr.Set(i, r.Uint64n(buildRows*8))
			}
		},
	}
}
