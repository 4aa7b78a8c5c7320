// Quickstart: author a kernel in the loop-nest IR, compile it to streams,
// and run it on the Base core and on full near-stream computing, comparing
// cycles and NoC traffic.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	nearstream "repro"
	"repro/internal/ir"
)

func main() {
	const n = 1 << 16 // 64k elements

	// acc = Σ A[i] — the Figure 2a running example: an affine load stream
	// with an associated reduction.
	b := nearstream.NewKernelBuilder("quickstart_sum")
	b.Array("A", ir.I64, n)
	b.Loop("i", n)
	v := b.Load(ir.I64, ir.AffineAddr("A", 0, map[int]int64{0: 1}))
	b.Reduce(ir.I64, ir.Add, "acc", v, -1, 0)
	kernel := b.Build()

	// The compiler recognizes the streams (§III-B).
	plan, err := nearstream.Compile(kernel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %d streams:\n", len(plan.Streams))
	for _, s := range plan.Streams {
		fmt.Printf("  sid=%d kind=%-9v compute=%-7v scalar-op=%v\n",
			s.Sid, s.Kind, s.CT, s.ScalarOp)
	}

	cfg := nearstream.DefaultConfig()
	fill := func(d *ir.Data) {
		a := d.Array("A")
		for i := uint64(0); i < n; i++ {
			a.Set(i, i)
		}
	}

	fmt.Printf("\n%-12s %12s %16s %14s\n", "system", "cycles", "traffic(B*hops)", "sum")
	for _, sys := range []nearstream.System{nearstream.Base, nearstream.NSCore, nearstream.NS, nearstream.NSDecouple} {
		res, err := nearstream.RunKernel(kernel, sys, cfg, nil, fill)
		if err != nil {
			log.Fatal(err)
		}
		var sum uint64
		for _, accs := range res.Accs {
			sum += accs["acc"]
		}
		traffic := res.Stats["noc.bytehops.data"] +
			res.Stats["noc.bytehops.control"] +
			res.Stats["noc.bytehops.offloaded"]
		fmt.Printf("%-12v %12d %16d %14d\n", sys, res.Cycles, traffic, sum)
		if want := uint64(n) * (n - 1) / 2; sum != want {
			log.Fatalf("wrong sum: %d != %d", sum, want)
		}
	}
	fmt.Println("\nall systems computed the same sum; NS variants cut traffic and cycles")
}
