// Command nsdump inspects a workload the way a compiler explorer would:
// it prints the loop-nest IR, the compiled stream plan (which accesses
// became streams, which computations ride with them, what stays on the
// core), and the Table IV encoding size of each stream's configuration.
//
// Usage:
//
//	nsdump -workload sssp
//	nsdump -workload hotspot -scale paper
package main

import (
	"flag"
	"fmt"
	"os"

	nearstream "repro"
	"repro/internal/compiler"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/workloads"
)

func main() {
	var (
		wname = flag.String("workload", "histogram", "workload name")
		scale = flag.String("scale", "ci", "ci or paper")
	)
	flag.Parse()

	sc, err := workloads.ParseScale(*scale)
	if err == nil {
		err = workloads.CheckNames(*wname)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	w := nearstream.GetWorkload(*wname, sc)
	fmt.Printf("// %s — %s %s, %d outer iteration(s)\n\n", w.Name, w.AddrClass, w.CmpClass, w.Iters)
	fmt.Println(w.Kernel)

	plan, err := nearstream.Compile(w.Kernel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("streams (%d):\n", len(plan.Streams))
	for _, s := range plan.Streams {
		access := "compute-only"
		if s.AccessOp != ir.NoValue {
			access = fmt.Sprintf("v%d", s.AccessOp)
		}
		fmt.Printf("  s%-2d %-9v %-7v access=%-5s", s.Sid, s.Kind, s.CT, access)
		if s.Write {
			fmt.Printf(" write")
		}
		if s.Atomic {
			fmt.Printf(" atomic(%v)", s.ScalarOp)
		}
		if s.BaseSid >= 0 {
			fmt.Printf(" base=s%d", s.BaseSid)
		}
		if len(s.ValueDepSids) > 0 {
			fmt.Printf(" deps=%v", s.ValueDepSids)
		}
		if s.Nested {
			fmt.Printf(" nested")
		}
		if s.Vector {
			fmt.Printf(" simd")
		}
		if len(s.ComputeOps) > 0 {
			fmt.Printf(" near-stream-insts=%v", s.ComputeOps)
		}
		if s.RetBytes > 0 {
			fmt.Printf(" ret=%dB", s.RetBytes)
		}
		fmt.Println()
	}
	fmt.Printf("fully decoupled (§V): %v\n\n", plan.FullyDecoupled)

	fmt.Println("op classification:")
	counts := map[compiler.Category]int{}
	for i := range w.Kernel.Ops {
		cat := plan.ClassOf(ir.ValueRef(i))
		counts[cat]++
		fmt.Printf("  v%-3d %-14v %s\n", i, cat, w.Kernel.OpString(ir.ValueRef(i)))
	}
	fmt.Printf("\nstatic op counts: %d stream-mem, %d stream-compute, %d core, %d config\n",
		counts[compiler.CatStreamMem], counts[compiler.CatStreamCompute],
		counts[compiler.CatCore], counts[compiler.CatConfig])

	fmt.Println("\nTable IV configuration sizes:")
	for _, s := range plan.Streams {
		fmt.Printf("  s%-2d %d bytes\n", s.Sid, isa.EncodedBytes(s.ISAConfig(0)))
	}
}
