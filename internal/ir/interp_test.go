package ir

import (
	"strings"
	"testing"
)

// TestExecResolvesNames pins what Exec's once-per-call name resolution
// must keep: accumulators shared by name, the returned map's keys,
// errors raised only by the op that needs a missing name, and affine
// addressing over several loop levels.
func TestExecResolvesNames(t *testing.T) {
	t.Run("shared accumulator", func(t *testing.T) {
		// Two reduce ops name one accumulator: both update one slot.
		b := NewKernel("shared").Array("A", I64, 8).Array("B", I64, 8)
		b.Loop("i", 8)
		av := b.Load(I64, AffineAddr("A", 0, map[int]int64{0: 1}))
		b.Reduce(I64, Add, "acc", av, -1, 0)
		bv := b.Load(I64, AffineAddr("B", 0, map[int]int64{0: 1}))
		b.Reduce(I64, Add, "acc", bv, -1, 0)
		k := b.Build()
		d := newData()
		d.AllocArrays(k)
		var want uint64
		for i := uint64(0); i < 8; i++ {
			d.Array("A").Set(i, i)
			d.Array("B").Set(i, 100*i)
			want += 101 * i
		}
		accs, err := Exec(k, d, nil, 0, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(accs) != 1 || accs["acc"] != want {
			t.Fatalf("accs = %v, want map[acc:%d]", accs, want)
		}
	})

	t.Run("never reset is absent", func(t *testing.T) {
		// "row" resets at each level-0 iteration; an empty partition
		// runs none, so only the kernel-wide "total" is returned.
		b := NewKernel("rows").Array("A", I64, 4)
		b.Loop("i", 4)
		v := b.Load(I64, AffineAddr("A", 0, map[int]int64{0: 1}))
		b.Reduce(I64, Add, "total", v, -1, 7)
		b.Reduce(I64, Add, "row", v, 0, 0)
		k := b.Build()
		d := newData()
		d.AllocArrays(k)
		accs, err := Exec(k, d, nil, 2, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := accs["row"]; ok || len(accs) != 1 || accs["total"] != 7 {
			t.Fatalf("empty partition accs = %v, want map[total:7]", accs)
		}
		accs, err = Exec(k, d, nil, 0, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := accs["row"]; !ok || len(accs) != 2 {
			t.Fatalf("full run accs = %v, want total and row", accs)
		}
	})

	t.Run("missing parameter fails when its op runs", func(t *testing.T) {
		// The parameter op sits in an inner loop whose trip is the outer
		// index: partition [0,1) never enters it.
		b := NewKernel("param").Array("A", I64, 4)
		b.Loop("i", 4)
		b.LoopVal("j", b.Index(0))
		p := b.ParamVal(I64, "stride")
		b.Store(I64, AffineAddr("A", 0, map[int]int64{1: 1}), p)
		k := b.Build()
		d := newData()
		d.AllocArrays(k)
		if _, err := Exec(k, d, nil, 0, 1, nil); err != nil {
			t.Fatalf("partition that never runs the param op: %v", err)
		}
		_, err := Exec(k, d, nil, 0, 2, nil)
		if err == nil || !strings.Contains(err.Error(), `missing parameter "stride"`) {
			t.Fatalf("partition that runs the param op: err = %v", err)
		}
		if _, err := Exec(k, d, map[string]uint64{"stride": 3}, 0, 4, nil); err != nil {
			t.Fatal(err)
		}
		if got := d.Array("A").Get(2); got != 3 {
			t.Fatalf("A[2] = %d, want the given stride 3", got)
		}
	})

	t.Run("three-level affine", func(t *testing.T) {
		b := NewKernel("affine3").Array("A", I64, 64)
		b.Loop("i", 2)
		b.Loop("j", 3)
		b.Loop("k", 4)
		b.Load(I64, AffineAddr("A", 3, map[int]int64{0: 20, 1: 5, 2: -1}))
		k := b.Build()
		d := newData()
		d.AllocArrays(k)
		var got []uint64
		hooks := &Hooks{OnMem: func(ev MemEvent) { got = append(got, ev.Addr) }}
		if _, err := Exec(k, d, nil, 0, 2, hooks); err != nil {
			t.Fatal(err)
		}
		a := d.Array("A")
		var want []uint64
		for i := uint64(0); i < 2; i++ {
			for j := uint64(0); j < 3; j++ {
				for kk := uint64(0); kk < 4; kk++ {
					want = append(want, a.AddrOf(20*i+5*j-kk+3))
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%d accesses, want %d", len(got), len(want))
		}
		for n := range want {
			if got[n] != want[n] {
				t.Fatalf("access %d at %#x, want %#x", n, got[n], want[n])
			}
		}
	})
}
