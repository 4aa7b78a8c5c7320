package noc

import (
	"testing"
)

// NoC hot-path benchmarks. Send and Multicast run once per protocol
// message — several per simulated memory access — so they must not
// allocate for routing or link accounting. (Send's remaining allocs/op
// are the delivery closure handed to the engine, charged here because the
// benchmark drains the queue.)

func BenchmarkSendContended(b *testing.B) {
	e, n := testNet(8, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(&Message{Src: i % 64, Dst: (i * 13) % 64, Bytes: 64, Class: TrafficData})
		if i%256 == 255 {
			e.Run()
		}
	}
	e.Run()
}

func BenchmarkMulticastInvalidate(b *testing.B) {
	e, n := testNet(8, 8)
	// An 8-destination invalidation fan-out, the common recall pattern.
	dsts := []int{1, 9, 17, 25, 33, 41, 49, 57}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Multicast(0, dsts, 8, TrafficControl, nil)
		if i%64 == 63 {
			e.Run()
		}
	}
	e.Run()
}

func BenchmarkDeliveryTimeOnly(b *testing.B) {
	// Pure routing + contention arithmetic: no scheduling, no closures.
	_, n := testNet(8, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.deliveryTimeAt(n.engine.Now(), i%64, (i*13)%64, 64)
	}
}

// BenchmarkCycleFlush runs one cycle on a 4×4 mesh in which every node
// sends, in a scrambled node order: the capture path plus the
// end-of-cycle hook's canonical ordering and routing of 16 same-cycle
// sends.
func BenchmarkCycleFlush(b *testing.B) {
	e, n := testNet(4, 4)
	nodes := n.Nodes()
	msgs := make([]Message, nodes)
	for i := range msgs {
		src := (i * 7) % nodes
		msgs[i] = Message{Src: src, Dst: nodes - 1 - src, Bytes: 64, Class: TrafficData}
	}
	send := func() {
		for i := range msgs {
			n.Send(&msgs[i])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, send)
		e.Run()
	}
}
