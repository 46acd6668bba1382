package packet

import "testing"

// The lifecycle benchmarks document the pooling contract: a balanced
// acquire/release cycle on any packet constructor must not allocate.

func BenchmarkPacketLifecycleData(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := NewData(1, uint32(i), 1024, 0)
		p.Release()
	}
}

func BenchmarkPacketLifecycleSche(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := NewSche(1, uint32(i), 3, 0)
		p.Release()
	}
}

func BenchmarkPacketLifecycleAck(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := NewAck(1, uint32(i), uint32(i+1), 0)
		p.Release()
	}
}

func BenchmarkPacketClone(b *testing.B) {
	p := NewData(1, 7, 1024, 0)
	p.PushINT(INTHop{QueueBytes: 64, TxBytes: 1 << 20})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := p.Clone()
		q.Release()
	}
	b.StopTimer()
	p.Release()
}
