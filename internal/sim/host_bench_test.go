package sim

import (
	"testing"
	"time"

	"autoresched/internal/vclock"
)

// BenchmarkLoadAvgQuery measures the lazy-integration cost of a load
// average query with many processes on the host.
func BenchmarkLoadAvgQuery(b *testing.B) {
	clock := vclock.NewAuto(vclock.Epoch)
	h := NewHost(clock, "bench", Config{Speed: 1e6})
	for i := 0; i < 64; i++ {
		h.Spawn("filler", 1<<20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Sleep(time.Millisecond)
		h.LoadAvg()
	}
}

// BenchmarkProcsSnapshot measures the process-table snapshot the prstat
// probe takes each monitoring cycle.
func BenchmarkProcsSnapshot(b *testing.B) {
	clock := vclock.NewAuto(vclock.Epoch)
	h := NewHost(clock, "bench", Config{Speed: 1e6})
	for i := 0; i < 150; i++ {
		h.Spawn("filler", 1<<20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := h.Procs(); len(got) != 150 {
			b.Fatal("snapshot lost processes")
		}
	}
}

// BenchmarkComputeRoundTrip measures a full Compute request (enqueue, timer,
// completion) on the Auto clock.
func BenchmarkComputeRoundTrip(b *testing.B) {
	clock := vclock.NewAuto(vclock.Epoch)
	h := NewHost(clock, "bench", Config{Speed: 1e6})
	p := h.Spawn("worker", 0)
	defer p.Exit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Compute(100); err != nil { // 0.1 virtual ms
			b.Fatal(err)
		}
	}
}
