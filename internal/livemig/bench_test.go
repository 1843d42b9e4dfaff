package livemig

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkPagesWriteRow measures the write-through cost of one row-sized
// change-suppressed write — the hot path a paged workload pays per sweep.
func BenchmarkPagesWriteRow(b *testing.B) {
	const words = 512
	p, err := NewPages(words*8*64, words*8)
	if err != nil {
		b.Fatal(err)
	}
	row := make([]float64, words)
	for i := range row {
		row[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row[0] = float64(i) // keep at least one word changing
		p.WriteFloat64s((i%64)*words, row)
	}
}

// BenchmarkPagesReadRow measures one row-sized read, which a paged workload
// pays about three times per row and sweep.
func BenchmarkPagesReadRow(b *testing.B) {
	const words = 512
	p, err := NewPages(words*8*64, words*8)
	if err != nil {
		b.Fatal(err)
	}
	row := make([]float64, words)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ReadFloat64s((i%64)*words, row)
	}
}

// BenchmarkDirtySince measures a round's dirty-set scan over a 4096-page
// region with a 5% residual.
func BenchmarkDirtySince(b *testing.B) {
	p, err := NewPages(4096*64, 64)
	if err != nil {
		b.Fatal(err)
	}
	g := p.Gen()
	for i := 0; i < 4096; i += 20 {
		p.SetFloat64(i*8, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.DirtySince(g); len(got) == 0 {
			b.Fatal("empty dirty set")
		}
	}
}

// BenchmarkSnapshotWhole measures precopy round 1's copy of the N=1024
// Jacobi grid (1 026 pages of 8 208 B, one per row): into a fresh buffer,
// and into a buffer of the region's length, the region a process's last
// live migration retired.
func BenchmarkSnapshotWhole(b *testing.B) {
	const side = 1024 + 2
	p, err := NewPages(side*side*8, side*8)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		buf  []byte
	}{{"fresh", nil}, {"buffer", make([]byte, p.Len())}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(p.Len()))
			for i := 0; i < b.N; i++ {
				p.Snapshot(0, bc.buf)
			}
		})
	}
}

// modelScenario is the migration the model benchmark and the allocation pin
// evaluate: a 16 MiB region over 100 Mbps Ethernet, the experiment
// cluster's nominal spawn latency and handshake.
var modelScenario = Scenario{
	TotalPages:   4096,
	PageBytes:    4096,
	Bandwidth:    12.5e6,
	SpawnLatency: 300 * time.Millisecond,
	Handshake:    2 * time.Millisecond,
}

// BenchmarkModeledDowntime reports the analytic model's freeze window as
// the benchmark's ns/op, one sub-benchmark per (path, dirty-rate) point.
func BenchmarkModeledDowntime(b *testing.B) {
	base := modelScenario
	points := []struct {
		name string
		rate float64
	}{
		{"stopcopy", 0}, // reported as the stop-and-copy window
		{"precopy_r100", 100},
		{"precopy_r1000", 1000},
		{"fallback_r50000", 50_000},
	}
	for _, pt := range points {
		b.Run(fmt.Sprintf("%s_pages%d", pt.name, base.TotalPages), func(b *testing.B) {
			sc := base
			sc.DirtyPagesPerSec = pt.rate
			var out Outcome
			for i := 0; i < b.N; i++ {
				out = Simulate(sc)
			}
			d := out.Downtime
			if pt.rate == 0 {
				d = out.StopCopy
			}
			b.ReportMetric(float64(d.Nanoseconds()), "ns/op")
		})
	}
}
