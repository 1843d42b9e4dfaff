package registry

import (
	"fmt"
	"testing"
	"time"

	"autoresched/internal/persist"
	"autoresched/internal/proto"
	"autoresched/internal/vclock"
)

// durableFleet builds a MemStore-backed registry of n registered hosts, each
// with one status report, snapshotting every n records — so the store holds
// a mid-log snapshot and a suffix behind it.
func durableFleet(b testing.TB, n int) *Registry {
	b.Helper()
	clock := vclock.NewAuto(vclock.Epoch)
	r := NewRegistry(WithClock(clock), WithStore(persist.NewMemStore()), WithSnapshotEvery(n))
	for i := 0; i < n; i++ {
		if err := r.RegisterHost(fmt.Sprintf("ws%05d", i), proto.StaticInfo{CPUSpeed: 1e6}); err != nil {
			b.Fatal(err)
		}
	}
	clock.Sleep(5 * time.Second)
	for i := 0; i < n; i++ {
		if err := r.ReportStatus(fmt.Sprintf("ws%05d", i), proto.Status{State: "busy", Load1: 1.5}); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// BenchmarkReplayBootstrap measures the crash-consistent restart — load
// snapshot, replay the log suffix — at 512 and 4096 hosts, the cost a
// durable registry pays instead of the re-registration storm. The store
// holds a mid-log snapshot so the bootstrap exercises both paths.
func BenchmarkReplayBootstrap(b *testing.B) {
	for _, n := range []int{512, 4096} {
		b.Run(fmt.Sprintf("hosts%d", n), func(b *testing.B) {
			r := durableFleet(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.mu.Lock()
				if err := r.bootstrapLocked(); err != nil {
					r.mu.Unlock()
					b.Fatal(err)
				}
				r.mu.Unlock()
			}
		})
	}
}

// BenchmarkSnapshotFold measures one snapshot at 512 and 4096 hosts — fold
// the state into the reused document, encode it, hand it to the store —
// the stall a heartbeat pays every SnapshotEvery records. Warm, it
// allocates nothing.
func BenchmarkSnapshotFold(b *testing.B) {
	for _, n := range []int{512, 4096} {
		b.Run(fmt.Sprintf("hosts%d", n), func(b *testing.B) {
			r := durableFleet(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.mu.Lock()
				r.snapshotLocked(r.lastApplied)
				r.mu.Unlock()
			}
		})
	}
}
