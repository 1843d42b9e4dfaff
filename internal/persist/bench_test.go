package persist

import (
	"fmt"
	"testing"
)

// BenchmarkAppend measures the per-record cost of the change-log append on
// both backends — the write amplification every registry mutation pays once
// Options.Store is set.
func BenchmarkAppend(b *testing.B) {
	payload := []byte(`{"host":"ws0001","status":{"state":"busy","load1":1.5}}`)
	b.Run("mem", func(b *testing.B) {
		s := NewMemStore()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Append(0, "host-status", payload); err != nil {
				b.Fatalf("append: %v", err)
			}
		}
	})
	b.Run("file", func(b *testing.B) {
		s, err := OpenFileStore(b.TempDir(), FileConfig{segmentRecords: 4096})
		if err != nil {
			b.Fatalf("open: %v", err)
		}
		defer s.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Append(0, "host-status", payload); err != nil {
				b.Fatalf("append: %v", err)
			}
		}
	})
}

// BenchmarkSnapshotRoundtrip measures writing and reloading a snapshot of
// growing size — the compaction cost the registry pays every SnapshotEvery
// appends.
func BenchmarkSnapshotRoundtrip(b *testing.B) {
	for _, kb := range []int{16, 256} {
		data := make([]byte, kb*1024)
		for i := range data {
			data[i] = byte(i)
		}
		b.Run(fmt.Sprintf("file/%dKiB", kb), func(b *testing.B) {
			s, err := OpenFileStore(b.TempDir(), FileConfig{})
			if err != nil {
				b.Fatalf("open: %v", err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.WriteSnapshot(0, Snapshot{Seq: uint64(i), Data: data}); err != nil {
					b.Fatalf("snapshot: %v", err)
				}
				if _, ok, err := s.LoadSnapshot(); err != nil || !ok {
					b.Fatalf("load: ok=%v err=%v", ok, err)
				}
			}
		})
	}
}
