package hpcm

import (
	"fmt"
	"testing"
	"time"

	"autoresched/internal/livemig"
	"autoresched/internal/mpi"
	"autoresched/internal/sim"
	"autoresched/internal/vclock"
)

// BenchmarkMigration measures one complete migration (spawn, execution +
// eager state, lazy streaming, restore) of a process carrying the given
// state size, over a simulated 100 Mbps link on the Auto clock.
func BenchmarkMigration(b *testing.B) {
	for _, mb := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("%dMB", mb), func(b *testing.B) {
			size := int64(mb) << 20
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				clock := vclock.NewAuto(vclock.Epoch)
				net := sim.NewNetwork(clock, sim.Options{DefaultBandwidth: 12.5e6})
				if err := net.AddHost("a"); err != nil {
					b.Fatal(err)
				}
				if err := net.AddHost("b"); err != nil {
					b.Fatal(err)
				}
				u := mpi.NewUniverse(mpi.Options{
					Clock:        clock,
					Transport:    mpi.SimTransport{Net: net},
					SpawnLatency: 300 * time.Millisecond,
				})
				mw, err := New(Options{Universe: u, ChunkBytes: 8 << 20})
				if err != nil {
					b.Fatal(err)
				}
				main := func(ctx *Context) error {
					ballast := make([]byte, size)
					if err := ctx.RegisterLazy("ballast", &ballast); err != nil {
						return err
					}
					if !ctx.Resumed() {
						return ctx.PollPoint("go")
					}
					return ctx.Await("ballast")
				}
				b.StartTimer()
				p, err := mw.Start("bench", "a", main)
				if err != nil {
					b.Fatal(err)
				}
				p.Signal(Command{DestHost: "b"})
				if err := p.Wait(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				rec := p.Records()[0]
				b.ReportMetric(rec.MigrationTime().Seconds(), "virtual-s")
				b.ReportMetric(rec.Downtime().Seconds(), "downtime-virtual-s")
				clock.Close()
				b.StartTimer()
			}
			b.SetBytes(size)
		})
	}
}

// livePageBytes is the page size of liveMain's region.
const livePageBytes = 4096

// liveMain is a process with one paged region of size bytes that dirties a
// page per poll-point until it has moved, so a live migration converges
// after round 1. gate, when non-nil, is passed once the region is
// registered and filled: what the process holds before any migration.
func liveMain(size int, gate *turnstile) Main {
	return func(ctx *Context) error {
		pages, err := ctx.RegisterPages("region", size, livePageBytes)
		if err != nil {
			return err
		}
		if ctx.Resumed() {
			return ctx.Await("region")
		}
		pages.SetFloat64(size/8-1, 1)
		if gate != nil {
			gate.pass()
		}
		for i := 0; ; i++ {
			pages.SetFloat64(i%(size/8), float64(i+2))
			if err := ctx.PollPoint("go"); err != nil {
				return err
			}
			ctx.Sleep(time.Millisecond)
		}
	}
}

// newLiveBenchMW is a live-path middleware on the Auto clock with a free
// transport: what a migration costs beyond its wire time.
func newLiveBenchMW(tb testing.TB) (*Middleware, *vclock.Auto) {
	clock := vclock.NewAuto(vclock.Epoch)
	u := mpi.NewUniverse(mpi.Options{Clock: clock, Transport: mpi.Instant{}})
	mw, err := New(Options{Universe: u, Live: &livemig.Config{}})
	if err != nil {
		tb.Fatal(err)
	}
	return mw, clock
}

// BenchmarkLiveMigration is BenchmarkMigration on the live path: one
// complete migration of a process whose state is one paged region of the
// given size, precopy round 1 and a freeze, on a free transport. B/op is
// the data path's price: the source's region, round 1's copy (which the
// destination adopts) and what the rounds after it resend.
func BenchmarkLiveMigration(b *testing.B) {
	for _, mb := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("%dMB", mb), func(b *testing.B) {
			b.ReportAllocs()
			size := mb << 20
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mw, clock := newLiveBenchMW(b)
				b.StartTimer()
				p, err := mw.Start("bench", "a", liveMain(size, nil))
				if err != nil {
					b.Fatal(err)
				}
				p.Signal(Command{DestHost: "b"})
				if err := p.Wait(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if p.Records()[0].FreezeAt.IsZero() {
					b.Fatal("the migration did not precopy and freeze")
				}
				clock.Close()
				b.StartTimer()
			}
			b.SetBytes(int64(size))
		})
	}
}

// BenchmarkPreInitAblation compares migration downtime with and without
// the Section 5.2 pre-initialization optimisation under a LAM-like 300 ms
// spawn latency — the ablation for the design choice DESIGN.md calls out.
func BenchmarkPreInitAblation(b *testing.B) {
	run := func(b *testing.B, preinit bool) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			clock := vclock.NewAuto(vclock.Epoch)
			net := sim.NewNetwork(clock, sim.Options{DefaultBandwidth: 12.5e6})
			if err := net.AddHost("a"); err != nil {
				b.Fatal(err)
			}
			if err := net.AddHost("b"); err != nil {
				b.Fatal(err)
			}
			u := mpi.NewUniverse(mpi.Options{
				Clock:        clock,
				Transport:    mpi.SimTransport{Net: net},
				SpawnLatency: 300 * time.Millisecond,
			})
			mw, err := New(Options{Universe: u, ChunkBytes: 8 << 20})
			if err != nil {
				b.Fatal(err)
			}
			main := func(ctx *Context) error {
				bulk := make([]byte, 1<<20)
				if err := ctx.RegisterLazy("bulk", &bulk); err != nil {
					return err
				}
				if !ctx.Resumed() {
					return ctx.PollPoint("go")
				}
				return ctx.Await("bulk")
			}
			b.StartTimer()
			p, err := mw.Start("bench", "a", main)
			if err != nil {
				b.Fatal(err)
			}
			if preinit {
				if err := p.PreInit("b"); err != nil {
					b.Fatal(err)
				}
			}
			p.Signal(Command{DestHost: "b"})
			if err := p.Wait(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			rec := p.Records()[0]
			b.ReportMetric(rec.Downtime().Seconds(), "downtime-virtual-s")
			b.ReportMetric(rec.InitDone.Sub(rec.PollPointAt).Seconds(), "init-virtual-s")
			clock.Close()
			b.StartTimer()
		}
	}
	b.Run("spawn", func(b *testing.B) { run(b, false) })
	b.Run("preinit", func(b *testing.B) { run(b, true) })
}

// BenchmarkPollPointNoCommand measures the cost of an idle poll-point — the
// overhead an instrumented application pays when no migration is pending.
func BenchmarkPollPointNoCommand(b *testing.B) {
	u := mpi.NewUniverse(mpi.Options{})
	mw, err := New(Options{Universe: u})
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	p, err := mw.Start("bench", "a", func(ctx *Context) error {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ctx.PollPoint("x"); err != nil {
				return err
			}
		}
		b.StopTimer()
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	done <- p.Wait()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStateCollection measures collecting (serialising) a registered
// state set, the source-side cost at a firing poll-point.
func BenchmarkStateCollection(b *testing.B) {
	reg := newRegistry(nil)
	counters := make([]int64, 1024)
	blob := make([]byte, 4<<20)
	if err := reg.register("counters", &counters, false); err != nil {
		b.Fatal(err)
	}
	if err := reg.register("blob", &blob, true); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.collect(""); err != nil {
			b.Fatal(err)
		}
	}
}
