package malleable

import (
	"testing"

	"autoresched/internal/metrics"
	"autoresched/internal/mpi"
)

// benchJob runs a long-lived job on n hosts and returns it plus a channel
// delivering one value per committed resize (PhaseResume).
func benchJob(b *testing.B, n int) (*Job, chan Event) {
	b.Helper()
	resumed := make(chan Event)
	j, err := Start(Options{
		Universe:     mpi.NewUniverse(mpi.Options{}),
		App:          &countApp{size: 64, steps: 1 << 30},
		InitialHosts: hosts("h", n),
		Events: metrics.On(func(ev Event) {
			if ev.Phase == PhaseResume {
				resumed <- ev
			}
		}),
	})
	if err != nil {
		b.Fatalf("Start: %v", err)
	}
	return j, resumed
}

func benchResize(b *testing.B, from, to int) {
	j, resumed := benchJob(b, from)
	defer func() {
		j.Stop()
		if _, err := j.Wait(); err != ErrStopped {
			b.Fatalf("Wait: %v", err)
		}
	}()
	fromHosts, toHosts := hosts("h", from), hosts("h", to)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Propose(toHosts); err != nil {
			b.Fatalf("Propose: %v", err)
		}
		<-resumed
		b.StopTimer()
		if err := j.Propose(fromHosts); err != nil {
			b.Fatalf("Propose back: %v", err)
		}
		<-resumed
		b.StartTimer()
	}
	b.StopTimer()
	if w := j.World(); w != from {
		b.Fatalf("world drifted to %d, want %d", w, from)
	}
	if committed, aborted := j.Resizes(); committed != 2*b.N || aborted != 0 {
		b.Fatalf("resizes = %d/%d, want %d committed / 0 aborted", committed, aborted, 2*b.N)
	}
}

// BenchmarkResizeExpand8to16 measures one full grow resize — propose,
// quiesce, drain, spawn 8 ranks, merge, redistribute, resume — on the
// instant transport, so the number is protocol overhead, not payload time.
func BenchmarkResizeExpand8to16(b *testing.B) { benchResize(b, 8, 16) }

// BenchmarkResizeShrink16to8 measures one full shrink resize: drain,
// retire 8 ranks, redistribute to the survivors.
func BenchmarkResizeShrink16to8(b *testing.B) { benchResize(b, 16, 8) }
