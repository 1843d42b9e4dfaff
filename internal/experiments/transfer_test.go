package experiments

import (
	"math"
	"testing"
	"time"

	"autoresched/internal/hpcm"
	"autoresched/internal/mpi"
	"autoresched/internal/sim"
	"autoresched/internal/vclock"
)

// migrateStateInto measures one migration's state-transfer time (resume to
// restoration complete) into dest.
func migrateStateInto(t *testing.T, withBusyFlow bool) time.Duration {
	t.Helper()
	clock := vclock.NewAuto(vclock.Epoch)
	net := sim.NewNetwork(clock, sim.Options{DefaultBandwidth: 12.5e6})
	for _, h := range []string{"src", "dst", "peer"} {
		if err := net.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	u := mpi.NewUniverse(mpi.Options{
		Clock:        clock,
		Transport:    mpi.SimTransport{Net: net},
		SpawnLatency: 300 * time.Millisecond,
	})
	mw, err := hpcm.New(hpcm.Options{Universe: u, ChunkBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}

	// Optionally saturate dst's receive path with back-to-back transfers
	// from peer, the Table 2 workstation-5 role.
	stop := make(chan struct{})
	var wg vclock.WaitGroup
	if withBusyFlow {
		wg.Add(1)
		vclock.Go(clock, func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := net.Transfer("peer", "dst", 32<<20); err != nil {
					return
				}
			}
		})
	}

	main := func(ctx *hpcm.Context) error {
		ballast := make([]byte, 64<<20)
		if err := ctx.RegisterLazy("ballast", &ballast); err != nil {
			return err
		}
		if !ctx.Resumed() {
			return ctx.PollPoint("go")
		}
		return ctx.Await("ballast")
	}
	p, err := mw.Start("xfer", "src", main)
	if err != nil {
		t.Fatal(err)
	}
	p.Signal(hpcm.Command{DestHost: "dst"})
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait(clock)
	rec := p.Records()[0]
	return rec.RestoreDone.Sub(rec.ResumeAt)
}

// TestTransferSlowerIntoCommBusyHost pins the mechanism behind Table 2's
// migration-time column (8.31 s into the communicating workstation versus
// 6.71 s into the free one): the state transfer shares the destination's
// receive path with the background flow. The fair-share model gives each
// flow half the NIC, so the 64 MiB ballast takes exactly twice its
// free-path time of 64 MiB / 12.5 MB/s.
func TestTransferSlowerIntoCommBusyHost(t *testing.T) {
	free := migrateStateInto(t, false)
	busy := migrateStateInto(t, true)
	model := time.Duration(float64(64<<20) / 12.5e6 * float64(time.Second))
	for _, c := range []struct {
		name      string
		got, want time.Duration
	}{{"free", free, model}, {"busy", busy, 2 * model}} {
		if d := math.Abs(float64(c.got-c.want)) / float64(c.want); d > 0.01 {
			t.Errorf("%s transfer = %v, model %v (off by %.2f%%)", c.name, c.got, c.want, 100*d)
		}
	}
}
