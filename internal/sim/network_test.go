package sim

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"autoresched/internal/vclock"
)

func newNet(t *testing.T, bw float64, hosts ...string) (*Network, vclock.Clock) {
	t.Helper()
	clock := vclock.NewAuto(vclock.Epoch)
	n := NewNetwork(clock, Options{DefaultBandwidth: bw})
	for _, h := range hosts {
		if err := n.AddHost(h); err != nil {
			t.Fatalf("AddHost(%q): %v", h, err)
		}
	}
	return n, clock
}

func TestSingleTransferTakesSizeOverBandwidth(t *testing.T) {
	n, clock := newNet(t, 1e6, "a", "b")
	start := clock.Now()
	if err := n.Transfer("a", "b", 10e6); err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	got := clock.Since(start)
	// 10 MB at 1 MB/s = 10 virtual seconds.
	if got < 9*time.Second || got > 13*time.Second {
		t.Fatalf("transfer took %v, want ~10s", got)
	}
}

func TestCountersMatchTransferredBytes(t *testing.T) {
	n, _ := newNet(t, 1e6, "a", "b")
	if err := n.Transfer("a", "b", 2_000_000); err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	sent, _, err := n.Counters("a")
	if err != nil {
		t.Fatal(err)
	}
	_, recv, err := n.Counters("b")
	if err != nil {
		t.Fatal(err)
	}
	if sent != 2_000_000 || recv != 2_000_000 {
		t.Fatalf("counters sent=%d recv=%d, want 2000000 each", sent, recv)
	}
}

func TestConcurrentFlowsShareSenderNIC(t *testing.T) {
	n, clock := newNet(t, 1e6, "a", "b", "c")
	start := clock.Now()
	var wg vclock.WaitGroup
	for _, dst := range []string{"b", "c"} {
		wg.Add(1)
		vclock.Go(clock, func() {
			defer wg.Done()
			if err := n.Transfer("a", dst, 5e6); err != nil {
				t.Errorf("Transfer to %s: %v", dst, err)
			}
		})
	}
	wg.Wait(clock)
	got := clock.Since(start)
	// Two 5 MB flows sharing a 1 MB/s sender: each runs at 0.5 MB/s, both
	// finish together at ~10 s.
	if got < 9*time.Second || got > 14*time.Second {
		t.Fatalf("shared transfers took %v, want ~10s", got)
	}
}

func TestIndependentPairsDoNotInterfere(t *testing.T) {
	n, clock := newNet(t, 1e6, "a", "b", "c", "d")
	start := clock.Now()
	var wg vclock.WaitGroup
	for _, pair := range [][2]string{{"a", "b"}, {"c", "d"}} {
		wg.Add(1)
		vclock.Go(clock, func() {
			defer wg.Done()
			if err := n.Transfer(pair[0], pair[1], 5e6); err != nil {
				t.Errorf("Transfer %s->%s: %v", pair[0], pair[1], err)
			}
		})
	}
	wg.Wait(clock)
	got := clock.Since(start)
	// Disjoint NIC pairs each run at full capacity: ~5 s.
	if got < 4*time.Second || got > 8*time.Second {
		t.Fatalf("independent transfers took %v, want ~5s", got)
	}
}

func TestShortFlowFreesCapacityForLongFlow(t *testing.T) {
	n, clock := newNet(t, 1e6, "a", "b", "c")
	start := clock.Now()
	var wg vclock.WaitGroup
	wg.Add(2)
	vclock.Go(clock, func() { // long flow: 9 MB
		defer wg.Done()
		if err := n.Transfer("a", "b", 9e6); err != nil {
			t.Errorf("long: %v", err)
		}
	})
	vclock.Go(clock, func() { // short flow: 1 MB, same sender
		defer wg.Done()
		if err := n.Transfer("a", "c", 1e6); err != nil {
			t.Errorf("short: %v", err)
		}
	})
	wg.Wait(clock)
	got := clock.Since(start)
	// Shared until the short flow's 1 MB is done (2 s at 0.5 MB/s); the
	// long flow then has 8 MB left at full rate => total ~10 s.
	if got < 9*time.Second || got > 14*time.Second {
		t.Fatalf("took %v, want ~10s", got)
	}
}

func TestTransferUnknownHost(t *testing.T) {
	n, _ := newNet(t, 1e6, "a")
	if err := n.Transfer("a", "nope", 10); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("err = %v, want ErrUnknownHost", err)
	}
	if err := n.Transfer("nope", "a", 10); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("err = %v, want ErrUnknownHost", err)
	}
}

func TestTransferToDownHostFails(t *testing.T) {
	n, _ := newNet(t, 1e6, "a", "b")
	if err := n.SetDown("b", true); err != nil {
		t.Fatal(err)
	}
	if err := n.Transfer("a", "b", 10); !errors.Is(err, ErrHostDown) {
		t.Fatalf("err = %v, want ErrHostDown", err)
	}
	if err := n.SetDown("b", false); err != nil {
		t.Fatal(err)
	}
	if err := n.Transfer("a", "b", 10); err != nil {
		t.Fatalf("transfer after revive: %v", err)
	}
}

func TestHostGoingDownFailsInFlightTransfer(t *testing.T) {
	n, clock := newNet(t, 1e3, "a", "b") // slow: 1 KB/s
	err, done := transferAsync(clock, n, "a", "b", 1e9)
	clock.Sleep(time.Second) // the flow is in flight, then the receiver dies
	if n.activeFlows() == 0 {
		t.Fatal("flow never became active")
	}
	if err := n.SetDown("b", true); err != nil {
		t.Fatal(err)
	}
	vclock.Await(clock, done)
	if !errors.Is(*err, ErrHostDown) {
		t.Fatalf("err = %v, want ErrHostDown", *err)
	}
}

func TestZeroSizeAndLoopbackAreFree(t *testing.T) {
	n, clock := newNet(t, 1e6, "a", "b")
	start := clock.Now()
	if err := n.Transfer("a", "b", 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Transfer("a", "a", 1e9); err != nil {
		t.Fatal(err)
	}
	if d := clock.Since(start); d > time.Second {
		t.Fatalf("free transfers took %v virtual", d)
	}
	sent, recv, _ := n.Counters("a")
	if sent != 0 || recv != 0 {
		t.Fatalf("loopback counted: sent=%d recv=%d", sent, recv)
	}
}

func TestNegativeSizeRejected(t *testing.T) {
	n, _ := newNet(t, 1e6, "a", "b")
	if err := n.Transfer("a", "b", -1); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestDuplicateHostRejected(t *testing.T) {
	n, _ := newNet(t, 1e6, "a")
	if err := n.AddHost("a"); err == nil {
		t.Fatal("duplicate host accepted")
	}
	if err := n.AddHostBandwidth("x", -5); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
}

// Property: total bytes accounted on the sender equals the sum of completed
// transfer sizes, for arbitrary concurrent fan-outs.
func TestCountersConservationProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 8 {
			sizes = sizes[:8]
		}
		clock := vclock.NewAuto(vclock.Epoch)
		n := NewNetwork(clock, Options{DefaultBandwidth: 1e6})
		if err := n.AddHost("src"); err != nil {
			return false
		}
		if err := n.AddHost("dst"); err != nil {
			return false
		}
		var want int64
		var wg vclock.WaitGroup
		for _, s := range sizes {
			size := int64(s)
			want += size
			wg.Add(1)
			vclock.Go(clock, func() {
				defer wg.Done()
				_ = n.Transfer("src", "dst", size)
			})
		}
		wg.Wait(clock)
		sent, _, err := n.Counters("src")
		if err != nil {
			return false
		}
		// Floating point integration: allow one byte of slack per flow.
		return sent >= want-int64(len(sizes)) && sent <= want+int64(len(sizes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHostFlowsCountsEndpoints(t *testing.T) {
	n, clock := newNet(t, 1e3, "a", "b", "c") // slow so flows stay active
	if got, err := n.HostFlows("a"); err != nil || got != 0 {
		t.Fatalf("idle flows = %d, %v", got, err)
	}
	_, ab := transferAsync(clock, n, "a", "b", 1e6)
	_, ca := transferAsync(clock, n, "c", "a", 1e6)
	clock.Sleep(time.Second)
	if got, err := n.HostFlows("a"); err != nil || got != 2 {
		t.Fatalf("HostFlows = %d, %v; want 2", got, err)
	}
	if got, _ := n.HostFlows("b"); got != 1 {
		t.Fatalf("b flows = %d", got)
	}
	if _, err := n.HostFlows("ghost"); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("err = %v", err)
	}
	// Tear down to end the transfers quickly.
	if err := n.SetDown("a", true); err != nil {
		t.Fatal(err)
	}
	vclock.Await(clock, ab)
	vclock.Await(clock, ca)
}

func TestSetDownUnknownHost(t *testing.T) {
	n, _ := newNet(t, 1e6)
	if err := n.SetDown("ghost", true); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("err = %v, want ErrUnknownHost", err)
	}
}

func TestSetLinkFactorSlowsTransfers(t *testing.T) {
	n, clock := newNet(t, 1e6, "a", "b")
	if err := n.SetLinkFactor("a", "b", 0.5); err != nil {
		t.Fatalf("SetLinkFactor: %v", err)
	}
	start := clock.Now()
	if err := n.Transfer("a", "b", 5e6); err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	got := clock.Since(start)
	// 5 MB at 0.5 MB/s = 10 virtual seconds (twice the healthy-link time).
	if got < 9*time.Second || got > 13*time.Second {
		t.Fatalf("degraded transfer took %v, want ~10s", got)
	}
	// Restore and confirm full rate again.
	if err := n.SetLinkFactor("b", "a", 1); err != nil {
		t.Fatalf("SetLinkFactor restore: %v", err)
	}
	start = clock.Now()
	if err := n.Transfer("a", "b", 5e6); err != nil {
		t.Fatalf("Transfer after restore: %v", err)
	}
	got = clock.Since(start)
	if got < 4*time.Second || got > 8*time.Second {
		t.Fatalf("restored transfer took %v, want ~5s", got)
	}
}

func TestSetLinkFactorRejectsNonPositive(t *testing.T) {
	n, _ := newNet(t, 1e6, "a", "b")
	if err := n.SetLinkFactor("a", "b", 0); err == nil {
		t.Fatal("SetLinkFactor(0) accepted")
	}
	if err := n.SetLinkFactor("a", "nope", 0.5); err == nil {
		t.Fatal("SetLinkFactor with unknown host accepted")
	}
}

func TestPartitionFailsNewAndInFlightTransfers(t *testing.T) {
	n, _ := newNet(t, 1e6, "a", "b", "c")
	if err := n.SetPartitioned("a", "b", true); err != nil {
		t.Fatalf("SetPartitioned: %v", err)
	}
	if !n.Partitioned("b", "a") {
		t.Fatal("Partitioned = false after SetPartitioned")
	}
	if err := n.Transfer("a", "b", 1e6); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("Transfer across partition: %v, want ErrPartitioned", err)
	}
	// Other links keep working.
	if err := n.Transfer("a", "c", 1e5); err != nil {
		t.Fatalf("Transfer on healthy link: %v", err)
	}
	// Heal and confirm.
	if err := n.SetPartitioned("a", "b", false); err != nil {
		t.Fatalf("heal: %v", err)
	}
	if err := n.Transfer("a", "b", 1e5); err != nil {
		t.Fatalf("Transfer after heal: %v", err)
	}
}

func TestPartitionCutsInFlightFlow(t *testing.T) {
	n, clock := newNet(t, 1e6, "a", "b")
	err, done := transferAsync(clock, n, "a", "b", 100e6)
	clock.Sleep(time.Second) // the flow is in flight, then the link is cut
	if err := n.SetPartitioned("a", "b", true); err != nil {
		t.Fatalf("SetPartitioned: %v", err)
	}
	vclock.Await(clock, done)
	if !errors.Is(*err, ErrPartitioned) {
		t.Fatalf("in-flight transfer: %v, want ErrPartitioned", *err)
	}
}

// transferAsync starts a transfer on its own goroutine; done fires when
// it returned, with its error in *err.
func transferAsync(clock vclock.Clock, n *Network, from, to string, size int64) (*error, *vclock.Event) {
	err := new(error)
	done := new(vclock.Event)
	vclock.Go(clock, func() {
		defer done.Fire()
		*err = n.Transfer(from, to, size)
	})
	return err, done
}
