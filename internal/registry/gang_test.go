package registry

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"autoresched/internal/vclock"
)

// gangReg builds a registry with n registered, free, lease-fresh hosts
// named g1..gn.
func gangReg(t *testing.T, n int) (*Registry, *vclock.Auto) {
	t.Helper()
	clock := vclock.NewAuto(vclock.Epoch)
	r := NewRegistry(WithClock(clock))
	for i := 1; i <= n; i++ {
		host := fmt.Sprintf("g%d", i)
		if err := r.RegisterHost(host, staticFor(host)); err != nil {
			t.Fatal(err)
		}
	}
	return r, clock
}

func TestPlaceGangReservesAtomically(t *testing.T) {
	r, _ := gangReg(t, 4)
	g, ok := r.PlaceGang(ProcInfo{Name: "job"}, 3, nil)
	if !ok {
		t.Fatal("PlaceGang declined with 4 free hosts")
	}
	if got := g.Hosts(); len(got) != 3 || got[0] != "g1" || got[1] != "g2" || got[2] != "g3" {
		t.Fatalf("gang hosts = %v, want first-fit g1..g3", got)
	}
	// The reserved hosts are invisible to a second admission: only g4 is
	// left, so a 2-gang must be declined whole (all-or-nothing).
	if _, ok := r.PlaceGang(ProcInfo{Name: "job2"}, 2, nil); ok {
		t.Fatal("second PlaceGang double-booked reserved hosts")
	}
	if g2, ok := r.PlaceGang(ProcInfo{Name: "job3"}, 1, nil); !ok {
		t.Fatal("1-gang should fit on the remaining host")
	} else if g2.Hosts()[0] != "g4" {
		t.Fatalf("1-gang landed on %v, want g4", g2.Hosts())
	}
	if err := g.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := r.Reserved(); len(got) != 1 || got[0] != "g4" {
		t.Fatalf("Reserved() after commit = %v, want [g4]", got)
	}
}

func TestPlaceGangExcludesAndAbortRollsBack(t *testing.T) {
	r, _ := gangReg(t, 3)
	exclude := func(h string) bool { return h == "g1" }
	g, ok := r.PlaceGang(ProcInfo{}, 2, exclude)
	if !ok {
		t.Fatal("PlaceGang declined")
	}
	if got := g.Hosts(); got[0] != "g2" || got[1] != "g3" {
		t.Fatalf("gang hosts = %v, want [g2 g3]", got)
	}
	g.Abort()
	if got := r.Reserved(); len(got) != 0 {
		t.Fatalf("Reserved() after abort = %v, want empty", got)
	}
	// Aborted reservations leave the hosts placeable again.
	if _, ok := r.PlaceGang(ProcInfo{}, 3, nil); !ok {
		t.Fatal("hosts not released by Abort")
	}
}

func TestGangCommitFailsWhenHostDies(t *testing.T) {
	r, _ := gangReg(t, 3)
	g, ok := r.PlaceGang(ProcInfo{}, 3, nil)
	if !ok {
		t.Fatal("PlaceGang declined")
	}
	if err := r.UnregisterHost("g2"); err != nil {
		t.Fatal(err)
	}
	err := g.Commit()
	if !errors.Is(err, ErrReservationLost) {
		t.Fatalf("Commit after host death = %v, want ErrReservationLost", err)
	}
	// The rollback must be complete: no reservation marks survive.
	if got := r.Reserved(); len(got) != 0 {
		t.Fatalf("Reserved() after failed commit = %v, want empty", got)
	}
}

func TestGangCommitFailsOnLeaseExpiry(t *testing.T) {
	r, clock := gangReg(t, 2)
	g, ok := r.PlaceGang(ProcInfo{}, 2, nil)
	if !ok {
		t.Fatal("PlaceGang declined")
	}
	clock.Sleep(36 * time.Second) // past the 35 s default lease
	if err := g.Commit(); !errors.Is(err, ErrReservationLost) {
		t.Fatalf("Commit with expired leases = %v, want ErrReservationLost", err)
	}
	if got := r.Reserved(); len(got) != 0 {
		t.Fatalf("Reserved() = %v, want empty", got)
	}
}

func TestGangRestartPoisonsReservations(t *testing.T) {
	r, _ := gangReg(t, 2)
	g, ok := r.PlaceGang(ProcInfo{}, 2, nil)
	if !ok {
		t.Fatal("PlaceGang declined")
	}
	r.Restart()
	// Even if the hosts re-register before Commit runs, the reservation
	// was soft state the restart dropped: Commit must fail.
	if err := r.RegisterHost("g1", staticFor("g1")); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterHost("g2", staticFor("g2")); err != nil {
		t.Fatal(err)
	}
	if err := g.Commit(); !errors.Is(err, ErrReservationLost) {
		t.Fatalf("Commit after registry restart = %v, want ErrReservationLost", err)
	}
	if got := r.Reserved(); len(got) != 0 {
		t.Fatalf("Reserved() = %v, want empty", got)
	}
}

func TestReserveHostsPinsOccupiedHosts(t *testing.T) {
	r, _ := gangReg(t, 3)
	g, err := r.ReserveHosts([]string{"g3", "g1"})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Hosts(); got[0] != "g3" || got[1] != "g1" {
		t.Fatalf("hosts = %v, want pinned order [g3 g1]", got)
	}
	if _, err := r.ReserveHosts([]string{"g1"}); err == nil {
		t.Fatal("overlapping ReserveHosts succeeded")
	}
	if _, err := r.ReserveHosts([]string{"g2", "nope"}); err == nil {
		t.Fatal("ReserveHosts with unknown host succeeded")
	}
	// The failed all-or-nothing attempt must not have held g2.
	if _, err := r.ReserveHosts([]string{"g2"}); err != nil {
		t.Fatalf("g2 unexpectedly held: %v", err)
	}
	if err := g.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestGangConcurrentAdmissions is the race-clean acceptance test: many
// goroutines fight over a small fleet; reservations must never overlap and
// every commit must be all-or-nothing.
func TestGangConcurrentAdmissions(t *testing.T) {
	const hosts, workers, rounds = 8, 6, 50
	r, _ := gangReg(t, hosts)
	var (
		mu    sync.Mutex
		owned = map[string]int{} // host -> worker currently holding it
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				g, ok := r.PlaceGang(ProcInfo{Name: fmt.Sprintf("w%d", w)}, 3, nil)
				if !ok {
					continue
				}
				mu.Lock()
				for _, h := range g.Hosts() {
					if prev, taken := owned[h]; taken {
						t.Errorf("host %s double-booked by workers %d and %d", h, prev, w)
					}
					owned[h] = w
				}
				mu.Unlock()
				// Release the ownership record before Commit drops the
				// reservation marks: once Commit returns another worker may
				// legitimately reserve these hosts.
				mu.Lock()
				for _, h := range g.Hosts() {
					delete(owned, h)
				}
				mu.Unlock()
				if err := g.Commit(); err != nil {
					t.Errorf("Commit: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Reserved(); len(got) != 0 {
		t.Fatalf("Reserved() after storm = %v, want empty", got)
	}
}
