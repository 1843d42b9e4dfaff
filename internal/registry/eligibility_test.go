package registry

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"autoresched/internal/persist"
	"autoresched/internal/rules"
	"autoresched/internal/vclock"
)

// TestOneEligibilityRule pins the rule every placement draws from: over a
// fleet holding one host of each disqualified kind, a migration (FirstFit),
// a gang placement (PlaceGang) and the planner's view (EligibleHosts) reject
// the lease-expired, the reserved, the excluded and the schema-misfit host
// identically, and differ only on the Busy host — gang occupancy is the job
// layer's bookkeeping, so a gang may take it, while a migration only lands
// on Free hosts.
func TestOneEligibilityRule(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	r := NewRegistry(WithClock(clock))
	fleet := []string{"expired", "reserved", "excluded", "misfit", "busy", "free1", "free2"}
	for _, h := range fleet {
		st := staticFor(h)
		if h == "misfit" {
			st.MemTotal = 16 << 20
		}
		if err := r.RegisterHost(h, st); err != nil {
			t.Fatal(err)
		}
	}
	clock.Sleep(40 * time.Second) // past the 35 s lease
	for _, h := range fleet[1:] {
		state := "free"
		if h == "busy" {
			state = "busy"
		}
		if err := r.ReportStatus(h, status(state, 0.1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	held, err := r.ReserveHosts([]string{"reserved"})
	if err != nil {
		t.Fatal(err)
	}
	defer held.Abort()
	proc := ProcInfo{Name: "job", Schema: &rules.Schema{
		Name:         "big",
		Requirements: rules.Requirements{MinMemory: 64 << 20},
	}}
	exclude := func(h string) bool { return h == "excluded" }

	// A migration off "excluded": drain first fit by pinning each pick.
	var migration []string
	var pins []*GangReservation
	for {
		cand, ok := r.FirstFit("excluded", proc)
		if !ok {
			break
		}
		pin, err := r.ReserveHosts([]string{cand.Host})
		if err != nil {
			t.Fatalf("first fit offered unreservable host %q: %v", cand.Host, err)
		}
		pins = append(pins, pin)
		migration = append(migration, cand.Host)
	}
	for _, pin := range pins {
		pin.Abort()
	}
	if want := []string{"free1", "free2"}; !reflect.DeepEqual(migration, want) {
		t.Fatalf("migration destinations = %v, want %v", migration, want)
	}

	gangWant := []string{"busy", "free1", "free2"}
	var eligible []string
	for _, h := range r.EligibleHosts(proc, exclude) {
		eligible = append(eligible, h.Name)
	}
	if !reflect.DeepEqual(eligible, gangWant) {
		t.Fatalf("EligibleHosts = %v, want %v", eligible, gangWant)
	}
	if g, ok := r.PlaceGang(proc, 4, exclude); ok {
		t.Fatalf("PlaceGang(4) reserved %v out of 3 eligible hosts", g.Hosts())
	}
	if got := r.Reserved(); !reflect.DeepEqual(got, []string{"reserved"}) {
		t.Fatalf("declined PlaceGang left marks: %v", got)
	}
	g, ok := r.PlaceGang(proc, 3, exclude)
	if !ok || !reflect.DeepEqual(g.Hosts(), gangWant) {
		t.Fatalf("PlaceGang(3) = %v ok=%v, want %v", g.Hosts(), ok, gangWant)
	}
	g.Abort()
}

// TestFencedStoreRefusesEveryReservation: both reservation entry points end
// in the same journal-then-mark step, so a deposed primary's PlaceGang is
// refused exactly as its ReserveHosts is, and neither leaves a mark behind.
func TestFencedStoreRefusesEveryReservation(t *testing.T) {
	store := persist.NewMemStore()
	r, _, _ := storedRegistry(t, store)
	for _, h := range []string{"ws1", "ws2"} {
		if err := r.RegisterHost(h, staticFor(h)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := store.Fence(); err != nil {
		t.Fatal(err)
	}
	if g, ok := r.PlaceGang(ProcInfo{}, 2, nil); ok {
		t.Fatalf("fenced PlaceGang reserved %v", g.Hosts())
	}
	if _, err := r.ReserveHosts([]string{"ws1"}); !errors.Is(err, persist.ErrFenced) {
		t.Fatalf("fenced ReserveHosts = %v, want ErrFenced", err)
	}
	r.mu.Lock()
	_, err := r.reserveLocked([]string{"ws2"})
	r.mu.Unlock()
	if !errors.Is(err, persist.ErrFenced) {
		t.Fatalf("fenced reserveLocked = %v, want ErrFenced", err)
	}
	if got := r.Reserved(); len(got) != 0 {
		t.Fatalf("fenced reservations left marks: %v", got)
	}
}

// TestLeastLoadedPlaceOne: a migration is Place with n = 1, and the stable
// sort picks what the scheduler's old single-destination scan picked — the
// lowest Load1, the earlier candidate on a tie.
func TestLeastLoadedPlaceOne(t *testing.T) {
	stream := func(loads ...float64) CandidateSeq {
		return func(yield func(HostInfo) bool) {
			for i, l := range loads {
				if !yield(HostInfo{Name: string(rune('a' + i)), Status: status("free", l, 1)}) {
					return
				}
			}
		}
	}
	for want, loads := range map[string][]float64{"b": {0.8, 0.2, 0.5}, "a": {0.3, 0.3}, "c": {0.9, 0.9, 0.1, 0.1}} {
		got, ok := LeastLoadedScheduler{}.Place(ProcInfo{}, 1, stream(loads...))
		if !ok || len(got) != 1 || got[0].Name != want {
			t.Errorf("Place(1) over %v = %+v ok=%v, want %s", loads, got, ok, want)
		}
	}
	if got, ok := (LeastLoadedScheduler{}).Place(ProcInfo{}, 1, stream()); ok {
		t.Errorf("Place(1) over an empty stream = %+v, want a decline", got)
	}
}
