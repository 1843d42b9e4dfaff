package registry

import (
	"testing"
	"time"

	"autoresched/internal/vclock"
)

// twoDomains is examples/hierarchy's arrangement: domain A's registry
// (hosts aHosts in aState) chained WithParent under an upper registry that
// domain B's free host b1 reports to.
func twoDomains(t *testing.T, clock vclock.Clock, aState string, aHosts ...string) (upper, childA *Registry) {
	t.Helper()
	upper = NewRegistry(WithClock(clock))
	childA = NewRegistry(WithClock(clock), WithParent(upper))
	for _, h := range aHosts {
		if err := childA.RegisterHost(h, staticFor(h)); err != nil {
			t.Fatal(err)
		}
		if err := childA.ReportStatus(h, status(aState, 3, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if err := upper.RegisterHost("b1", staticFor("b1")); err != nil {
		t.Fatal(err)
	}
	if err := upper.ReportStatus("b1", status("free", 0.1, 3)); err != nil {
		t.Fatal(err)
	}
	return upper, childA
}

func TestCrossDomainFirstFit(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	_, childA := twoDomains(t, clock, "busy", "a1", "a2")

	// No destination in A (both hosts busy): the placement is delegated
	// upward and domain B's free host wins.
	cand, ok := childA.FirstFit("a1", ProcInfo{})
	if !ok || cand.Host != "b1" {
		t.Fatalf("candidate = %+v ok=%v, want b1 via the upper registry", cand, ok)
	}
}

func TestDelegationWhenAllLocalHostsOverloaded(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	_, childA := twoDomains(t, clock, "overloaded", "a1", "a2", "a3")

	// Every host in A is overloaded — none may receive a migration — so the
	// placement must leave the domain entirely.
	cand, ok := childA.FirstFit("a1", ProcInfo{})
	if !ok || cand.Host != "b1" {
		t.Fatalf("candidate = %+v ok=%v, want b1 outside the domain", cand, ok)
	}
}

func TestParentDomainLeaseExpiry(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	upper, childA := twoDomains(t, clock, "busy", "a1")

	// Past the lease with no refresh from b1: the upper registry no longer
	// offers it, and with no host of its own to spare the walk fails.
	clock.Sleep(40 * time.Second)
	if cand, ok := childA.FirstFit("a1", ProcInfo{}); ok {
		t.Fatalf("candidate = %+v, want none after b1's lease expired", cand)
	}

	// b1's next refresh renews the lease; delegation resumes.
	if err := upper.ReportStatus("b1", status("free", 0.1, 3)); err != nil {
		t.Fatal(err)
	}
	cand, ok := childA.FirstFit("a1", ProcInfo{})
	if !ok || cand.Host != "b1" {
		t.Fatalf("candidate = %+v ok=%v, want b1 after lease renewal", cand, ok)
	}
}

func TestHierarchicalDelegation(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	join := func(r *Registry, host, state string) {
		t.Helper()
		if err := r.RegisterHost(host, staticFor(host)); err != nil {
			t.Fatal(err)
		}
		if err := r.ReportStatus(host, status(state, 0.1, 3)); err != nil {
			t.Fatal(err)
		}
	}
	place := func(r *Registry, exclude, want string) {
		t.Helper()
		cand, ok := r.FirstFit(exclude, ProcInfo{})
		if want == "" {
			if ok || cand.Reason != "no host fits" {
				t.Fatalf("candidate = %+v ok=%v, want none with reason %q", cand, ok, "no host fits")
			}
			return
		}
		if !ok || cand.Host != want {
			t.Fatalf("candidate = %+v ok=%v, want %s", cand, ok, want)
		}
	}

	// child -> parent -> grandparent, the paper's hierarchy two levels deep.
	grand := NewRegistry(WithClock(clock))
	parent := NewRegistry(WithClock(clock), WithParent(grand))
	child := NewRegistry(WithClock(clock), WithParent(parent))
	join(child, "ws1", "overloaded")

	// Nothing fits anywhere: the walk ends at the top with the reason, and
	// a parent whose own hosts cannot take the process says the same.
	place(child, "ws1", "")
	join(parent, "mid1", "busy")
	place(child, "ws1", "")
	place(parent, "ws1", "")

	// The source host is excluded at every level: each registry holds a
	// free "src" registered ahead of anything else it offers, and none is
	// chosen — the placement climbs to the grandparent's next free host.
	join(parent, "src", "free")
	join(grand, "src", "free")
	join(grand, "top1", "free")
	place(child, "src", "top1")
	place(child, "ws1", "src") // the parent's src, once it is not the source

	// A local free host is preferred over anything above.
	join(child, "ws2", "free")
	place(child, "ws1", "ws2")
}
