package registry

import (
	"testing"
	"time"

	"autoresched/internal/vclock"
)

// twoDomains builds a parent with child domains A (hosts aHosts in aState)
// and B (one free host b1), each child having pushed a fresh health summary.
func twoDomains(t *testing.T, clock vclock.Clock, aState string, aHosts ...string) (parent, childA, childB *Registry) {
	t.Helper()
	parent = newFromConfig(Config{Clock: clock})
	childA = newFromConfig(Config{Clock: clock, Parent: parent, Domain: "A"})
	childB = newFromConfig(Config{Clock: clock, Parent: parent, Domain: "B"})
	for _, h := range aHosts {
		if err := childA.RegisterHost(h, staticFor(h)); err != nil {
			t.Fatal(err)
		}
		if err := childA.ReportStatus(h, status(aState, 3, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if err := childB.RegisterHost("b1", staticFor("b1")); err != nil {
		t.Fatal(err)
	}
	if err := childB.ReportStatus("b1", status("free", 0.1, 3)); err != nil {
		t.Fatal(err)
	}
	return parent, childA, childB
}

func TestCrossDomainFirstFit(t *testing.T) {
	clock := vclock.NewManual(vclock.Epoch)
	parent, childA, _ := twoDomains(t, clock, "busy", "a1", "a2")

	// No destination in A (both hosts busy): the parent walks the sibling
	// domains and B's free host wins.
	cand, ok := childA.FirstFit("a1", ProcInfo{})
	if !ok || cand.Host != "b1" {
		t.Fatalf("candidate = %+v ok=%v, want b1 via domain B", cand, ok)
	}

	// The parent's view lists both domains in attach order, with B
	// advertising capacity.
	doms := parent.Domains()
	if len(doms) != 2 || doms[0].Name != "A" || doms[1].Name != "B" {
		t.Fatalf("Domains() = %+v", doms)
	}
	if doms[0].Health.AcceptsMigrations() {
		t.Fatalf("domain A health = %+v, want no capacity", doms[0].Health)
	}
	if !doms[1].Live || doms[1].Health.Free != 1 {
		t.Fatalf("domain B = %+v, want live with one free host", doms[1])
	}
}

func TestDelegationWhenAllLocalHostsOverloaded(t *testing.T) {
	clock := vclock.NewManual(vclock.Epoch)
	_, childA, _ := twoDomains(t, clock, "overloaded", "a1", "a2", "a3")

	// Every host in A is overloaded — none may receive a migration — so the
	// placement must leave the domain entirely.
	cand, ok := childA.FirstFit("a1", ProcInfo{})
	if !ok || cand.Host != "b1" {
		t.Fatalf("candidate = %+v ok=%v, want b1 outside the domain", cand, ok)
	}
}

func TestParentDomainLeaseExpiry(t *testing.T) {
	clock := vclock.NewManual(vclock.Epoch)
	parent, childA, childB := twoDomains(t, clock, "busy", "a1")

	// Past the domain lease with no health push from B: the parent skips
	// the expired domain, and with no hosts of its own the walk fails.
	clock.Advance(40 * time.Second)
	if cand, ok := childA.FirstFit("a1", ProcInfo{}); ok {
		t.Fatalf("candidate = %+v, want none after B's lease expired", cand)
	}
	doms := parent.Domains()
	if doms[1].Name != "B" || doms[1].Live {
		t.Fatalf("domain B = %+v, want lease expired", doms[1])
	}

	// B's next status refresh piggybacks a health push (the report interval
	// has long passed), renewing the lease; delegation resumes.
	if err := childB.ReportStatus("b1", status("free", 0.1, 3)); err != nil {
		t.Fatal(err)
	}
	if !parent.Domains()[1].Live {
		t.Fatal("domain B still expired after re-report")
	}
	cand, ok := childA.FirstFit("a1", ProcInfo{})
	if !ok || cand.Host != "b1" {
		t.Fatalf("candidate = %+v ok=%v, want b1 after lease renewal", cand, ok)
	}
}

func TestChildReannouncesAfterParentRestart(t *testing.T) {
	clock := vclock.NewManual(vclock.Epoch)
	parent, childA, _ := twoDomains(t, clock, "busy", "a1")

	parent.Restart()
	if len(parent.Domains()) != 0 {
		t.Fatal("restart kept domain state")
	}

	// The child's next health push re-attaches it: ReportDomainHealth is an
	// upsert, so no separate re-registration protocol exists or is needed.
	clock.Advance(11 * time.Second) // past healthReportEvery
	if err := childA.ReportStatus("a1", status("busy", 1.2, 50)); err != nil {
		t.Fatal(err)
	}
	doms := parent.Domains()
	if len(doms) != 1 || doms[0].Name != "A" || !doms[0].Live {
		t.Fatalf("Domains() after re-announce = %+v", doms)
	}
}

func TestHealthPushThrottled(t *testing.T) {
	clock := vclock.NewManual(vclock.Epoch)
	parent := newFromConfig(Config{Clock: clock})
	child := newFromConfig(Config{Clock: clock, Parent: parent, Domain: "A"})
	if err := child.RegisterHost("a1", staticFor("a1")); err != nil {
		t.Fatal(err)
	}

	// First report pushes; reports inside healthReportEvery do not.
	if err := child.ReportStatus("a1", status("free", 0.1, 3)); err != nil {
		t.Fatal(err)
	}
	seen := parent.Domains()[0].LastSeen
	if err := child.ReportStatus("a1", status("free", 0.2, 4)); err != nil {
		t.Fatal(err)
	}
	if got := parent.Domains()[0].LastSeen; !got.Equal(seen) {
		t.Fatalf("health pushed inside the report interval: %v -> %v", seen, got)
	}
	clock.Advance(11 * time.Second)
	if err := child.ReportStatus("a1", status("free", 0.2, 4)); err != nil {
		t.Fatal(err)
	}
	if got := parent.Domains()[0].LastSeen; got.Equal(seen) {
		t.Fatal("health not pushed after the report interval elapsed")
	}
}
