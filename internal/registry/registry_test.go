package registry

import (
	"sync"
	"testing"
	"time"

	"autoresched/internal/proto"
	"autoresched/internal/rules"
	"autoresched/internal/vclock"
)

type fakeSink struct {
	mu     sync.Mutex
	orders []struct {
		Host  string
		Order proto.MigrateOrder
	}
	err error
}

func (f *fakeSink) Migrate(host string, order proto.MigrateOrder) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return f.err
	}
	f.orders = append(f.orders, struct {
		Host  string
		Order proto.MigrateOrder
	}{host, order})
	return nil
}

func (f *fakeSink) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.orders)
}

func staticFor(host string) proto.StaticInfo {
	return proto.StaticInfo{
		Addr: "cmd://" + host, OS: "simos", CPUSpeed: 1000,
		MemTotal: 128 << 20, Software: []string{"hpcm"},
	}
}

func status(state string, load float64, procs int) proto.Status {
	return proto.Status{State: state, Load1: load, NumProcs: procs}
}

func testTreeXML(t *testing.T) string {
	t.Helper()
	s := &rules.Schema{
		Name:     "test_tree",
		Estimate: rules.Estimate{Seconds: 300, CPUSpeed: 1000},
	}
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func newReg(t *testing.T, clock vclock.Clock, sink CommandSink, policy *rules.MigrationPolicy) *Registry {
	t.Helper()
	return NewRegistry(
		WithClock(clock),
		WithPolicy(policy),
		WithCommands(sink),
		WithWarmup(2),
		WithCooldown(60*time.Second),
		WithLease(35*time.Second),
	)
}

func TestRegisterAndLeaseExpiry(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	r := newReg(t, clock, nil, nil)
	if err := r.RegisterHost("ws1", staticFor("ws1")); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterHost("", staticFor("x")); err == nil {
		t.Fatal("empty host accepted")
	}
	if got := r.stateOf("ws1"); got != rules.Free {
		t.Fatalf("state = %v", got)
	}
	// Refresh keeps it alive.
	clock.Sleep(30 * time.Second)
	if err := r.ReportStatus("ws1", status("busy", 1.5, 10)); err != nil {
		t.Fatal(err)
	}
	clock.Sleep(30 * time.Second)
	if got := r.stateOf("ws1"); got != rules.Busy {
		t.Fatalf("state = %v", got)
	}
	// Missing refreshes expire the lease.
	clock.Sleep(10 * time.Second)
	if got := r.stateOf("ws1"); got != rules.Unavailable {
		t.Fatalf("state after lease expiry = %v", got)
	}
	hosts := r.Hosts()
	if len(hosts) != 1 || hosts[0].State != rules.Unavailable {
		t.Fatalf("hosts = %+v", hosts)
	}
	if got := r.stateOf("ghost"); got != rules.Unavailable {
		t.Fatalf("unknown host state = %v", got)
	}
}

func TestStatusFromUnregisteredHost(t *testing.T) {
	r := newReg(t, vclock.NewAuto(vclock.Epoch), nil, nil)
	if err := r.ReportStatus("ghost", status("free", 0, 1)); err == nil {
		t.Fatal("status from unregistered host accepted")
	}
	if err := r.ReportStatus("ghost", proto.Status{State: "sideways"}); err == nil {
		t.Fatal("garbage state accepted")
	}
}

func TestProcessRegistrationAndSelection(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	r := newReg(t, clock, nil, nil)
	if err := r.RegisterHost("ws1", staticFor("ws1")); err != nil {
		t.Fatal(err)
	}
	// Process from unknown host rejected.
	if err := r.RegisterProcess("ghost", proto.ProcessInfo{PID: 1}); err == nil {
		t.Fatal("process on unknown host accepted")
	}
	// Bad schema rejected.
	if err := r.RegisterProcess("ws1", proto.ProcessInfo{PID: 1, SchemaXML: "<junk"}); err == nil {
		t.Fatal("bad schema accepted")
	}

	// Two processes; the one with the LATEST estimated completion is
	// selected (Section 4). Both started together; longer estimate wins.
	longXML := testTreeXML(t)
	short := &rules.Schema{Name: "short", Estimate: rules.Estimate{Seconds: 10, CPUSpeed: 1000}}
	shortData, _ := short.Marshal()
	start := clock.Now().UnixNano()
	if err := r.RegisterProcess("ws1", proto.ProcessInfo{PID: 11, Name: "short", Start: start, SchemaXML: string(shortData)}); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterProcess("ws1", proto.ProcessInfo{PID: 12, Name: "test_tree", Start: start, SchemaXML: longXML}); err != nil {
		t.Fatal(err)
	}
	sel, ok := r.SelectProcess("ws1")
	if !ok || sel.PID != 12 {
		t.Fatalf("selected %+v, want pid 12 (latest completion)", sel)
	}
	if len(r.Processes("ws1")) != 2 {
		t.Fatal("process table wrong")
	}
	if err := r.ProcessExit("ws1", 12); err != nil {
		t.Fatal(err)
	}
	sel, ok = r.SelectProcess("ws1")
	if !ok || sel.PID != 11 {
		t.Fatalf("selected %+v after exit", sel)
	}
	if _, ok := r.SelectProcess("ghost"); ok {
		t.Fatal("selection on unknown host succeeded")
	}
}

func TestFirstFitRegistrationOrderAndStates(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	r := newReg(t, clock, nil, nil)
	for _, h := range []string{"ws2", "ws3", "ws4"} {
		if err := r.RegisterHost(h, staticFor(h)); err != nil {
			t.Fatal(err)
		}
	}
	// ws2 busy, ws3 overloaded, ws4 free: first fit must pick ws4.
	if err := r.ReportStatus("ws2", status("busy", 1.5, 10)); err != nil {
		t.Fatal(err)
	}
	if err := r.ReportStatus("ws3", status("overloaded", 2.5, 10)); err != nil {
		t.Fatal(err)
	}
	if err := r.ReportStatus("ws4", status("free", 0.1, 10)); err != nil {
		t.Fatal(err)
	}
	cand, ok := r.FirstFit("ws1", ProcInfo{})
	if !ok || cand.Host != "ws4" {
		t.Fatalf("candidate = %+v", cand)
	}
	// Free both ws2 and ws4: registration order makes ws2 win.
	if err := r.ReportStatus("ws2", status("free", 0.1, 10)); err != nil {
		t.Fatal(err)
	}
	cand, ok = r.FirstFit("ws1", ProcInfo{})
	if !ok || cand.Host != "ws2" {
		t.Fatalf("candidate = %+v, want ws2 (registration order)", cand)
	}
	// Excluded source never returned.
	cand, ok = r.FirstFit("ws2", ProcInfo{})
	if !ok || cand.Host != "ws4" {
		t.Fatalf("candidate = %+v, want ws4 with ws2 excluded", cand)
	}
	// Expired hosts are skipped.
	clock.Sleep(time.Hour)
	if _, ok := r.FirstFit("ws1", ProcInfo{}); ok {
		t.Fatal("stale host offered as candidate")
	}
}

func TestFirstFitSchemaRequirements(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	r := newReg(t, clock, nil, nil)
	small := staticFor("ws2")
	small.MemTotal = 16 << 20
	if err := r.RegisterHost("ws2", small); err != nil {
		t.Fatal(err)
	}
	if err := r.ReportStatus("ws2", status("free", 0, 5)); err != nil {
		t.Fatal(err)
	}
	demanding := &rules.Schema{
		Name:         "big",
		Requirements: rules.Requirements{MinMemory: 64 << 20},
	}
	if _, ok := r.FirstFit("ws1", ProcInfo{Schema: demanding}); ok {
		t.Fatal("host without enough memory offered")
	}
	big := staticFor("ws3")
	if err := r.RegisterHost("ws3", big); err != nil {
		t.Fatal(err)
	}
	if err := r.ReportStatus("ws3", status("free", 0, 5)); err != nil {
		t.Fatal(err)
	}
	cand, ok := r.FirstFit("ws1", ProcInfo{Schema: demanding})
	if !ok || cand.Host != "ws3" {
		t.Fatalf("candidate = %+v", cand)
	}
	// Software requirement.
	needsSW := &rules.Schema{
		Name:         "sw",
		Requirements: rules.Requirements{Software: []string{"exotic"}},
	}
	if _, ok := r.FirstFit("ws1", ProcInfo{Schema: needsSW}); ok {
		t.Fatal("host without software offered")
	}
}

func TestDecisionFlowWarmupAndCooldown(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	sink := &fakeSink{}
	r := newReg(t, clock, sink, nil) // state-based policy, warmup 2
	for _, h := range []string{"ws1", "ws4"} {
		if err := r.RegisterHost(h, staticFor(h)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.RegisterProcess("ws1", proto.ProcessInfo{
		PID: 7, Name: "test_tree", Start: clock.Now().UnixNano(), SchemaXML: testTreeXML(t),
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.ReportStatus("ws4", status("free", 0.1, 5)); err != nil {
		t.Fatal(err)
	}

	// First overloaded report: warm-up, no order yet.
	if err := r.ReportStatus("ws1", status("overloaded", 3, 200)); err != nil {
		t.Fatal(err)
	}
	if sink.count() != 0 {
		t.Fatal("order before warm-up complete")
	}
	// An intervening non-overloaded report resets the warm-up.
	if err := r.ReportStatus("ws1", status("busy", 1.2, 50)); err != nil {
		t.Fatal(err)
	}
	if err := r.ReportStatus("ws1", status("overloaded", 3, 200)); err != nil {
		t.Fatal(err)
	}
	if sink.count() != 0 {
		t.Fatal("warm-up not reset by recovery")
	}
	// Second consecutive overloaded report fires the order.
	if err := r.ReportStatus("ws1", status("overloaded", 3, 200)); err != nil {
		t.Fatal(err)
	}
	if sink.count() != 1 {
		t.Fatalf("orders = %d, want 1", sink.count())
	}
	got := sink.orders[0]
	if got.Host != "ws1" || got.Order.PID != 7 || got.Order.DestHost != "ws4" || got.Order.DestAddr != "cmd://ws4" {
		t.Fatalf("order = %+v", got)
	}

	// Cooldown: immediately repeated overloaded reports do not re-order.
	for i := 0; i < 3; i++ {
		if err := r.ReportStatus("ws1", status("overloaded", 3, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if sink.count() != 1 {
		t.Fatalf("orders during cooldown = %d", sink.count())
	}
	// After the cooldown (and fresh leases), ordering resumes.
	clock.Sleep(61 * time.Second)
	if err := r.ReportStatus("ws4", status("free", 0.1, 5)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := r.ReportStatus("ws1", status("overloaded", 3, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if sink.count() != 2 {
		t.Fatalf("orders after cooldown = %d, want 2", sink.count())
	}
	ordered, _ := r.Stats()
	if ordered != 2 {
		t.Fatalf("Stats ordered = %d", ordered)
	}
}

func TestDecisionDeclinedWithoutDestination(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	sink := &fakeSink{}
	r := newReg(t, clock, sink, nil)
	if err := r.RegisterHost("ws1", staticFor("ws1")); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterProcess("ws1", proto.ProcessInfo{PID: 7, Start: clock.Now().UnixNano()}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := r.ReportStatus("ws1", status("overloaded", 3, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if sink.count() != 0 {
		t.Fatal("order issued without destination")
	}
	_, declined := r.Stats()
	if declined == 0 {
		t.Fatal("declined not counted")
	}
}

func TestPolicyDrivenDecision(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	sink := &fakeSink{}
	r := NewRegistry(
		WithClock(clock),
		WithPolicy(rules.Policy3()),
		WithCommands(sink),
		WithWarmup(1),
		WithCooldown(time.Minute),
	)
	for _, h := range []string{"ws1", "ws2", "ws4"} {
		if err := r.RegisterHost(h, staticFor(h)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.RegisterProcess("ws1", proto.ProcessInfo{PID: 9, Start: clock.Now().UnixNano()}); err != nil {
		t.Fatal(err)
	}
	// ws2: low load but heavy communication; ws4: free. Policy 3 must skip
	// ws2 even though it registered first.
	if err := r.ReportStatus("ws2", proto.Status{State: "free", Load1: 0.97, NumProcs: 40, NetOutMBps: 7.2}); err != nil {
		t.Fatal(err)
	}
	if err := r.ReportStatus("ws4", proto.Status{State: "free", Load1: 0.05, NumProcs: 30}); err != nil {
		t.Fatal(err)
	}
	if err := r.ReportStatus("ws1", proto.Status{State: "overloaded", Load1: 2.6, NumProcs: 60}); err != nil {
		t.Fatal(err)
	}
	if sink.count() != 1 {
		t.Fatalf("orders = %d", sink.count())
	}
	if got := sink.orders[0].Order; got.DestHost != "ws4" || got.Policy != "policy3" {
		t.Fatalf("order = %+v", got)
	}
}

func TestCandidatePull(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	r := newReg(t, clock, nil, nil)
	if err := r.RegisterHost("ws1", staticFor("ws1")); err != nil {
		t.Fatal(err)
	}
	// No process registered: candidate request explains why.
	cand := r.Candidate("ws1")
	if cand.OK {
		t.Fatalf("candidate = %+v", cand)
	}
	if err := r.RegisterProcess("ws1", proto.ProcessInfo{PID: 5, Start: clock.Now().UnixNano()}); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterHost("ws2", staticFor("ws2")); err != nil {
		t.Fatal(err)
	}
	if err := r.ReportStatus("ws2", status("free", 0, 2)); err != nil {
		t.Fatal(err)
	}
	cand = r.Candidate("ws1")
	if !cand.OK || cand.Host != "ws2" {
		t.Fatalf("candidate = %+v", cand)
	}
}

func TestHandlerServesProtocol(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	r := newReg(t, clock, nil, nil)
	h := r.Handler()

	static := staticFor("ws1")
	if _, err := h(&proto.Message{Type: proto.TypeRegister, From: "ws1", Static: &static}); err != nil {
		t.Fatal(err)
	}
	st := status("busy", 1.1, 9)
	if _, err := h(&proto.Message{Type: proto.TypeStatus, From: "ws1", Status: &st}); err != nil {
		t.Fatal(err)
	}
	if r.stateOf("ws1") != rules.Busy {
		t.Fatal("status not applied")
	}
	pi := proto.ProcessInfo{PID: 3, Name: "x", Start: clock.Now().UnixNano()}
	if _, err := h(&proto.Message{Type: proto.TypeProcessRegister, From: "ws1", Process: &pi}); err != nil {
		t.Fatal(err)
	}
	resp, err := h(&proto.Message{Type: proto.TypeCandidateRequest, From: "ws1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp == nil || resp.Type != proto.TypeCandidateResponse {
		t.Fatalf("resp = %+v", resp)
	}
	if _, err := h(&proto.Message{Type: proto.TypeProcessExit, From: "ws1", Process: &proto.ProcessInfo{PID: 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := h(&proto.Message{Type: proto.TypeUnregister, From: "ws1"}); err != nil {
		t.Fatal(err)
	}
	if len(r.Hosts()) != 0 {
		t.Fatal("unregister did not remove host")
	}
	if _, err := h(&proto.Message{Type: proto.TypeAck, From: "x"}); err == nil {
		t.Fatal("unexpected type accepted")
	}
}
