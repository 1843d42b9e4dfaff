package experiments

import (
	"errors"
	"time"

	"autoresched/internal/core"
	"autoresched/internal/monitor"
	"autoresched/internal/persist"
	"autoresched/internal/registry"
)

// checkNoResync notes the two counters a durable control plane must leave
// at zero: no monitor re-registered and no process was resynced, however
// often the registry restarted or changed hands.
func checkNoResync(r *chaosRig) {
	r.note("check reregisters=%d proc-resyncs=%d",
		r.mreg.Counter(monitor.CtrReregisters).Value(), r.mreg.Counter(core.CtrProcResyncs).Value())
}

// checkCrashloopRecovery closes the registry-crashloop-* scenarios: the
// parent crash-looped under load (and once more after a torn tail write),
// every restart was noted by the rig's restart log, and now the change log
// must replay on a cold replica to the primary's exact final state.
func checkCrashloopRecovery(r *chaosRig) {
	// Quiesce before the replay check: Stop unregisters the hosts through
	// the monitors, so the log is final and the comparison race-free.
	r.sys.Stop()
	checkNoResync(r)
	replica, err := registry.NewStandby(r.sys.Store())
	if err != nil {
		r.note("check replay-digest-match=error")
		return
	}
	r.note("check replay-digest-match=%v",
		replica.Registry().StateDigest() == r.sys.Registry().StateDigest())
}

// driveStandbyPromotion is the warm-standby HA drill: a standby replica
// follows the primary's change log; mid-run the primary takes a gang
// reservation, the standby promotes (fencing the primary's epoch in the
// store), and the drill asserts the deposed primary cannot commit the
// pending gang while the promoted replica — whose presumed-abort pass
// released it — admits the same hosts exactly once. The scenario's fault
// plan is empty: the sequence interleaves actions with assertions at fixed
// virtual offsets, which a plan cannot express.
func driveStandbyPromotion(r *chaosRig) error {
	clock := r.sys.Clock()
	store := r.sys.Store()
	// The standby shares the cluster's virtual clock: its lease-expiry view
	// of the replayed LastSeen stamps must match the primary's.
	standby, err := registry.NewStandby(store, registry.WithClock(clock), registry.WithMetrics(r.mreg))
	if err != nil {
		return err
	}

	clock.Sleep(40 * time.Second)
	res, err := r.sys.Registry().ReserveHosts([]string{"ws2", "ws3"})
	r.note("+40s    reserve-gang     hosts=ws2,ws3 ok=%v", err == nil)
	clock.Sleep(20 * time.Second)
	promoted, err := standby.Promote()
	r.note("+60s    promote-standby  ok=%v", err == nil)
	if err != nil {
		return nil // noted; the run goes on and the row shows it
	}
	// The deposed primary's two-phase commit must be refused by the store's
	// epoch fence — the no-double-admission guarantee.
	if res != nil {
		r.note("check deposed-commit-fenced=%v", errors.Is(res.Commit(), persist.ErrFenced))
	}
	// The promoted replica presumed the in-flight gang aborted, so the same
	// hosts admit again — exactly once, with no orphaned lease.
	res2, err := promoted.ReserveHosts([]string{"ws2", "ws3"})
	if err == nil {
		err = res2.Commit()
	}
	r.note("check promoted-readmit ok=%v", err == nil)
	r.note("check promoted-reservations-outstanding=%d", len(promoted.Reserved()))

	// The fence froze the deposed primary (every mutation appends before it
	// applies), so the change log is final from the promotion on: a cold
	// replica must replay to the promoted registry's exact state.
	replica, err := registry.NewStandby(store)
	if err != nil {
		r.note("check promoted-digest-match=error")
		return nil
	}
	r.note("check promoted-digest-match=%v",
		replica.Registry().StateDigest() == promoted.StateDigest())
	return nil
}
