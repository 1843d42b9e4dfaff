package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"autoresched/internal/hpcm"
	"autoresched/internal/livemig"
	"autoresched/internal/mpi"
	"autoresched/internal/workload"
)

// migrate and migrate_live: one op is one migration of a running Jacobi
// relaxation (N=1024: an 8.4 MB grid) between hosts "a" and "b", from
// Process.Signal to the committed Record on Process.Events. One process
// lives through the whole run; the next command is issued when the previous
// record arrives. migrate moves the grid by stop-and-copy (gob state
// collection, lazy streaming); migrate_live keeps it in a livemig.Pages
// region and precopies it while the sweep goes on dirtying a page per row.
// The transport is mpi.Instant and the spawn latency zero, so every
// millisecond is code.

const jacobiN = 1024

// residual is one OnResidual callback.
type residual struct {
	iter  int
	value float64
}

type migrateFixture struct {
	e   env
	cfg workload.JacobiConfig
	u   *mpi.Universe
	p   *hpcm.Process
	tp  *countingTransport

	mu        sync.Mutex
	residuals []residual
	// sweepMS is the median gap between the OnResidual callbacks of the
	// unmigrated reference run: one sweep of the application alone.
	sweepMS float64

	// tracedRecs indexes p.Records() at the migrations of traced ops.
	tracedRecs []int

	// hold, when set, parks the application in its next OnResidual.
	hold atomic.Pointer[hold]
}

// hold is one pause of the application: it announces itself on parked and
// stays until release is closed.
type hold struct {
	parked, release chan struct{}
}

func buildMigrate(live bool) func(env) (fixture, error) {
	return func(e env) (fixture, error) {
		fx := &migrateFixture{e: e}
		var transport mpi.Transport = mpi.Instant{}
		if e.tr != nil {
			fx.tp = &countingTransport{inner: transport, on: &e.tr.on}
			transport = fx.tp
		}
		fx.u = mpi.NewUniverse(mpi.Options{Transport: transport})
		opts := hpcm.Options{Universe: fx.u}
		if live {
			opts.Live = &livemig.Config{}
		}
		mw, err := hpcm.New(opts)
		if err != nil {
			return nil, err
		}
		fx.cfg = workload.JacobiConfig{
			N: jacobiN, Iters: math.MaxInt32, Hot: jacobiHot(e.seed), Paged: live,
			OnResidual: fx.onResidual,
		}
		p, err := mw.Start("jacobi", "a", workload.Jacobi(fx.cfg))
		if err != nil {
			return nil, err
		}
		fx.p = p
		return fx, nil
	}
}

func (fx *migrateFixture) onResidual(iter int, value float64) {
	fx.mu.Lock()
	fx.residuals = append(fx.residuals, residual{iter, value})
	fx.mu.Unlock()
	if h := fx.hold.Load(); h != nil {
		h.parked <- struct{}{}
		<-h.release
	}
}

// pause returns once the application sits in OnResidual: between ops that is
// within one sweep, after the previous migration's restore.
func (fx *migrateFixture) pause() {
	h := &hold{parked: make(chan struct{}), release: make(chan struct{})}
	fx.hold.Store(h)
	select {
	case <-h.parked:
	case <-fx.p.Done(): // a process that ended has nothing left to park
	}
}

func (fx *migrateFixture) resume() {
	close(fx.hold.Swap(nil).release)
}

func (fx *migrateFixture) drivers() int { return 1 }

func (fx *migrateFixture) op(_, i int) error {
	traced := fx.e.tr.enabled()
	if traced {
		fx.tracedRecs = append(fx.tracedRecs, fx.p.Migrations())
	}
	dest := "b"
	if fx.p.Host() == "b" {
		dest = "a"
	}
	sent := time.Now()
	fx.p.Signal(hpcm.Command{DestHost: dest})
	select {
	case rec := <-fx.p.Events():
		if rec.To != dest {
			return fmt.Errorf("migrated to %q, commanded %q", rec.To, dest)
		}
		if traced {
			fx.recordSpans(int32(i), sent, rec)
		}
		return nil
	case <-fx.p.Done():
		return fmt.Errorf("process ended before migrating: %w", fx.p.Wait())
	}
}

// recordSpans turns one committed Record into the op's spans. The phases are
// contiguous on hpcm's own (real) clock: command, poll-point, initialized
// process, [freeze,] resume.
func (fx *migrateFixture) recordSpans(op int32, sent time.Time, rec hpcm.Record) {
	tr := fx.e.tr
	root := tr.add("bench.migrate", op, -1, sent, time.Now())
	tr.add("hpcm.poll_wait", op, root, rec.CommandAt, rec.PollPointAt)
	tr.add("hpcm.init", op, root, rec.PollPointAt, rec.InitDone)
	if rec.FreezeAt.IsZero() {
		tr.add("hpcm.transfer", op, root, rec.InitDone, rec.ResumeAt)
		return
	}
	tr.add("livemig.precopy", op, root, rec.InitDone, rec.FreezeAt)
	tr.add("livemig.freeze", op, root, rec.FreezeAt, rec.ResumeAt)
}

// verify stops the process and compares every residual it reported, bit for
// bit, with an unmigrated run of the same configuration.
func (fx *migrateFixture) verify() error {
	fx.p.Evict()
	if err := fx.p.Wait(); !errors.Is(err, hpcm.ErrPreempted) {
		return fmt.Errorf("process ended with %v, want the eviction", err)
	}
	fx.mu.Lock()
	got := fx.residuals
	fx.mu.Unlock()
	if len(got) == 0 {
		return errors.New("no residual reported")
	}
	want, err := fx.reference(got[len(got)-1].iter)
	if err != nil {
		return err
	}
	for k, r := range got {
		if r.iter != k+1 {
			return fmt.Errorf("residual %d reports iteration %d: a sweep was lost or repeated", k, r.iter)
		}
		if math.Float64bits(r.value) != math.Float64bits(want[k].value) {
			return fmt.Errorf("iteration %d: residual %v, unmigrated run %v", r.iter, r.value, want[k].value)
		}
	}
	return nil
}

// reference runs the same relaxation for iters sweeps without migrating.
func (fx *migrateFixture) reference(iters int) ([]residual, error) {
	ref := make([]residual, 0, iters)
	gaps := make([]float64, 0, iters)
	last := time.Now()
	cfg := fx.cfg
	cfg.Iters = iters
	cfg.OnResidual = func(iter int, value float64) {
		now := time.Now()
		ref = append(ref, residual{iter, value})
		gaps = append(gaps, now.Sub(last).Seconds()*1e3)
		last = now
	}
	mw, err := hpcm.New(hpcm.Options{Universe: mpi.NewUniverse(mpi.Options{})})
	if err != nil {
		return nil, err
	}
	p, err := mw.Start("reference", "a", workload.Jacobi(cfg))
	if err != nil {
		return nil, err
	}
	if err := p.Wait(); err != nil {
		return nil, err
	}
	if len(ref) != iters {
		return nil, fmt.Errorf("reference reported %d residuals, want %d", len(ref), iters)
	}
	fx.sweepMS = median(gaps)
	return ref, nil
}

func (fx *migrateFixture) layers(m map[string]float64, t spanTotals, ops int) error {
	all := fx.p.Records()
	var restore, downtime, eager, lazy, rounds, resent float64
	for _, idx := range fx.tracedRecs {
		r := all[idx]
		restore += r.RestoreDone.Sub(r.ResumeAt).Seconds() * 1e3
		downtime += r.Downtime().Seconds() * 1e3
		eager += float64(r.EagerBytes)
		lazy += float64(r.LazyBytes)
		rounds += float64(r.PrecopyRounds)
		resent += float64(r.PagesResent)
	}
	n := float64(len(fx.tracedRecs))
	m["hpcm.poll_wait_ms"] = t.meanUS("hpcm.poll_wait") / 1e3
	m["hpcm.init_ms"] = t.meanUS("hpcm.init") / 1e3
	m["hpcm.transfer_ms"] = t.meanUS("hpcm.transfer") / 1e3
	m["hpcm.restore_ms"] = restore / n
	m["hpcm.downtime_ms"] = downtime / n
	m["hpcm.eager_bytes"] = eager / n
	m["hpcm.lazy_bytes"] = lazy / n
	m["livemig.precopy_rounds"] = rounds / n
	m["livemig.pages_resent"] = resent / n
	m["livemig.precopy_ms"] = t.meanUS("livemig.precopy") / 1e3
	m["livemig.freeze_ms"] = t.meanUS("livemig.freeze") / 1e3
	m["mpi.sends_per_op"] = float64(fx.tp.sends.Load()) / float64(ops)
	m["mpi.bytes_per_op"] = float64(fx.tp.bytes.Load()) / float64(ops)
	if sends := fx.tp.sends.Load(); sends > 0 {
		m["mpi.transport_wait_us"] = float64(fx.tp.waitNS.Load()) / float64(sends) / 1e3
	}
	m["workload.sweep_ms"] = fx.sweepMS
	return nil
}

// close is a no-op when verify already stopped the process; a fixture closed
// after its warm-up alone still has to stop it.
func (fx *migrateFixture) close() error {
	fx.p.Evict()
	if err := fx.p.Wait(); err != nil && !errors.Is(err, hpcm.ErrPreempted) {
		return err
	}
	fx.u.Wait()
	return nil
}
