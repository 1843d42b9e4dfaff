package main

import (
	"errors"
	"fmt"
	"math/rand"

	"autoresched/internal/persist"
	"autoresched/internal/proto"
	"autoresched/internal/registry"
	"autoresched/internal/vclock"
)

// recover: one op is a registry crash to recovered state. Set-up writes a
// store the way a registry would have left it (4096 hosts, 1024 processes
// registered without a schema document, 3 status rounds; 17 408 records, snapshot folded every
// 4096, so the last snapshot covers 16 384 and the log suffix holds 1024).
// The op opens that store and builds a registry on it: snapshot load plus
// suffix replay. No gang is left unresolved, so bootstrap appends nothing
// and every op reads identical bytes.

const (
	recoverHosts         = 4096
	recoverProcs         = 1024
	recoverRounds        = 3
	recoverSnapshotEvery = 4096
)

type recoverFixture struct {
	e     env
	clock *vclock.Manual

	// The pre-crash values every recovery must reproduce.
	digest       string
	hosts, procs int
	seq          uint64

	// The op in flight: its store, its recovered registry (checked after
	// the op's end timestamp) and, in a traced run, its store decorator.
	fs  *persist.FileStore
	reg *registry.Registry
	ts  *tracedStore
}

func buildRecover(e env) (fixture, error) {
	fx := &recoverFixture{e: e, clock: vclock.NewManual(frozenEpoch)}
	fs, err := persist.OpenFileStore(e.dir, persist.FileConfig{})
	if err != nil {
		return nil, err
	}
	reg := registry.NewRegistry(registry.WithClock(fx.clock),
		registry.WithStore(fs), registry.WithSnapshotEvery(recoverSnapshotEvery))
	if err := fillRegistry(reg, e.seed); err != nil {
		return nil, errors.Join(err, fs.Close())
	}
	fx.digest, fx.seq = reg.StateDigest(), reg.Seq()
	fx.hosts, fx.procs = reg.Health().Hosts, reg.Health().Processes
	if want := uint64(recoverHosts*(1+recoverRounds) + recoverProcs); fx.seq != want {
		return nil, errors.Join(fmt.Errorf("store holds %d records, want %d", fx.seq, want), fs.Close())
	}
	return fx, fs.Close()
}

// fillRegistry registers the hosts, one process on every fourth host, and
// three rounds of seeded status refreshes.
func fillRegistry(reg *registry.Registry, seed int64) error {
	srcs := make([]*synthSource, recoverHosts)
	for i := range srcs {
		srcs[i] = newSynthSource(seed, i)
		if err := reg.RegisterHost(hostName(i), srcs[i].staticInfo()); err != nil {
			return err
		}
	}
	for p := 0; p < recoverProcs; p++ {
		info := proto.ProcessInfo{PID: 1000 + p, Name: fmt.Sprintf("jacobi-%d", p), Start: frozenEpoch.UnixNano()}
		if err := reg.RegisterProcess(hostName(p*recoverHosts/recoverProcs), info); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 1<<22)))
	states := []string{"free", "busy", "overloaded"}
	for round := 0; round < recoverRounds; round++ {
		for i, src := range srcs {
			src.Now()
			class := rng.Intn(3)
			status := proto.Status{
				State: states[class], Grade: float64(class), Load1: src.load1, Load5: src.load1 * 0.9,
				CPUUtilPct: 100 * rng.Float64(), NumProcs: len(synthProcs), Sockets: src.sockets,
				MemAvailPct: 100 * rng.Float64(), MemAvail: src.static.MemTotal - src.memUsed,
			}
			if err := reg.ReportStatus(hostName(i), status); err != nil {
				return err
			}
		}
	}
	return nil
}

func (fx *recoverFixture) drivers() int { return 1 }

func (fx *recoverFixture) op(_, i int) error {
	tr := fx.e.tr
	opID := int32(i)
	root := tr.begin("bench.recover", opID, -1)
	open := tr.begin("persist.open", opID, root)
	fs, err := persist.OpenFileStore(fx.e.dir, persist.FileConfig{})
	tr.end(open)
	if err != nil {
		tr.end(root)
		return err
	}
	var store persist.Store = fs
	boot := tr.begin("registry.bootstrap", opID, root)
	if tr != nil {
		fx.ts = newTracedStore(fs, tr, func([]byte) (int32, int32) { return opID, boot })
		store = fx.ts
	}
	reg := registry.NewRegistry(registry.WithClock(fx.clock),
		registry.WithStore(store), registry.WithSnapshotEvery(recoverSnapshotEvery))
	tr.end(boot)
	tr.end(root)
	fx.fs, fx.reg = fs, reg
	return nil
}

// check compares the recovered registry with the pre-crash values.
func (fx *recoverFixture) check(_, _ int) error {
	digest, seq, health := fx.reg.StateDigest(), fx.reg.Seq(), fx.reg.Health()
	if err := fx.fs.Close(); err != nil {
		return err
	}
	if digest != fx.digest || seq != fx.seq || health.Hosts != fx.hosts || health.Processes != fx.procs {
		return fmt.Errorf("recovered digest %s seq %d hosts %d procs %d, before the crash %s %d %d %d",
			digest, seq, health.Hosts, health.Processes, fx.digest, fx.seq, fx.hosts, fx.procs)
	}
	return nil
}

// verify has nothing left to do: every op checked its own recovery.
func (fx *recoverFixture) verify() error { return nil }

func (fx *recoverFixture) layers(m map[string]float64, t spanTotals, ops int) error {
	m["persist.open_ms"] = t.meanUS("persist.open") / 1e3
	m["persist.load_snapshot_ms"] = t.meanUS("persist.load_snapshot") / 1e3
	m["persist.read_since_ms"] = t.meanUS("persist.read_since") / 1e3
	m["registry.bootstrap_self_ms"] = t.selfPerOpUS("registry.bootstrap", ops) / 1e3
	if fx.ts != nil {
		m["persist.replayed_records"] = float64(fx.ts.replayed)
	}
	return nil
}

func (fx *recoverFixture) close() error { return nil }
