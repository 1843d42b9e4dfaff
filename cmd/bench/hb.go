package main

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"autoresched/internal/core"
	"autoresched/internal/monitor"
	"autoresched/internal/persist"
	"autoresched/internal/proto"
	"autoresched/internal/registry"
	"autoresched/internal/rules"
	"autoresched/internal/sysinfo"
	"autoresched/internal/vclock"
)

// hb_soft and hb_durable: one op is one heartbeat, end to end. Monitor.Cycle
// gathers from the host's synthetic source, evaluates core.DefaultEngine and
// calls the benchmark's Reporter, which frames the status over loopback TCP
// to a proto.Server whose handler is Registry.Handler(). 512 registered
// hosts share 2 connections, one per driver; host i belongs to driver i%2,
// so each host's refreshes arrive in order and the final state is defined.

const (
	hbHosts   = 512
	hbDrivers = 2
	// hbSnapshotEvery is reschedd's -snapshot-every default.
	hbSnapshotEvery = 256
)

// frozenEpoch is where the control-plane workloads freeze their registry's
// clock. The registry stamps LastSeen from its clock into the state digest;
// frozen, a cold replica fed the same refreshes digests identically, and no
// lease expires however slow the run is. A frozen clock never sleeps, so it
// costs what vclock.Real() costs.
var frozenEpoch = time.Unix(1_700_000_000, 0)

type hbDriver struct {
	fx   *hbFixture
	raw  net.Conn
	conn *proto.Conn
	mons []*monitor.Monitor
	seq  uint64

	// last is the status each of this driver's hosts sent last, and
	// curHost the index into it of the host being cycled.
	last    []proto.Status
	curHost int
	// curOp and curSpan are the op in flight and its innermost open span,
	// read by the handler wrapper on the server's goroutine.
	curOp   atomic.Int32
	curSpan atomic.Int32
}

type hbFixture struct {
	e       env
	clock   *vclock.Manual
	fs      *persist.FileStore // nil for hb_soft
	ts      *tracedStore       // nil unless durable and traced
	reg     *registry.Registry
	srv     *proto.Server
	drv     [hbDrivers]*hbDriver
	statics []proto.StaticInfo

	moves atomic.Int64 // traced refreshes that changed the host's state
}

func buildHB(durable bool) func(env) (fixture, error) {
	return func(e env) (fixture, error) {
		fx := &hbFixture{e: e, clock: vclock.NewManual(frozenEpoch)}
		opts := []registry.Option{registry.WithClock(fx.clock)}
		if durable {
			// Flush policy: none. FileStore appends through the page cache
			// and never syncs; the benchmark measures it as it ships.
			fs, err := persist.OpenFileStore(e.dir, persist.FileConfig{})
			if err != nil {
				return nil, err
			}
			fx.fs = fs
			var store persist.Store = fs
			if e.tr != nil {
				fx.ts = newTracedStore(fs, e.tr, fx.opOfRecord)
				store = fx.ts
			}
			opts = append(opts, registry.WithStore(store), registry.WithSnapshotEvery(hbSnapshotEvery))
		}
		fx.reg = registry.NewRegistry(opts...)
		srv, err := proto.NewServer("registry", "127.0.0.1:0", fx.handler())
		if err != nil {
			return nil, err
		}
		fx.srv = srv
		for d := range fx.drv {
			raw, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				return nil, err
			}
			drv := &hbDriver{fx: fx, raw: raw, conn: proto.NewConn(raw)}
			drv.curSpan.Store(-1)
			fx.drv[d] = drv
		}
		engine := core.DefaultEngine()
		for i := 0; i < hbHosts; i++ {
			drv := fx.drv[i%hbDrivers]
			src := newSynthSource(e.seed, i)
			mon, err := monitor.NewMonitor(hostName(i), src,
				monitor.WithEngine(engine),
				monitor.WithReporter(drv),
				monitor.WithHistorySize(16))
			if err != nil {
				return nil, err
			}
			drv.mons = append(drv.mons, mon)
			drv.last = append(drv.last, proto.Status{})
			static := src.staticInfo()
			fx.statics = append(fx.statics, static)
			// Monitor.Start would register and then loop on its own clock;
			// the benchmark registers once and calls Cycle itself.
			if err := drv.RegisterHost(hostName(i), static); err != nil {
				return nil, err
			}
		}
		return fx, nil
	}
}

// handler is Registry.Handler(), in a traced run wrapped in a span parented
// on the calling driver's round trip.
func (fx *hbFixture) handler() proto.Handler {
	inner := fx.reg.Handler()
	if fx.e.tr == nil {
		return inner
	}
	return func(m *proto.Message) (*proto.Message, error) {
		drv := fx.drv[hostIndex(m.From)%hbDrivers]
		id := fx.e.tr.begin("registry.ingest", drv.curOp.Load(), drv.curSpan.Load())
		resp, err := inner(m)
		fx.e.tr.end(id)
		return resp, err
	}
}

// hostIndex recovers i from hostName(i).
func hostIndex(name string) int {
	i := 0
	for _, c := range name[1:] {
		i = i*10 + int(c-'0')
	}
	return i
}

// opOfRecord attributes a store call to the op that caused it: a status
// record names its host, the host belongs to one driver, and a closed-loop
// driver has one op in flight.
func (fx *hbFixture) opOfRecord(data []byte) (op, parent int32) {
	const prefix = `{"host":"`
	if len(data) < len(prefix)+5 || string(data[:len(prefix)]) != prefix {
		return -1, -1
	}
	drv := fx.drv[hostIndex(string(data[len(prefix):len(prefix)+5]))%hbDrivers]
	return drv.curOp.Load(), drv.curSpan.Load()
}

func (fx *hbFixture) drivers() int { return hbDrivers }

func (fx *hbFixture) op(d, i int) error {
	drv := fx.drv[d]
	tr := fx.e.tr
	opID := int32(i*hbDrivers + d)
	drv.curOp.Store(opID)
	root := tr.begin("monitor.cycle", opID, -1)
	drv.curSpan.Store(root)
	drv.curHost = i % len(drv.mons)
	_, err := drv.mons[drv.curHost].Cycle()
	tr.end(root)
	return err
}

// RegisterHost, ReportStatus and UnregisterHost make hbDriver the
// monitor.Reporter of its hosts. proto.Client.Call pins From to the client's
// name, so the driver speaks raw proto.Conn with a per-message From and Seq.
func (drv *hbDriver) RegisterHost(host string, static proto.StaticInfo) error {
	return drv.call(&proto.Message{Type: proto.TypeRegister, From: host, Static: &static})
}

func (drv *hbDriver) UnregisterHost(host string) error {
	return drv.call(&proto.Message{Type: proto.TypeUnregister, From: host})
}

func (drv *hbDriver) ReportStatus(host string, status proto.Status) error {
	tr := drv.fx.e.tr
	cycle := drv.curSpan.Load()
	glue := tr.begin("bench.report", drv.curOp.Load(), cycle)
	msg := &proto.Message{Type: proto.TypeStatus, From: host, Status: &status}
	if tr.enabled() && drv.last[drv.curHost].State != status.State {
		drv.fx.moves.Add(1)
	}
	drv.last[drv.curHost] = status
	rt := tr.begin("proto.roundtrip", drv.curOp.Load(), glue)
	drv.curSpan.Store(rt)
	err := drv.call(msg)
	tr.end(rt)
	drv.curSpan.Store(cycle)
	tr.end(glue)
	return err
}

func (drv *hbDriver) call(m *proto.Message) error {
	drv.seq++
	m.Seq = drv.seq
	if err := drv.conn.Send(m); err != nil {
		return err
	}
	resp, err := drv.conn.Recv()
	if err != nil {
		return err
	}
	if resp.Seq != m.Seq {
		return fmt.Errorf("ack for seq %d, sent %d", resp.Seq, m.Seq)
	}
	if resp.Type != proto.TypeAck || resp.Error != "" {
		return fmt.Errorf("registry refused %s from %s: %s %s", m.Type, m.From, resp.Type, resp.Error)
	}
	return nil
}

// verify checks that every host's state at the registry is the one it sent
// last and that a cold replica fed the same registrations and final statuses
// digests identically; a durable registry must also digest identically after
// replaying its own store.
func (fx *hbFixture) verify() error {
	byName := make(map[string]registry.HostInfo, hbHosts)
	for _, h := range fx.reg.Hosts() {
		byName[h.Name] = h
	}
	cold := registry.NewRegistry(registry.WithClock(fx.clock))
	for i := 0; i < hbHosts; i++ {
		name := hostName(i)
		want := fx.drv[i%hbDrivers].last[i/hbDrivers]
		got, ok := byName[name]
		if !ok {
			return fmt.Errorf("host %s missing from the registry", name)
		}
		state, err := rules.ParseState(want.State)
		if err != nil {
			return err
		}
		if got.State != state || got.Status != want {
			return fmt.Errorf("host %s: registry holds %s %+v, last sent %+v", name, got.State, got.Status, want)
		}
		if err := cold.RegisterHost(name, fx.statics[i]); err != nil {
			return err
		}
	}
	for i := 0; i < hbHosts; i++ {
		if err := cold.ReportStatus(hostName(i), fx.drv[i%hbDrivers].last[i/hbDrivers]); err != nil {
			return err
		}
	}
	want := fx.reg.StateDigest()
	if got := cold.StateDigest(); got != want {
		return fmt.Errorf("cold replica digest %s, registry %s", got, want)
	}
	if fx.fs == nil {
		return nil
	}
	if err := fx.fs.Close(); err != nil {
		return err
	}
	fs, err := persist.OpenFileStore(fx.e.dir, persist.FileConfig{})
	if err != nil {
		return err
	}
	replayed := registry.NewRegistry(registry.WithClock(fx.clock), registry.WithStore(fs))
	got, seq := replayed.StateDigest(), replayed.Seq()
	if err := fs.Close(); err != nil {
		return err
	}
	if got != want || seq != fx.reg.Seq() {
		return fmt.Errorf("replayed store digest %s seq %d, registry %s seq %d", got, seq, want, fx.reg.Seq())
	}
	return nil
}

func (fx *hbFixture) layers(m map[string]float64, t spanTotals, ops int) error {
	m["monitor.cycle_self_us"] = t.selfPerOpUS("monitor.cycle", ops)
	m["proto.roundtrip_self_us"] = t.selfPerOpUS("proto.roundtrip", ops)
	m["registry.ingest_self_us"] = t.selfPerOpUS("registry.ingest", ops)
	m["registry.state_moves"] = float64(fx.moves.Load())
	if fx.ts != nil {
		fx.ts.layers(m, t, ops)
		m["registry.snapshot_stall_ms"] = fx.ts.stallMS(t, "registry.ingest")
	}
	return directLayerCosts(m, fx.e.seed)
}

// directLayerCosts times the calls one heartbeat makes into sysinfo, rules
// and the proto codec directly, outside any op: 20 000 calls each on a host
// of their own. They break monitor.cycle_self_us and proto.roundtrip_self_us
// down further than a span around Cycle or Send/Recv can.
func directLayerCosts(m map[string]float64, seed int64) error {
	const n = 20000
	sensor := sysinfo.NewSensor(newSynthSource(seed, hbHosts))
	engine := core.DefaultEngine()
	var snap sysinfo.Snapshot
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s, err := sensor.Gather()
		if err != nil {
			return err
		}
		snap = s
	}
	m["sysinfo.gather_us"] = float64(time.Since(t0).Microseconds()) / n

	var grade rules.Grade
	t0 = time.Now()
	for i := 0; i < n; i++ {
		g, err := engine.Evaluate(snap)
		if err != nil {
			return err
		}
		grade = g
	}
	m["rules.evaluate_us"] = float64(time.Since(t0).Microseconds()) / n

	status := monitor.StatusFromSample(monitor.Sample{Snap: snap, Grade: grade, State: grade.State()})
	msg := &proto.Message{Type: proto.TypeStatus, From: hostName(hbHosts), Seq: 1, Status: &status}
	ack := proto.Ack("registry", msg, nil)
	var wire, ackWire []byte
	t0 = time.Now()
	for i := 0; i < n; i++ {
		var err error
		if wire, err = msg.Encode(); err != nil {
			return err
		}
		if ackWire, err = ack.Encode(); err != nil {
			return err
		}
	}
	m["proto.encode_us"] = float64(time.Since(t0).Microseconds()) / n
	m["proto.wire_bytes"] = float64(len(wire) + len(ackWire) + 8)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, err := proto.Decode(wire); err != nil {
			return err
		}
		if _, err := proto.Decode(ackWire); err != nil {
			return err
		}
	}
	m["proto.decode_us"] = float64(time.Since(t0).Microseconds()) / n
	return nil
}

func (fx *hbFixture) close() error {
	var errs []error
	for _, drv := range fx.drv {
		if drv != nil {
			errs = append(errs, drv.raw.Close())
		}
	}
	errs = append(errs, fx.srv.Close())
	if fx.fs != nil {
		errs = append(errs, fx.fs.Close())
	}
	return errors.Join(errs...)
}
