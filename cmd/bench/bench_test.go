package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"autoresched/internal/core"
	"autoresched/internal/monitor"
	"autoresched/internal/proto"
	"autoresched/internal/sysinfo"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		pick float64
	}{
		{120000, 99.9, 99.9}, // hb_durable: 120 samples beyond
		{24000, 99, 99},      // admit_backlog: capped at the workload's percentile
		{320, 95, 95},        // migrate: 16 beyond
		{120, 90, 90},        // recover: 12 beyond
		{100, 90, 90},        // exactly ten beyond still counts
		{99, 90, 75},         // nine beyond p90 is not a distribution
		{9999, 99.9, 99},     // 9 beyond p99.9, 99 beyond p99
		{12, 99.9, 50},       // nothing on the ladder has ten beyond
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, c.want); got != c.pick {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.pick)
		}
	}
}

// One segment with a burst must not decide the tail when there are enough
// samples to take it slice by slice; with few samples it is the plain
// percentile of the whole run.
func TestTailIsMedianOverSlices(t *testing.T) {
	var segs [][]float64
	var all []float64
	for s := 0; s < 10; s++ {
		seg := make([]float64, 2000)
		for i := range seg {
			switch {
			case s == 3 && i < 1000:
				seg[i] = 50 // the burst
			case i >= 1970:
				seg[i] = 5 // the ordinary tail: 30 of 2000
			default:
				seg[i] = 1
			}
		}
		segs = append(segs, seg)
		all = append(all, seg...)
	}
	sort.Float64s(all)
	if got := percentile(all, 99); got != 50 {
		t.Fatalf("plain p99 = %g, want the burst's 50", got)
	}
	if got := tail(segs, 99); got != 5 {
		t.Errorf("tail(p99) = %g, want 5: the median of ten per-slice tails", got)
	}
	small := [][]float64{make([]float64, 60), make([]float64, 60)}
	for i := range small[1] {
		small[0][i], small[1][i] = float64(i), float64(60+i)
	}
	if got := tail(small, 95); got != 113 {
		t.Errorf("tail(p95) of 120 samples = %g, want the plain percentile 113", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {0.5, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := beyond(100, 90); got != 10 {
		t.Errorf("beyond(100, 90) = %d, want 10", got)
	}
	if got := median([]float64{5, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// The acceptance check computes spreads with Python's
// statistics.quantiles(v, n=4); quantiles(range(1, 11), n=4) is
// [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %g, want %g", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "bench.op", Op: 1, Parent: -1, Start: 0, End: 100},
		{Name: "a.first", Op: 1, Parent: 0, Start: 10, End: 30},
		{Name: "a.overlap", Op: 1, Parent: 0, Start: 20, End: 50}, // overlaps a.first: [30,50) is new
		{Name: "a.late", Op: 1, Parent: 0, Start: 90, End: 120},   // clipped to the parent: [90,100)
		{Name: "b.leaf", Op: 1, Parent: 1, Start: 12, End: 18},
		{Name: "b.open", Op: 1, Parent: 0, Start: 60, End: 0}, // never ended
	}
	want := []int64{100 - 20 - 20 - 10, 20 - 6, 30, 30, 6, 0}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestCoverageAndTotals(t *testing.T) {
	spans := []span{
		{Name: "bench.cycle", Op: 0, Parent: -1, Start: 0, End: 100},
		{Name: "jobs.plan", Op: 0, Parent: 0, Start: 10, End: 70},
		{Name: "registry.place", Op: 0, Parent: 0, Start: 70, End: 95},
		{Name: "persist.append", Op: 0, Parent: 2, Start: 75, End: 80},
	}
	tot := totals(spans)
	if got := tot.coverage(); math.Abs(got-0.85) > 1e-12 {
		t.Errorf("coverage = %g, want 0.85 (15 of 100 ns are the benchmark's own)", got)
	}
	if got := tot.selfPerOpUS("registry.place", 1); math.Abs(got-0.020) > 1e-12 {
		t.Errorf("registry.place self = %g us, want 0.020", got)
	}
	if got := tot.meanUS("jobs.plan"); math.Abs(got-0.060) > 1e-12 {
		t.Errorf("jobs.plan mean = %g us, want 0.060", got)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var none *tracer
	if id := none.begin("x.y", 0, -1); id != -1 {
		t.Errorf("nil tracer opened span %d", id)
	}
	none.end(-1)
	tr := newTracer(4)
	if id := tr.begin("x.y", 0, -1); id != -1 {
		t.Errorf("switched-off tracer opened span %d", id)
	}
	tr.on.Store(true)
	root := tr.begin("x.y", 7, -1)
	kid := tr.begin("x.z", 7, root)
	tr.end(kid)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[kid].Parent != root || tr.spans[kid].Op != 7 || tr.spans[root].End < tr.spans[kid].End {
		t.Errorf("spans = %+v", tr.spans)
	}
}

// heartbeatBytes renders the first n heartbeats of the hb workloads for a
// seed as they go on the wire: host i%4's source through the real sensor,
// engine and codec.
func heartbeatBytes(t *testing.T, seed int64, n int) []byte {
	t.Helper()
	engine := core.DefaultEngine()
	sensors := make([]*sysinfo.Sensor, 4)
	for i := range sensors {
		sensors[i] = sysinfo.NewSensor(newSynthSource(seed, i))
	}
	var out bytes.Buffer
	for k := 0; k < n; k++ {
		snap, err := sensors[k%4].Gather()
		if err != nil {
			t.Fatal(err)
		}
		grade, err := engine.Evaluate(snap)
		if err != nil {
			t.Fatal(err)
		}
		status := monitor.StatusFromSample(monitor.Sample{Snap: snap, Grade: grade, State: grade.State()})
		msg := proto.Message{Type: proto.TypeStatus, From: hostName(k % 4), Seq: uint64(k + 1), Status: &status}
		wire, err := msg.Encode()
		if err != nil {
			t.Fatal(err)
		}
		out.Write(wire)
	}
	return out.Bytes()
}

func specBytes(seed int64, n int) []byte {
	gen := newSpecGen(seed)
	var out bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&out, "%+v\n", gen.next())
	}
	return out.Bytes()
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	if a, b := heartbeatBytes(t, 3, 400), heartbeatBytes(t, 3, 400); !bytes.Equal(a, b) {
		t.Error("the same seed produced two heartbeat sequences")
	}
	if a, b := heartbeatBytes(t, 3, 400), heartbeatBytes(t, 4, 400); bytes.Equal(a, b) {
		t.Error("seeds 3 and 4 produced the same heartbeat sequence")
	}
	if a, b := specBytes(3, 400), specBytes(3, 400); !bytes.Equal(a, b) {
		t.Error("the same seed produced two job sequences")
	}
	if a, b := specBytes(3, 400), specBytes(4, 400); bytes.Equal(a, b) {
		t.Error("seeds 3 and 4 produced the same job sequence")
	}
	if jacobiHot(3) != jacobiHot(3) || jacobiHot(3) == jacobiHot(4) {
		t.Error("jacobiHot does not follow the seed")
	}
}

// Two readings in three must move a host to another state set, which is what
// makes registry ingest do its set bookkeeping on the hb workloads.
func TestSyntheticSourceMovesStates(t *testing.T) {
	engine := core.DefaultEngine()
	sensor := sysinfo.NewSensor(newSynthSource(1, 0))
	moves, prev := 0, ""
	const n = 3000
	for i := 0; i < n; i++ {
		snap, err := sensor.Gather()
		if err != nil {
			t.Fatal(err)
		}
		grade, err := engine.Evaluate(snap)
		if err != nil {
			t.Fatal(err)
		}
		if s := grade.State().String(); s != prev {
			moves++
			prev = s
		}
	}
	if share := float64(moves) / n; share < 0.6 || share > 0.73 {
		t.Errorf("%.2f of readings moved the state, want about 2/3", share)
	}
}

// The manifest and the tables in main.go must name the same workloads and
// metrics, or a run prints a result line the manifest does not describe.
func TestManifestMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var mf struct {
		Paths     []string
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}
	if len(mf.Paths) != 1 || mf.Paths[0] != "cmd/bench" {
		t.Errorf("paths = %v, want [cmd/bench]", mf.Paths)
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, code %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if mf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: manifest %q, code %q", i, mf.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("manifest has %d %s metrics, code %d", len(got), kind, len(want))
		}
		for i, def := range want {
			if got[i] != (metric{def.name, def.unit, def.better}) {
				t.Errorf("%s metric %d: manifest %+v, code %+v", kind, i, got[i], def)
			}
		}
	}
	check("end-to-end", mf.EndToEnd, endToEnd)
	check("per-layer", mf.PerLayer, perLayer)
}

// One scaled-down admit_backlog run, untraced and traced: the harness end to
// end without the network or a second of work.
func TestHarnessSmoke(t *testing.T) {
	w := workloadDef{name: "admit_backlog", timedPerSec: 40, warmup: 10, tail: 99, build: buildAdmit}
	res, err := runWorkload(w, 1, 1, nil, &calibrator{passes: 1}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct || res.attempted != 40 || res.failed != 0 {
		t.Fatalf("untraced run: %+v", res)
	}
	for _, def := range endToEnd {
		if v, ok := res.metrics[def.name]; !ok || v <= 0 {
			t.Errorf("end-to-end metric %s = %v", def.name, v)
		}
	}
	tr := newTracer(1 << 10)
	res, err = runWorkload(w, 1, 1, tr, &calibrator{passes: 1}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct {
		t.Fatalf("traced run: %+v", res)
	}
	for _, def := range perLayer {
		if _, ok := res.metrics[def.name]; !ok {
			t.Errorf("per-layer metric %s missing", def.name)
		}
	}
	if c := res.metrics["trace.coverage"]; c < 0.5 || c > 1 {
		t.Errorf("trace.coverage = %g", c)
	}
	if res.metrics["jobs.plan_us"] <= 0 || res.metrics["persist.appends_per_op"] <= 0 {
		t.Errorf("admit_backlog's own layers are empty: %v", res.metrics)
	}
}
