package rules

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"autoresched/internal/vclock"
)

func testTreeSchema() *Schema {
	return &Schema{
		Name:            "test_tree",
		Characteristics: []Characteristic{ComputeIntensive},
		CommBytes:       12 << 20,
		Requirements: Requirements{
			MinMemory:   64 << 20,
			MinCPUSpeed: 100,
			Software:    []string{"hpcm"},
		},
		Estimate: Estimate{Seconds: 300, CPUSpeed: 1000},
	}
}

func TestSchemaMarshalParseRoundTrip(t *testing.T) {
	s := testTreeSchema()
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<applicationSchema>") {
		t.Fatalf("marshalled XML missing root element:\n%s", data)
	}
	got, err := ParseSchema(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Fatalf("round trip changed schema:\n%+v\n%+v", s, got)
	}
	if got.Requirements.MinMemory != 64<<20 || len(got.Requirements.Software) != 1 {
		t.Fatalf("requirements lost: %+v", got.Requirements)
	}
}

// TestLoadHandWrittenDocument parses the checked-in Section 3.3 schema
// document, the format users author by hand.
func TestLoadHandWrittenDocument(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "test_tree.xml"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseSchema(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "test_tree" || !s.Is(ComputeIntensive) {
		t.Fatalf("schema = %+v", s)
	}
	if s.CommBytes != 40<<20 {
		t.Fatalf("comm bytes = %d", s.CommBytes)
	}
	if got := s.EstimateOn(2e6); got != 300*time.Second {
		t.Fatalf("estimate on 2x host = %v", got)
	}
	if ok, reason := s.Fits(128<<20, 0, 5e5, []string{"hpcm", "lam-mpi"}); !ok {
		t.Fatalf("fits = false: %s", reason)
	}
	if ok, _ := s.Fits(128<<20, 0, 5e5, []string{"hpcm"}); ok {
		t.Fatal("missing lam-mpi accepted")
	}
}

func TestSchemaValidateErrors(t *testing.T) {
	cases := []*Schema{
		{},
		{Name: "x", Estimate: Estimate{Seconds: -1}},
		{Name: "x", CommBytes: -1},
		{Name: "x", LocalDataBytes: -2},
		{Name: "x", Characteristics: []Characteristic{"quantum"}},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, s)
		}
	}
	if _, err := ParseSchema([]byte("<applicationSchema><name></name></applicationSchema>")); err == nil {
		t.Error("ParseSchema accepted schema without name")
	}
	if _, err := ParseSchema([]byte("not xml")); err == nil {
		t.Error("ParseSchema accepted garbage")
	}
}

func TestWorkAndEstimates(t *testing.T) {
	s := testTreeSchema()
	if got := s.Work(); got != 300*1000 {
		t.Fatalf("Work = %v, want 300000", got)
	}
	// Estimated time scales inversely with destination speed.
	if got := s.EstimateOn(1000); got != 300*time.Second {
		t.Fatalf("EstimateOn(1000) = %v", got)
	}
	if got := s.EstimateOn(2000); got != 150*time.Second {
		t.Fatalf("EstimateOn(2000) = %v", got)
	}
	if got := s.EstimateOn(0); got != 0 {
		t.Fatalf("EstimateOn(0) = %v, want 0", got)
	}
	start := vclock.Epoch
	if got := s.EstimatedCompletion(start, 1000); !got.Equal(start.Add(300 * time.Second)) {
		t.Fatalf("EstimatedCompletion = %v", got)
	}
}

func TestRecordRunBlendsTowardObserved(t *testing.T) {
	s := testTreeSchema()
	// First observed run: 400s at speed 1000 => work 400000 replaces the
	// 300000 estimate entirely.
	s.RecordRun(400*time.Second, 1000)
	if got := s.Work(); math.Abs(got-400000) > 1 {
		t.Fatalf("after 1 run Work = %v, want 400000", got)
	}
	// Second run of 300s: EMA 0.5*300000 + 0.5*400000 = 350000.
	s.RecordRun(300*time.Second, 1000)
	if got := s.Work(); math.Abs(got-350000) > 1 {
		t.Fatalf("after 2 runs Work = %v, want 350000", got)
	}
	if s.Stats.Runs != 2 {
		t.Fatalf("Runs = %d", s.Stats.Runs)
	}
	// Degenerate inputs are ignored.
	s.RecordRun(0, 1000)
	s.RecordRun(time.Second, 0)
	if s.Stats.Runs != 2 {
		t.Fatalf("degenerate run recorded: %d", s.Stats.Runs)
	}
}

func TestStatsSurviveMarshal(t *testing.T) {
	s := testTreeSchema()
	s.RecordRun(500*time.Second, 1000)
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSchema(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Runs != 1 || math.Abs(got.Stats.ObservedWork-500000) > 1 {
		t.Fatalf("stats lost: %+v", got.Stats)
	}
}

func TestFits(t *testing.T) {
	s := testTreeSchema()
	cases := []struct {
		mem, disk int64
		speed     float64
		sw        []string
		want      bool
		reason    string
	}{
		{128 << 20, 0, 500, []string{"HPCM"}, true, ""},
		{32 << 20, 0, 500, []string{"hpcm"}, false, "memory"},
		{128 << 20, 0, 50, []string{"hpcm"}, false, "cpu"},
		{128 << 20, 0, 500, nil, false, "software"},
	}
	for i, c := range cases {
		ok, reason := s.Fits(c.mem, c.disk, c.speed, c.sw)
		if ok != c.want {
			t.Errorf("case %d: Fits = %v (%s), want %v", i, ok, reason, c.want)
		}
		if !ok && !strings.Contains(reason, c.reason) {
			t.Errorf("case %d: reason %q missing %q", i, reason, c.reason)
		}
	}
	disk := &Schema{Name: "d", Requirements: Requirements{MinDisk: 100}}
	if ok, reason := disk.Fits(0, 50, 0, nil); ok || !strings.Contains(reason, "disk") {
		t.Errorf("disk requirement not enforced: %v %q", ok, reason)
	}
}

func TestIs(t *testing.T) {
	s := testTreeSchema()
	if !s.Is(ComputeIntensive) || s.Is(DataIntensive) {
		t.Fatalf("Is() wrong for %+v", s.Characteristics)
	}
}

func TestEqualDiscriminates(t *testing.T) {
	a := testTreeSchema()
	for _, mutate := range []func(*Schema){
		func(s *Schema) { s.Name = "other" },
		func(s *Schema) { s.CommBytes++ },
		func(s *Schema) { s.LocalDataBytes++ },
		func(s *Schema) { s.Estimate.Seconds++ },
		func(s *Schema) { s.Estimate.CPUSpeed++ },
		func(s *Schema) { s.Characteristics = nil },
		func(s *Schema) { s.Characteristics = []Characteristic{DataIntensive} },
	} {
		b := testTreeSchema()
		mutate(b)
		if a.Equal(b) {
			t.Errorf("Equal missed mutation: %+v", b)
		}
	}
	if !a.Equal(testTreeSchema()) {
		t.Error("Equal(self copy) = false")
	}
}

// Property: Work() is always non-negative and EstimateOn never returns a
// negative duration, no matter what runs are recorded.
func TestWorkNonNegativeProperty(t *testing.T) {
	f := func(secs []int16, speed uint16) bool {
		s := testTreeSchema()
		for _, sec := range secs {
			s.RecordRun(time.Duration(sec)*time.Second, float64(speed))
		}
		return s.Work() >= 0 && s.EstimateOn(float64(speed)) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
