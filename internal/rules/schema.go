package rules

// The application schema of Section 3.3 is the registry's second
// user-written document, beside the rules and policies: an XML document
// describing an application's characteristics, estimated communication data
// size, resource requirements, and estimated execution time on a
// workstation of known computing power. It is updated from the statistics
// of actual executions (the self-adjustment feedback loop Section 6 plans),
// and it feeds both process selection (latest completing time) and
// migration decision-making (data access locality, communication
// intensity).

import (
	"encoding/xml"
	"errors"
	"fmt"
	"strings"
	"time"
)

// Characteristic classifies what dominates an application's execution.
type Characteristic string

// The characteristics named by the paper.
const (
	ComputeIntensive       Characteristic = "compute"
	DataIntensive          Characteristic = "data"
	CommunicationIntensive Characteristic = "communication"
)

// Requirements lists the resources a destination host must own for the
// "first fit" scheduler to consider it.
type Requirements struct {
	MinMemory   int64    `xml:"minMemory,omitempty"`   // bytes
	MinDisk     int64    `xml:"minDisk,omitempty"`     // bytes
	MinCPUSpeed float64  `xml:"minCPUSpeed,omitempty"` // work units/s
	Software    []string `xml:"software>package,omitempty"`
}

// Estimate is the user-provided execution estimate: Seconds of runtime on a
// workstation of CPUSpeed computing power. The product is the application's
// total work in machine-independent units.
type Estimate struct {
	Seconds  float64 `xml:"seconds"`
	CPUSpeed float64 `xml:"cpuSpeed"`
}

// Stats accumulates actual execution statistics; the schema's effective work
// estimate blends toward observed reality as runs complete.
type Stats struct {
	Runs         int     `xml:"runs"`
	ObservedWork float64 `xml:"observedWork"` // exponential moving average
}

// Schema is the application schema document.
type Schema struct {
	XMLName xml.Name `xml:"applicationSchema"`
	// Name identifies the application (the paper's example is test_tree).
	Name string `xml:"name"`
	// Characteristics classify the application (compute, data or
	// communication intensive).
	Characteristics []Characteristic `xml:"characteristics>characteristic"`
	// CommBytes is the estimated communication data size moved in a
	// migration (execution + memory state).
	CommBytes int64 `xml:"estimatedCommBytes"`
	// LocalDataBytes estimates local data access; a process with heavy data
	// locality is not migrated for a slight gain (Section 5.3).
	LocalDataBytes int64        `xml:"localDataBytes,omitempty"`
	Requirements   Requirements `xml:"requirements"`
	Estimate       Estimate     `xml:"estimate"`
	Stats          Stats        `xml:"stats"`
}

// statsBlend is the EMA weight given to the newest observed run.
const statsBlend = 0.5

// Validate checks the schema for the fields decision-making relies on.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return errors.New("schema: missing application name")
	}
	if s.Estimate.Seconds < 0 || s.Estimate.CPUSpeed < 0 {
		return fmt.Errorf("schema %q: negative estimate", s.Name)
	}
	if s.CommBytes < 0 || s.LocalDataBytes < 0 {
		return fmt.Errorf("schema %q: negative data size", s.Name)
	}
	for _, c := range s.Characteristics {
		switch c {
		case ComputeIntensive, DataIntensive, CommunicationIntensive:
		default:
			return fmt.Errorf("schema %q: unknown characteristic %q", s.Name, c)
		}
	}
	return nil
}

// Is reports whether the application has the given characteristic.
func (s *Schema) Is(c Characteristic) bool {
	for _, have := range s.Characteristics {
		if have == c {
			return true
		}
	}
	return false
}

// Work returns the application's estimated total work in machine-independent
// units: the observed average when runs have completed, otherwise the
// user-provided estimate.
func (s *Schema) Work() float64 {
	if s.Stats.Runs > 0 && s.Stats.ObservedWork > 0 {
		return s.Stats.ObservedWork
	}
	return s.Estimate.Seconds * s.Estimate.CPUSpeed
}

// EstimateOn returns the estimated execution time on a workstation with the
// given computing power. Zero work or speed yields zero.
func (s *Schema) EstimateOn(cpuSpeed float64) time.Duration {
	work := s.Work()
	if work <= 0 || cpuSpeed <= 0 {
		return 0
	}
	return time.Duration(work / cpuSpeed * float64(time.Second))
}

// EstimatedCompletion returns the estimated completion instant of a run that
// started at start on a workstation with the given computing power. The
// registry/scheduler migrates the process with the latest completing time
// (Section 4).
func (s *Schema) EstimatedCompletion(start time.Time, cpuSpeed float64) time.Time {
	return start.Add(s.EstimateOn(cpuSpeed))
}

// RecordRun folds one actual execution into the statistics: elapsed runtime
// on a workstation of cpuSpeed computing power, blended into the observed
// work EMA ("updated according to the statistics of actual executions").
func (s *Schema) RecordRun(elapsed time.Duration, cpuSpeed float64) {
	if elapsed <= 0 || cpuSpeed <= 0 {
		return
	}
	work := elapsed.Seconds() * cpuSpeed
	if s.Stats.Runs == 0 || s.Stats.ObservedWork <= 0 {
		s.Stats.ObservedWork = work
	} else {
		s.Stats.ObservedWork = statsBlend*work + (1-statsBlend)*s.Stats.ObservedWork
	}
	s.Stats.Runs++
}

// Fits reports whether a host with the given resources satisfies the
// schema's requirements, and if not, why.
func (s *Schema) Fits(memBytes, diskBytes int64, cpuSpeed float64, software []string) (bool, string) {
	r := s.Requirements
	if memBytes < r.MinMemory {
		return false, fmt.Sprintf("memory %d < required %d", memBytes, r.MinMemory)
	}
	if diskBytes < r.MinDisk {
		return false, fmt.Sprintf("disk %d < required %d", diskBytes, r.MinDisk)
	}
	if cpuSpeed < r.MinCPUSpeed {
		return false, fmt.Sprintf("cpu %g < required %g", cpuSpeed, r.MinCPUSpeed)
	}
	have := make(map[string]bool, len(software))
	for _, sw := range software {
		have[strings.ToLower(sw)] = true
	}
	for _, need := range r.Software {
		if !have[strings.ToLower(need)] {
			return false, fmt.Sprintf("missing software %q", need)
		}
	}
	return true, ""
}

// Marshal renders the schema as indented XML, the wire format the commander
// ships to the destination host at process initialisation.
func (s *Schema) Marshal() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	out, err := xml.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append([]byte(xml.Header), out...), nil
}

// ParseSchema parses an application schema document.
func ParseSchema(data []byte) (*Schema, error) {
	var s Schema
	if err := xml.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("schema: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
