package scenario

import (
	"fmt"
	"slices"

	"autoresched/internal/jobs"
)

// Range is an inclusive integer interval a generated dimension is drawn
// from.
type Range struct {
	Min int `json:"min"`
	Max int `json:"max"`
}

func (r Range) contains(v int) bool { return v >= r.Min && v <= r.Max }

// Space describes the supported cross-product a Generator draws from. The
// zero value is not useful; start from DefaultSpace. Every axis is a closed
// list or a bounded range, so the space is finite and Check can state the
// coherence constraints exactly.
type Space struct {
	Workloads  []string `json:"workloads"`
	MemModes   []string `json:"mem_modes"`
	Migrations []string `json:"migrations"`
	Policies   []string `json:"policies"`
	// Persistence lists the registry durability modes (Persist* constants).
	Persistence []string `json:"persistence"`
	LinkMbps    []int    `json:"link_mbps"`
	// DirtyRates are the candidate page-dirtying rates for live scenarios,
	// in pages/s.
	DirtyRates []int `json:"dirty_rates"`

	Hosts    Range `json:"hosts"`
	JobCount Range `json:"job_count"`
	// MaxGang bounds a job's gang size (further clamped to the fleet).
	MaxGang  int   `json:"max_gang"`
	StateMB  Range `json:"state_mb"`
	Duration Range `json:"duration_sec"`
	// MaxFaults bounds the fault-plan length (zero: fault-free scenarios).
	MaxFaults int `json:"max_faults"`
	// MaxCrashLoops bounds a registry-crash fault's back-to-back restart
	// count (zero: no registry-crash faults even under PersistFile).
	MaxCrashLoops int `json:"max_crash_loops"`
}

// DefaultSpace is the cross-product the fleet experiment sweeps: every
// workload, memory and migration mode, every stock policy, three link
// generations, small-to-medium fleets and queues, and fault plans long
// enough to overlap.
func DefaultSpace() Space {
	var policies []string
	for _, p := range jobs.Policies() {
		policies = append(policies, p.Name())
	}
	return Space{
		Workloads:     []string{WorkloadJacobi, WorkloadTree},
		MemModes:      []string{MemFlat, MemPaged, MemElastic},
		Migrations:    []string{MigrateLive, MigrateStopCopy},
		Policies:      policies,
		Persistence:   []string{PersistNone, PersistFile},
		LinkMbps:      []int{10, 100, 1000},
		DirtyRates:    []int{0, 50, 200, 800, 3200},
		Hosts:         Range{Min: 4, Max: 12},
		JobCount:      Range{Min: 3, Max: 10},
		MaxGang:       8,
		StateMB:       Range{Min: 1, Max: 64},
		Duration:      Range{Min: 240, Max: 600},
		MaxFaults:     6,
		MaxCrashLoops: 3,
	}
}

// Check validates a scenario against the space: axis membership plus the
// coherence constraints that reject incoherent combos. The generator
// constructs scenarios that pass by design; Check is the proof obligation
// (and the property test's oracle).
func (sp Space) Check(s Scenario) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("scenario %s: %s", s.Name, fmt.Sprintf(format, args...))
	}
	if !slices.Contains(sp.Workloads, s.Workload) {
		return fail("workload %q outside space", s.Workload)
	}
	if !slices.Contains(sp.MemModes, s.MemMode) {
		return fail("mem mode %q outside space", s.MemMode)
	}
	if !slices.Contains(sp.Migrations, s.Migration) {
		return fail("migration %q outside space", s.Migration)
	}
	if !slices.Contains(sp.Policies, s.Policy) {
		return fail("policy %q outside space", s.Policy)
	}
	if _, err := jobs.PolicyByName(s.Policy); err != nil {
		return fail("policy %q unknown to the planner", s.Policy)
	}
	// An empty persistence mode is a pre-axis scenario: storeless.
	persistence := s.Persistence
	if persistence == "" {
		persistence = PersistNone
	}
	if !slices.Contains(sp.Persistence, persistence) {
		return fail("persistence %q outside space", s.Persistence)
	}
	if !slices.Contains(sp.LinkMbps, s.LinkMbps) {
		return fail("link speed %d Mbps outside space", s.LinkMbps)
	}
	if !sp.Hosts.contains(s.Hosts) {
		return fail("fleet of %d outside space [%d,%d]", s.Hosts, sp.Hosts.Min, sp.Hosts.Max)
	}
	if !sp.JobCount.contains(len(s.Jobs)) {
		return fail("queue of %d outside space [%d,%d]", len(s.Jobs), sp.JobCount.Min, sp.JobCount.Max)
	}
	if !sp.StateMB.contains(s.StateMB) {
		return fail("state of %d MB outside space", s.StateMB)
	}
	if !sp.Duration.contains(s.DurationSec) {
		return fail("duration %d s outside space", s.DurationSec)
	}
	if s.SchedEverySec <= 0 {
		return fail("non-positive scheduling interval")
	}
	if len(s.Faults) > sp.MaxFaults {
		return fail("%d faults exceed the space's %d", len(s.Faults), sp.MaxFaults)
	}

	// Coherence: live migration needs a paged region to precopy — a flat
	// workload has no dirty-page tracking, so live × flat is incoherent.
	if s.Migration == MigrateLive && s.MemMode == MemFlat {
		return fail("live migration over flat memory (no paged region to precopy)")
	}
	// Dirty rates only mean something to the precopy model.
	if s.Migration != MigrateLive && s.DirtyPagesPerSec != 0 {
		return fail("dirty rate %d on a stop-and-copy scenario", s.DirtyPagesPerSec)
	}
	if s.Migration == MigrateLive && !slices.Contains(sp.DirtyRates, s.DirtyPagesPerSec) {
		return fail("dirty rate %d outside space", s.DirtyPagesPerSec)
	}

	jobsByName := make(map[string]JobSpec, len(s.Jobs))
	for _, j := range s.Jobs {
		if _, dup := jobsByName[j.Name]; dup {
			return fail("duplicate job name %q", j.Name)
		}
		jobsByName[j.Name] = j
		if j.Gang < 1 || j.Gang > sp.MaxGang {
			return fail("job %s gang %d outside [1,%d]", j.Name, j.Gang, sp.MaxGang)
		}
		// Gang placement is all-or-nothing: a gang wider than the fleet can
		// never admit.
		if j.Gang > s.Hosts {
			return fail("job %s gang %d exceeds the %d-host fleet", j.Name, j.Gang, s.Hosts)
		}
		if j.Big && j.Gang > (s.Hosts+3)/4 {
			return fail("job %s gang %d exceeds the big host class", j.Name, j.Gang)
		}
		// Elastic jobs need a resizable world — and a runtime that can
		// repartition one, which only the elastic memory mode provides.
		if j.Elastic && s.MemMode != MemElastic {
			return fail("job %s elastic under mem mode %q", j.Name, s.MemMode)
		}
		if j.MinWorld < 1 || j.MinWorld > j.Gang {
			return fail("job %s MinWorld %d outside [1,gang=%d]", j.Name, j.MinWorld, j.Gang)
		}
		if !j.Elastic && j.MinWorld != j.Gang {
			return fail("job %s rigid but MinWorld %d != gang %d", j.Name, j.MinWorld, j.Gang)
		}
		if j.ArrivalSec < 0 || j.ArrivalSec > s.DurationSec {
			return fail("job %s arrives at %d s, outside the %d s horizon", j.Name, j.ArrivalSec, s.DurationSec)
		}
		if j.WorkSec <= 0 {
			return fail("job %s has no work", j.Name)
		}
	}

	for i, f := range s.Faults {
		if f.AtSec < 0 || f.AtSec > s.DurationSec {
			return fail("fault %d at %d s, outside the %d s horizon", i, f.AtSec, s.DurationSec)
		}
		switch f.Kind {
		case FaultCrashHost:
			if !hostInFleet(f.Host, s.Hosts) {
				return fail("fault %d crashes %q, not in the fleet", i, f.Host)
			}
			if f.DownSec <= 0 {
				return fail("fault %d crash without an outage length", i)
			}
		case FaultLinkDegrade:
			if f.Factor <= 0 || f.Factor > 1 {
				return fail("fault %d degrade factor %g outside (0,1]", i, f.Factor)
			}
			if f.ForSec <= 0 {
				return fail("fault %d degrade without a window", i)
			}
		case FaultMigrate:
			if _, ok := jobsByName[f.Job]; !ok {
				return fail("fault %d migrates unknown job %q", i, f.Job)
			}
		case FaultResize:
			j, ok := jobsByName[f.Job]
			if !ok {
				return fail("fault %d resizes unknown job %q", i, f.Job)
			}
			if !j.Elastic {
				return fail("fault %d resizes rigid job %s", i, f.Job)
			}
			if f.World < j.MinWorld || f.World > j.Gang {
				return fail("fault %d resize world %d outside [%d,%d]", i, f.World, j.MinWorld, j.Gang)
			}
		case FaultRegistryCrash:
			// A crash-loop is a recovery drill: it only makes sense when the
			// registry has a durable store to recover from.
			if persistence != PersistFile {
				return fail("fault %d crash-loops a storeless registry", i)
			}
			if f.Loops < 1 || f.Loops > sp.MaxCrashLoops {
				return fail("fault %d loops %d outside [1,%d]", i, f.Loops, sp.MaxCrashLoops)
			}
		default:
			return fail("fault %d has unknown kind %q", i, f.Kind)
		}
	}
	return nil
}

// hostInFleet reports whether name is one of the fleet's n hosts.
func hostInFleet(name string, n int) bool {
	for i := 0; i < n; i++ {
		if HostName(i) == name {
			return true
		}
	}
	return false
}
