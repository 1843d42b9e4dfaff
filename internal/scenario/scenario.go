// Package scenario is the scenario-diversity engine: a seeded
// random-but-deterministic generator drawing from a Space that describes
// the cross-product the runtime now supports — workloads (jacobi/tree;
// flat, paged or elastic memory) × fault plans × job policies
// (fifo/priority-preemptive/backfill) × migration modes (live or
// stop-and-copy) × link speeds — plus a Runner that executes each generated
// scenario through the planner, migration-model and fault machinery in
// virtual time, and a run-dir report writer with golden-file regression over a
// pinned seed set. Where the chaos suite hand-authors twelve situations,
// `cmd/repro -exp fleet` generates hundreds per CI run, and any behavior
// drift in the scheduler, planner, migration model or fault handling shows
// up as a readable golden diff instead of a silent change.
package scenario

import "fmt"

// Workload kinds, memory modes, migration modes and fault kinds a Scenario
// can carry, one const family per axis (the eventcase check holds
// switches over a family to exhaustive-or-default). Policies come from
// jobs.Policies().
const (
	WorkloadJacobi = "jacobi"
	WorkloadTree   = "tree"
)

const (
	MemFlat    = "flat"
	MemPaged   = "paged"
	MemElastic = "elastic"
)

const (
	MigrateLive     = "live"
	MigrateStopCopy = "stop-and-copy"
)

const (
	FaultCrashHost     = "crash-host"
	FaultLinkDegrade   = "link-degrade"
	FaultMigrate       = "migrate"
	FaultResize        = "resize"
	FaultRegistryCrash = "registry-crash"
)

// Persistence modes: whether the scenario's registry journals its protocol
// state to a durable store. Registry crash-loop faults are only coherent
// under PersistFile — a storeless registry would re-register the fleet, not
// recover it.
const (
	PersistNone = "none"
	PersistFile = "file"
)

// JobSpec is one generated job of a scenario: the model-level analogue of
// jobs.Spec, fully serialisable, with an arrival offset and a work budget
// in rank-seconds.
type JobSpec struct {
	Name     string `json:"name"`
	Priority int    `json:"priority"`
	Gang     int    `json:"gang"`
	Elastic  bool   `json:"elastic,omitempty"`
	MinWorld int    `json:"min_world"`
	// Big pins the job to the "big" host class (every fourth host), the
	// heterogeneous case that forces the planner's migrate eviction mode.
	Big bool `json:"big,omitempty"`
	// ArrivalSec is the virtual second the job joins the queue.
	ArrivalSec int `json:"arrival_sec"`
	// WorkSec is the per-rank compute budget in rank-seconds: a gang of G
	// needs Gang*WorkSec rank-seconds in total.
	WorkSec int `json:"work_sec"`
}

// FaultSpec is one scheduled fault of a scenario. Only the fields its Kind
// documents are used.
type FaultSpec struct {
	AtSec int    `json:"at_sec"`
	Kind  string `json:"kind"`
	// Host names the crash victim (FaultCrashHost).
	Host string `json:"host,omitempty"`
	// DownSec is the crash outage length; the host revives afterwards.
	DownSec int `json:"down_sec,omitempty"`
	// Factor scales the migration-link bandwidth for ForSec seconds
	// (FaultLinkDegrade; 0 < Factor <= 1).
	Factor float64 `json:"factor,omitempty"`
	ForSec int     `json:"for_sec,omitempty"`
	// Job names the target of a forced migration or resize.
	Job string `json:"job,omitempty"`
	// World is the resize target world size (FaultResize).
	World int `json:"world,omitempty"`
	// Loops is the number of back-to-back registry restarts
	// (FaultRegistryCrash); each one is a crash-consistent bootstrap.
	Loops int `json:"loops,omitempty"`
}

// Scenario is one generated situation: a fleet, a job queue, a fault plan
// and the mode axes the runtime supports. It is a pure value — JSON
// round-trippable, byte-stable under encoding/json — and everything the
// Runner does is a deterministic function of it.
type Scenario struct {
	Name string `json:"name"`
	// Seed and Index record provenance: the generator seed and the draw
	// number within it.
	Seed  int64 `json:"seed"`
	Index int   `json:"index"`

	Workload  string `json:"workload"`
	MemMode   string `json:"mem_mode"`
	Migration string `json:"migration"`
	Policy    string `json:"policy"`
	// Persistence selects the registry's durability mode (Persist*
	// constants); empty means PersistNone for pre-axis scenarios.
	Persistence string `json:"persistence,omitempty"`

	// LinkMbps is the migration-link speed in megabits per second.
	LinkMbps int `json:"link_mbps"`
	// Hosts is the fleet size; every fourth host (h01, h05, ...) is "big".
	Hosts int `json:"hosts"`
	// StateMB is the per-rank migratable state in MiB (4 KiB pages).
	StateMB int `json:"state_mb"`
	// DirtyPagesPerSec is the page-dirtying rate the live-migration model
	// sees; zero outside MigrateLive.
	DirtyPagesPerSec int `json:"dirty_pages_per_sec,omitempty"`
	// DurationSec is the arrival/fault horizon; the runner lets the queue
	// drain past it up to a deterministic cap.
	DurationSec int `json:"duration_sec"`
	// SchedEverySec paces the admission planner.
	SchedEverySec int `json:"sched_every_sec"`

	Jobs   []JobSpec   `json:"jobs"`
	Faults []FaultSpec `json:"faults,omitempty"`
}

// HostName returns the fleet-order name of host i (zero-based): h01..hNN.
func HostName(i int) string { return fmt.Sprintf("h%02d", i+1) }

// BigHost reports whether host i (zero-based) belongs to the big class.
func BigHost(i int) bool { return i%4 == 0 }

// TotalPages is the migrated region size in 4 KiB pages.
func (s Scenario) TotalPages() int { return s.StateMB * 256 }

// Bandwidth is the nominal migration-link speed in bytes per second.
func (s Scenario) Bandwidth() float64 { return float64(s.LinkMbps) * 1e6 / 8 }
