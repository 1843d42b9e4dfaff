// Fixture for the eventcase exhaustiveness check, covering all three
// switch shapes: named enum types, plain-string const families, and
// event payload type switches.
package eventcase

import (
	"autoresched/internal/faults"
	"autoresched/internal/hpcm"
	"autoresched/internal/malleable"
	"autoresched/internal/registry"
)

// State is a fixture-local named enum (the declaring package is under
// analysis, so it is held to the same standard as configured packages).
type State int

const (
	StateIdle State = iota
	StateRun
	StateDone
)

func describe(s State) string {
	switch s { // want `\[eventcase\] switch over eventcase\.State misses StateDone; add the cases or an explicit default`
	case StateIdle:
		return "idle"
	case StateRun:
		return "run"
	}
	return "?"
}

// describeDefault is compliant: the default is the explicit statement
// that other states are ignored here.
func describeDefault(s State) string {
	switch s {
	case StateRun:
		return "run"
	default:
		return "other"
	}
}

// kindTier dispatches over the imported faults.Kind enum and forgets two
// members.
func kindTier(k faults.Kind) int {
	switch k { // want `\[eventcase\] switch over faults\.Kind misses KindHeal, KindPartition; add the cases or an explicit default`
	case faults.KindCrashHost, faults.KindRestartRegistry:
		return 2
	case faults.KindLinkFactor, faults.KindDropStatus, faults.KindDupStatus, faults.KindDelayStatus:
		return 1
	case faults.KindMigrate, faults.KindCrashOnPhase, faults.KindResize,
		faults.KindCrashOnResizePhase, faults.KindSubmitJob, faults.KindKillOnCkpt,
		faults.KindCrashLoopRegistry, faults.KindTornWrite:
		return 0
	}
	return -1
}

// The phase vocabulary: one plain-string const family.
const (
	phasePrepare = "prepare"
	phaseCommit  = "commit"
	phaseAbort   = "abort"
)

// phaseStep references two family members, so it is an enum dispatch and
// must cover the third (or default).
func phaseStep(phase string) int {
	switch phase { // want `\[eventcase\] switch dispatches over the eventcase const family of phaseAbort but misses phaseAbort; add the cases or an explicit default`
	case phasePrepare:
		return 1
	case phaseCommit:
		return 2
	}
	return 0
}

// phaseStepLiteral is compliant: coverage is by value, so the literal
// "abort" covers phaseAbort.
func phaseStepLiteral(phase string) int {
	switch phase {
	case phasePrepare:
		return 1
	case phaseCommit:
		return 2
	case "abort":
		return 3
	}
	return 0
}

// isPrepare is compliant: referencing a single member is an ordinary
// comparison, not an enum dispatch.
func isPrepare(phase string) bool {
	switch phase {
	case phasePrepare:
		return true
	case "something-else":
		return false
	}
	return false
}

// payloadProc fans out over an event payload and forgets three of the
// four configured payload types.
func payloadProc(p any) string {
	switch e := p.(type) { // want `\[eventcase\] type switch over an event payload misses internal/hpcm\.CheckpointEvent, internal/malleable\.Event, internal/registry\.RestartEvent; add the cases or an explicit default`
	case hpcm.MigrationEvent:
		return e.Proc
	}
	return ""
}

// payloadJob is compliant: every configured payload type is covered
// (pointers count for their element type).
func payloadJob(p any) string {
	switch e := p.(type) {
	case hpcm.MigrationEvent:
		return e.Proc
	case *hpcm.CheckpointEvent:
		return e.Proc
	case malleable.Event:
		return e.Job
	case registry.RestartEvent:
		if e.Recovered {
			return "recovered"
		}
		return "cold"
	}
	return ""
}

// payloadIsResize is compliant: the default closes the fan-out.
func payloadIsResize(p any) bool {
	switch p.(type) {
	case malleable.Event:
		return true
	default:
		return false
	}
}
