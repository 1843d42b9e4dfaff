package sysinfo

import (
	"math"
	"testing"
	"time"
)

func sampleSnapshot() Snapshot {
	return Snapshot{
		Host:         "ws1",
		Load1:        2.5,
		Load5:        1.5,
		Load15:       0.5,
		CPUIdlePct:   42,
		CPUUtilPct:   58,
		RunQueue:     3,
		NumProcs:     151,
		MemAvailPct:  33,
		SwapAvailPct: 80,
		Disks:        []DiskUsage{{Path: "/", UsedPct: 61}, {Path: "/export", UsedPct: 12}},
		NetSentBps:   4e6,
		NetRecvBps:   7e6,
		Sockets:      901,
	}
}

func TestStandardProbes(t *testing.T) {
	p := StandardProbes()
	snap := sampleSnapshot()
	cases := []struct {
		script, param string
		want          float64
	}{
		{"processorStatus.sh", "", 42},
		{"ntStatIpv4.sh", "ESTABLISHED", 901},
		{"ntStatIpv4.sh", "", 901},
		{"loadAvg.sh", "1", 2.5},
		{"loadAvg.sh", "", 2.5},
		{"loadAvg.sh", "5", 1.5},
		{"loadAvg.sh", "15", 0.5},
		{"numProcs.sh", "", 151},
		{"runQueue.sh", "", 3},
		{"memAvailPct.sh", "", 33},
		{"swapAvailPct.sh", "", 80},
		{"diskUsedPct.sh", "/", 61},
		{"diskUsedPct.sh", "", 61},
		{"diskUsedPct.sh", "/export", 12},
		{"netFlow.sh", "in", 7},
		{"netFlow.sh", "out", 4},
		{"netFlow.sh", "total", 11},
		{"netFlow.sh", "max", 7},
		{"netFlow.sh", "", 7},
	}
	for _, c := range cases {
		got, err := p.Eval(c.script, snap, c.param)
		if err != nil {
			t.Errorf("%s(%q): %v", c.script, c.param, err)
			continue
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s(%q) = %v, want %v", c.script, c.param, got, c.want)
		}
	}
}

func TestProbeErrors(t *testing.T) {
	p := StandardProbes()
	snap := sampleSnapshot()
	for _, c := range []struct{ script, param string }{
		{"missing.sh", ""},
		{"ntStatIpv4.sh", "TIME_WAIT"},
		{"loadAvg.sh", "2"},
		{"diskUsedPct.sh", "/nope"},
		{"netFlow.sh", "sideways"},
	} {
		if _, err := p.Eval(c.script, snap, c.param); err == nil {
			t.Errorf("%s(%q): want error", c.script, c.param)
		}
	}
}

func TestProbeRegisterAndNames(t *testing.T) {
	p := NewProbes()
	p.Register("custom.sh", func(s Snapshot, _ string) (float64, error) {
		return float64(s.NumProcs) * 2, nil
	})
	got, err := p.Eval("custom.sh", Snapshot{NumProcs: 21}, "")
	if err != nil || got != 42 {
		t.Fatalf("custom probe = %v, %v", got, err)
	}
}

func TestProbeOverride(t *testing.T) {
	p := StandardProbes()
	p.Register("processorStatus.sh", func(Snapshot, string) (float64, error) { return 7, nil })
	got, err := p.Eval("processorStatus.sh", Snapshot{CPUIdlePct: 99}, "")
	if err != nil || got != 7 {
		t.Fatalf("override = %v, %v", got, err)
	}
}

func TestSnapshotZeroValueSafeForProbes(t *testing.T) {
	p := StandardProbes()
	var snap Snapshot
	snap.Time = time.Now()
	for _, script := range []string{"processorStatus.sh", "loadAvg.sh", "numProcs.sh", "netFlow.sh"} {
		if _, err := p.Eval(script, snap, ""); err != nil {
			t.Errorf("%s on zero snapshot: %v", script, err)
		}
	}
}
