package core

import (
	"testing"

	"autoresched/internal/monitor"
	"autoresched/internal/proto"
	"autoresched/internal/rules"
	"autoresched/internal/sysinfo"
)

// TestStatusBytesTracksTheWire ties the modelled heartbeat to the measured
// one: statusBytes, which chargedReporter charges the simulated NIC per
// refresh, must cover a representative status and its ack as proto really
// frames them, and by no more than a quarter — so a codec or schema change
// that moves the wire shows up here, not as silent drift in Fig. 5/6.
func TestStatusBytesTracksTheWire(t *testing.T) {
	status := monitor.StatusFromSample(monitor.Sample{
		Snap: sysinfo.Snapshot{
			Host: "ws12", Load1: 2.4130859375, Load5: 1.87890625, CPUUtilPct: 93.72384937238493,
			NumProcs: 143, Sockets: 57, NetRecvBps: 7.234816e6, NetSentBps: 412345.5,
			MemAvailPct: 41.66748046875, MemAvail: 89478485,
		},
		Grade: 2, State: rules.Overloaded,
	})
	msg := &proto.Message{Type: proto.TypeStatus, From: "ws12", Seq: 86400, Status: &status}
	const frameHeader = 4
	wire := 2 * frameHeader
	for _, m := range []*proto.Message{msg, proto.Ack("registry", msg, nil)} {
		data, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		wire += len(data)
	}
	if statusBytes < wire || statusBytes*4 > wire*5 {
		t.Fatalf("statusBytes = %d, a status and its ack are %d B on the wire; want wire <= statusBytes <= 1.25 x wire", statusBytes, wire)
	}
	t.Logf("status + ack = %d B on the wire, charged %d", wire, statusBytes)
}
