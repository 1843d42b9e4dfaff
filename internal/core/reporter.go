package core

import (
	"autoresched/internal/monitor"
	"autoresched/internal/proto"
	"autoresched/internal/sim"
)

// chargedReporter forwards monitor traffic to the in-process registry
// while charging each message to the simulated network, so the
// rescheduler's control traffic appears in the NIC counters exactly as the
// paper's XML-over-TCP messages did.
type chargedReporter struct {
	inner monitor.Reporter
	net   *sim.Network
	to    string
}

// statusBytes is the wire size charged per control message: a typical XML
// status refresh.
const statusBytes = 600

func (c *chargedReporter) charge(from string) {
	// Best effort: a down registry host fails registration paths already.
	_ = c.net.Transfer(from, c.to, statusBytes)
}

func (c *chargedReporter) RegisterHost(host string, static proto.StaticInfo) error {
	c.charge(host)
	return c.inner.RegisterHost(host, static)
}

func (c *chargedReporter) ReportStatus(host string, status proto.Status) error {
	c.charge(host)
	return c.inner.ReportStatus(host, status)
}

func (c *chargedReporter) UnregisterHost(host string) error {
	c.charge(host)
	return c.inner.UnregisterHost(host)
}
