// Package proto implements the rescheduler's communication subsystem
// (Section 3.3): a custom XML-based protocol carried over TCP/IP sockets.
// The same message vocabulary is used by the monitor, the registry/scheduler
// and the commander; XML was the paper's choice because it is extensible,
// plain-ASCII and transport independent, and this package keeps the codec
// separate from the transport for the same reason.
package proto

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"strings"

	"autoresched/internal/sysinfo"
)

// MsgType enumerates the protocol messages.
type MsgType string

// The message vocabulary.
const (
	// TypeRegister announces a host and its static information (one-time).
	TypeRegister MsgType = "register"
	// TypeStatus is the periodic soft-state refresh carrying the host's
	// state and dynamic information summary.
	TypeStatus MsgType = "status"
	// TypeUnregister withdraws a host.
	TypeUnregister MsgType = "unregister"
	// TypeProcessRegister announces a migration-enabled process with its
	// application schema.
	TypeProcessRegister MsgType = "processRegister"
	// TypeProcessExit withdraws a process.
	TypeProcessExit MsgType = "processExit"
	// TypeCandidateRequest asks the registry/scheduler for a recommended
	// destination host (sent when a host turns overloaded).
	TypeCandidateRequest MsgType = "candidateRequest"
	// TypeCandidateResponse carries the recommendation.
	TypeCandidateResponse MsgType = "candidateResponse"
	// TypeMigrate orders a commander to migrate a process.
	TypeMigrate MsgType = "migrate"
	// TypeAck acknowledges a message, optionally carrying an error.
	TypeAck MsgType = "ack"
)

// Status summarises one monitoring cycle: the rule-decided state plus the
// dynamic quantities the scheduler's policies threshold on.
type Status struct {
	State       string  `xml:"state"` // free/busy/overloaded
	Grade       float64 `xml:"grade"`
	Load1       float64 `xml:"load1"`
	Load5       float64 `xml:"load5"`
	CPUUtilPct  float64 `xml:"cpuUtilPct"`
	NumProcs    int     `xml:"numProcs"`
	Sockets     int     `xml:"sockets"`
	NetInMBps   float64 `xml:"netInMBps"`
	NetOutMBps  float64 `xml:"netOutMBps"`
	MemAvailPct float64 `xml:"memAvailPct"`
	MemAvail    int64   `xml:"memAvail"`
	DiskAvail   int64   `xml:"diskAvail"`
}

// Snapshot reconstructs the system-information view policies evaluate from
// a wire status — the registry/scheduler's picture of a remote host.
func (s Status) Snapshot(host string) sysinfo.Snapshot {
	return sysinfo.Snapshot{
		Host:        host,
		Load1:       s.Load1,
		Load5:       s.Load5,
		CPUUtilPct:  s.CPUUtilPct,
		CPUIdlePct:  100 - s.CPUUtilPct,
		NumProcs:    s.NumProcs,
		Sockets:     s.Sockets,
		NetRecvBps:  s.NetInMBps * 1e6,
		NetSentBps:  s.NetOutMBps * 1e6,
		MemAvailPct: s.MemAvailPct,
		MemAvail:    s.MemAvail,
	}
}

// StaticInfo is the one-time registration payload.
type StaticInfo struct {
	Addr     string  `xml:"addr"` // commander endpoint for migrate orders
	OS       string  `xml:"os"`
	Arch     string  `xml:"arch"`
	CPUSpeed float64 `xml:"cpuSpeed"`
	MemTotal int64   `xml:"memTotal"`
	// Software lists installed packages for requirement matching.
	Software []string `xml:"software>package,omitempty"`
}

// ProcessInfo registers one migration-enabled process.
type ProcessInfo struct {
	PID   int    `xml:"pid"`
	Name  string `xml:"name"`
	Start int64  `xml:"start"` // UnixNano of the start time (pid file stamp)
	// SchemaXML carries the application schema document verbatim.
	SchemaXML string `xml:"schema,omitempty"`
}

// Candidate is a destination recommendation.
type Candidate struct {
	OK     bool   `xml:"ok"`
	Host   string `xml:"host,omitempty"`
	Addr   string `xml:"addr,omitempty"`
	Reason string `xml:"reason,omitempty"`
}

// MigrateOrder tells a commander which process to move where.
type MigrateOrder struct {
	PID      int    `xml:"pid"`
	DestHost string `xml:"destHost"`
	DestAddr string `xml:"destAddr"`
	Policy   string `xml:"policy,omitempty"`
}

// Message is the protocol envelope. Exactly one payload field is set,
// matching Type.
type Message struct {
	XMLName xml.Name `xml:"hpcmMsg"`
	Type    MsgType  `xml:"type,attr"`
	From    string   `xml:"from,attr,omitempty"`
	To      string   `xml:"to,attr,omitempty"`
	Seq     uint64   `xml:"seq,attr,omitempty"`

	Static    *StaticInfo   `xml:"static,omitempty"`
	Status    *Status       `xml:"status,omitempty"`
	Process   *ProcessInfo  `xml:"process,omitempty"`
	Candidate *Candidate    `xml:"candidate,omitempty"`
	Migrate   *MigrateOrder `xml:"migrate,omitempty"`
	Error     string        `xml:"error,omitempty"`
}

// Validate checks that the payload matches the message type. Its errors
// format a copy of the type, so that a status a Send caller built on its
// stack stays there.
func (m *Message) Validate() error {
	switch m.Type {
	case TypeRegister:
		if m.Static == nil {
			return fmt.Errorf("proto: register without static info")
		}
	case TypeStatus:
		if m.Status == nil {
			return fmt.Errorf("proto: status without payload")
		}
	case TypeProcessRegister:
		if m.Process == nil {
			return fmt.Errorf("proto: processRegister without process")
		}
	case TypeProcessExit:
		if m.Process == nil {
			return fmt.Errorf("proto: processExit without process")
		}
	case TypeCandidateResponse:
		if m.Candidate == nil {
			return fmt.Errorf("proto: candidateResponse without candidate")
		}
	case TypeMigrate:
		if m.Migrate == nil {
			return fmt.Errorf("proto: migrate without order")
		}
	case TypeUnregister, TypeCandidateRequest, TypeAck:
		// Envelope-only (ack may carry Error).
	default:
		return fmt.Errorf("proto: unknown message type %q", strings.Clone(string(m.Type)))
	}
	if m.From == "" {
		return fmt.Errorf("proto: %s message without sender", strings.Clone(string(m.Type)))
	}
	return nil
}

// Encode renders the message as XML.
func (m *Message) Encode() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	m.writeXML(&buf)
	return buf.Bytes(), nil
}

// errNonCanonical is Decode's answer to a document the scanner declines.
var errNonCanonical = errors.New("proto: non-canonical message (not in the form Encode writes)")

// Decode parses an XML message and validates it. Every producer of the
// protocol is this package's encoder, so Decode reads only the canonical
// form it writes (the scanner in wire.go) and any other document is an
// error. The message is the caller's: one allocation holds it and its
// status.
func Decode(data []byte) (*Message, error) {
	var in inbound
	if err := in.decode(data, nil); err != nil {
		return nil, err
	}
	return &in.m, nil
}

// inbound is one decoded message and room for the status a heartbeat
// carries, so that one allocation holds both.
type inbound struct {
	m  Message
	st Status
}

// decode scans data into in, interning From and To in names (nil copies
// them), and validates the result.
func (in *inbound) decode(data []byte, names map[string]string) error {
	if !scanMessage(data, &in.m, &in.st, names) {
		return errNonCanonical
	}
	return in.m.Validate()
}

// Ack builds an acknowledgement for a message; err may be nil.
func Ack(from string, req *Message, err error) *Message {
	m := ackOf(from, req, err)
	return &m
}

// ackOf is Ack by value, for a server acking from its own storage.
func ackOf(from string, req *Message, err error) Message {
	m := Message{Type: TypeAck, From: from, To: req.From, Seq: req.Seq}
	if err != nil {
		m.Error = err.Error()
	}
	return m
}
