// Package commander implements the per-host commander entity (Section 3):
// it receives migrate orders from the registry/scheduler and starts the
// migration by signalling the local migrating process. The paper writes the
// destination address and port to a temporary file and pokes the process
// with the user-defined signal; here the signal's payload is the one
// carrier of the destination — there is no file.
package commander

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"autoresched/internal/events"
	"autoresched/internal/hpcm"
	"autoresched/internal/metrics"
	"autoresched/internal/proto"
	"autoresched/internal/vclock"
)

// Target is a managed migration-enabled process; *hpcm.Process satisfies
// it.
type Target interface {
	PID() int
	Signal(cmd hpcm.Command)
}

// config is what the Options write into: one field per setting, each
// described (with its default) here.
type config struct {
	// clock drives the dedup window; nil selects the real clock.
	clock vclock.Clock
	// dedupWindow suppresses a migrate order identical to one executed
	// within the window — the guard against an at-least-once control plane
	// redelivering the same order. Zero disables. Keep it below the
	// registry's cooldown so legitimate repeat orders still pass.
	dedupWindow time.Duration
	// metrics, when set, receives the commander/orders_deduped counter.
	metrics *metrics.Registry
	// events, when set, receives one SourceCommander/"order" event per
	// executed (non-deduped) migrate order, stamped with the clock's time.
	// The span builder anchors migration latency on this event.
	events events.Sink
}

// CtrOrdersDeduped counts redelivered migrate orders the dedup window
// acknowledged without re-executing.
const CtrOrdersDeduped = "commander/orders_deduped"

// Commander is one host's commander entity.
type Commander struct {
	host string
	cfg  config

	mu      sync.Mutex
	procs   map[int]Target
	lastCmd map[int]lastOrder // pid -> most recently executed order
}

// lastOrder remembers one executed order for dedup matching.
type lastOrder struct {
	order proto.MigrateOrder
	at    time.Time
}

// Host returns the host this commander serves.
func (c *Commander) Host() string { return c.host }

// Manage starts tracking a process under its current pid.
func (c *Commander) Manage(p Target) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.procs[p.PID()] = p
}

// ManageAs tracks a process under an explicit pid (used when re-homing a
// migrated process whose pid changed with its incarnation).
func (c *Commander) ManageAs(pid int, p Target) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.procs[pid] = p
}

// Forget stops tracking a pid.
func (c *Commander) Forget(pid int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.procs, pid)
}

// Migrate executes a migrate order: deliver the user-defined signal, its
// payload the destination, to the migrating process. An order identical to
// one executed within the dedup window is acknowledged without being
// re-executed (a redelivered duplicate, not a new decision).
func (c *Commander) Migrate(order proto.MigrateOrder) error {
	if order.DestHost == "" {
		return errors.New("commander: order without destination")
	}
	c.mu.Lock()
	p, ok := c.procs[order.PID]
	if ok && c.cfg.dedupWindow > 0 {
		if last, seen := c.lastCmd[order.PID]; seen &&
			last.order.DestHost == order.DestHost &&
			last.order.DestAddr == order.DestAddr &&
			c.cfg.clock.Now().Sub(last.at) <= c.cfg.dedupWindow {
			c.mu.Unlock()
			c.cfg.metrics.Counter(CtrOrdersDeduped).Inc()
			return nil
		}
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("commander: no managed process with pid %d on %s", order.PID, c.host)
	}
	if c.cfg.events != nil {
		c.cfg.events.Publish(events.Event{
			Time:   c.cfg.clock.Now(),
			Source: events.SourceCommander,
			Kind:   "order",
			Host:   c.host,
			Dest:   order.DestHost,
			PID:    order.PID,
		})
	}
	p.Signal(hpcm.Command{DestHost: order.DestHost, DestAddr: order.DestAddr, Policy: order.Policy})
	c.mu.Lock()
	c.lastCmd[order.PID] = lastOrder{order: order, at: c.cfg.clock.Now()}
	c.mu.Unlock()
	return nil
}
