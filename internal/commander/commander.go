// Package commander implements the per-host commander entity (Section 3):
// it receives migrate orders from the registry/scheduler and starts the
// migration by signalling the local migrating process. Following the
// paper's mechanism, the destination address and port are written to a
// temporary file and the process is poked with the user-defined signal; the
// signal payload carries the same information for the in-process path.
package commander

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

// Config tunes a commander beyond the basic host/dir pair.
type Config struct {
	// Clock drives the dedup window; nil selects the real clock.
	Clock vclock.Clock
	// DedupWindow suppresses a migrate order identical to one executed
	// within the window — the guard against an at-least-once control plane
	// redelivering the same order. Zero disables. Keep it below the
	// registry's cooldown so legitimate repeat orders still pass.
	DedupWindow time.Duration
	// Metrics, when set, receives the commander/orders_deduped counter.
	Metrics *metrics.Registry
	// Events, when set, receives one SourceCommander/"order" event per
	// executed (non-deduped) migrate order, stamped with the clock's time.
	// The span builder anchors migration latency on this event.
	Events events.Sink
}

// CtrOrdersDeduped counts redelivered migrate orders the dedup window
// acknowledged without re-executing.
const CtrOrdersDeduped = "commander/orders_deduped"

// Commander is one host's commander entity.
type Commander struct {
	host string
	dir  string // where migrate-address temp files are written; "" disables
	cfg  Config

	mu      sync.Mutex
	procs   map[int]Target
	orders  int
	deduped int
	lastCmd map[int]lastOrder // pid -> most recently executed order
}

// lastOrder remembers one executed order for dedup matching.
type lastOrder struct {
	order proto.MigrateOrder
	at    time.Time
}

// newFromConfig creates a commander from an assembled Config, applying
// defaults. NewCommander is the public constructor; the former exported
// Config-style New/NewConfigured are gone. dir, when non-empty, receives
// the temporary address files the paper's mechanism uses; it must exist.
func newFromConfig(host, dir string, cfg Config) *Commander {
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real()
	}
	return &Commander{
		host:    host,
		dir:     dir,
		cfg:     cfg,
		procs:   make(map[int]Target),
		lastCmd: make(map[int]lastOrder),
	}
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

// Managed reports how many processes are tracked.
func (c *Commander) Managed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.procs)
}

// Orders reports how many migrate orders were executed.
func (c *Commander) Orders() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.orders
}

// Migrate executes a migrate order: write the address file, then deliver
// the user-defined signal to the migrating process. An order identical to
// one executed within the dedup window is acknowledged without being
// re-executed (a redelivered duplicate, not a new decision).
func (c *Commander) Migrate(order proto.MigrateOrder) error {
	if order.DestHost == "" {
		return errors.New("commander: order without destination")
	}
	c.mu.Lock()
	p, ok := c.procs[order.PID]
	if ok && c.cfg.DedupWindow > 0 {
		if last, seen := c.lastCmd[order.PID]; seen &&
			last.order.DestHost == order.DestHost &&
			last.order.DestAddr == order.DestAddr &&
			c.cfg.Clock.Now().Sub(last.at) <= c.cfg.DedupWindow {
			c.deduped++
			c.mu.Unlock()
			c.cfg.Metrics.Counter(CtrOrdersDeduped).Inc()
			return nil
		}
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("commander: no managed process with pid %d on %s", order.PID, c.host)
	}
	if c.dir != "" {
		// The paper: "the address and the port of the destination machine
		// are written to a temporary file and are read by the migrating
		// process".
		path := filepath.Join(c.dir, fmt.Sprintf("hpcm-migrate-%d", order.PID))
		content := fmt.Sprintf("%s %s\n", order.DestHost, order.DestAddr)
		if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
			return fmt.Errorf("commander: address file: %w", err)
		}
	}
	if c.cfg.Events != nil {
		c.cfg.Events.Publish(events.Event{
			Time:   c.cfg.Clock.Now(),
			Source: events.SourceCommander,
			Kind:   "order",
			Host:   c.host,
			Dest:   order.DestHost,
			PID:    order.PID,
		})
	}
	p.Signal(hpcm.Command{DestHost: order.DestHost, DestAddr: order.DestAddr, Policy: order.Policy})
	c.mu.Lock()
	c.orders++
	c.lastCmd[order.PID] = lastOrder{order: order, at: c.cfg.Clock.Now()}
	c.mu.Unlock()
	return nil
}

// Deduped reports how many redelivered orders were suppressed.
func (c *Commander) Deduped() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deduped
}

// AddressFile returns the path of the temp file a migrate order for pid
// writes (for tests and for migrating processes reading it back).
func (c *Commander) AddressFile(pid int) string {
	if c.dir == "" {
		return ""
	}
	return filepath.Join(c.dir, fmt.Sprintf("hpcm-migrate-%d", pid))
}
