package commander

import (
	"strings"
	"sync"
	"testing"

	"autoresched/internal/hpcm"
	"autoresched/internal/proto"
)

type fakeProc struct {
	pid  int
	mu   sync.Mutex
	cmds []hpcm.Command
}

func (f *fakeProc) PID() int { return f.pid }
func (f *fakeProc) Signal(cmd hpcm.Command) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cmds = append(f.cmds, cmd)
}
func (f *fakeProc) signals() []hpcm.Command {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]hpcm.Command(nil), f.cmds...)
}

func TestMigrateSignalsManagedProcess(t *testing.T) {
	c := NewCommander("ws1")
	if c.Host() != "ws1" {
		t.Fatalf("host = %q", c.Host())
	}
	p := &fakeProc{pid: 42}
	c.Manage(p)
	// The signal's payload is the one carrier of the destination.
	order := proto.MigrateOrder{PID: 42, DestHost: "ws4", DestAddr: "cmd://ws4", Policy: "policy3"}
	if err := c.Migrate(order); err != nil {
		t.Fatal(err)
	}
	sigs := p.signals()
	if len(sigs) != 1 || sigs[0] != (hpcm.Command{DestHost: "ws4", DestAddr: "cmd://ws4", Policy: "policy3"}) {
		t.Fatalf("signals = %+v", sigs)
	}
}

func TestMigrateUnknownPID(t *testing.T) {
	c := NewCommander("ws1")
	err := c.Migrate(proto.MigrateOrder{PID: 99, DestHost: "ws4"})
	if err == nil || !strings.Contains(err.Error(), "no managed process") {
		t.Fatalf("err = %v", err)
	}
	if err := c.Migrate(proto.MigrateOrder{PID: 99}); err == nil {
		t.Fatal("order without destination accepted")
	}
}

func TestManageAsAndForget(t *testing.T) {
	c := NewCommander("ws1")
	p := &fakeProc{pid: 1}
	c.ManageAs(77, p) // the post-migration pid differs from p.PID()
	if err := c.Migrate(proto.MigrateOrder{PID: 77, DestHost: "ws2"}); err != nil {
		t.Fatal(err)
	}
	c.Forget(77)
	if err := c.Migrate(proto.MigrateOrder{PID: 77, DestHost: "ws2"}); err == nil {
		t.Fatal("forgotten pid still managed")
	}
}
