package commander

import (
	"os"
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
	dir := t.TempDir()
	c := newFromConfig("ws1", dir, Config{})
	if c.Host() != "ws1" {
		t.Fatalf("host = %q", c.Host())
	}
	p := &fakeProc{pid: 42}
	c.Manage(p)
	if c.Managed() != 1 {
		t.Fatalf("managed = %d", c.Managed())
	}
	order := proto.MigrateOrder{PID: 42, DestHost: "ws4", DestAddr: "cmd://ws4", Policy: "policy3"}
	if err := c.Migrate(order); err != nil {
		t.Fatal(err)
	}
	sigs := p.signals()
	if len(sigs) != 1 || sigs[0].DestHost != "ws4" || sigs[0].Policy != "policy3" {
		t.Fatalf("signals = %+v", sigs)
	}
	if c.Orders() != 1 {
		t.Fatalf("orders = %d", c.Orders())
	}
	// The paper's temp file carries "host addr".
	data, err := os.ReadFile(c.AddressFile(42))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(data)); got != "ws4 cmd://ws4" {
		t.Fatalf("address file = %q", got)
	}
}

func TestMigrateUnknownPID(t *testing.T) {
	c := newFromConfig("ws1", "", Config{})
	err := c.Migrate(proto.MigrateOrder{PID: 99, DestHost: "ws4"})
	if err == nil || !strings.Contains(err.Error(), "no managed process") {
		t.Fatalf("err = %v", err)
	}
	if err := c.Migrate(proto.MigrateOrder{PID: 99}); err == nil {
		t.Fatal("order without destination accepted")
	}
}

func TestManageAsAndForget(t *testing.T) {
	c := newFromConfig("ws1", "", Config{})
	p := &fakeProc{pid: 1}
	c.ManageAs(77, p) // the post-migration pid differs from p.PID()
	if err := c.Migrate(proto.MigrateOrder{PID: 77, DestHost: "ws2"}); err != nil {
		t.Fatal(err)
	}
	c.Forget(77)
	if err := c.Migrate(proto.MigrateOrder{PID: 77, DestHost: "ws2"}); err == nil {
		t.Fatal("forgotten pid still managed")
	}
	if c.Managed() != 0 {
		t.Fatalf("managed = %d", c.Managed())
	}
}

func TestNoDirSkipsAddressFile(t *testing.T) {
	c := newFromConfig("ws1", "", Config{})
	p := &fakeProc{pid: 5}
	c.Manage(p)
	if err := c.Migrate(proto.MigrateOrder{PID: 5, DestHost: "ws2", DestAddr: "a"}); err != nil {
		t.Fatal(err)
	}
	if c.AddressFile(5) != "" {
		t.Fatal("address file path without dir")
	}
}

func TestBadDirSurfacesError(t *testing.T) {
	c := newFromConfig("ws1", "/nonexistent/dir/for/sure", Config{})
	p := &fakeProc{pid: 8}
	c.Manage(p)
	err := c.Migrate(proto.MigrateOrder{PID: 8, DestHost: "ws2"})
	if err == nil {
		t.Fatal("write to bad dir succeeded")
	}
	if len(p.signals()) != 0 {
		t.Fatal("signalled despite address-file failure")
	}
}
