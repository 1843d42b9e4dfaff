package mpi

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"autoresched/internal/vclock"
)

func TestSpawnParentChildExchange(t *testing.T) {
	u := NewUniverse(Options{})
	errs := u.Run([]string{"src"}, func(env *Env) error {
		inter, err := env.Spawn([]string{"dst"}, func(child *Env) error {
			if child.Parent == nil {
				return errors.New("child has no parent comm")
			}
			if child.Parent.remoteSize() != 1 || !child.Parent.isInter() {
				return fmt.Errorf("parent comm shape: remote=%d", child.Parent.remoteSize())
			}
			var q string
			if _, err := child.Parent.Recv(&q, 0, 1); err != nil {
				return err
			}
			if q != "state?" {
				return fmt.Errorf("q = %q", q)
			}
			return child.Parent.Send("state!", 0, 2)
		})
		if err != nil {
			return err
		}
		if inter.remoteSize() != 1 || !inter.isInter() {
			return fmt.Errorf("intercomm shape: remote=%d", inter.remoteSize())
		}
		if host, err := inter.Host(0); err != nil || host != "dst" {
			return fmt.Errorf("remote host = %q, %v", host, err)
		}
		if err := inter.Send("state?", 0, 1); err != nil {
			return err
		}
		var a string
		if _, err := inter.Recv(&a, 0, 2); err != nil {
			return err
		}
		if a != "state!" {
			return fmt.Errorf("a = %q", a)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	u.Wait()
}

func TestSpawnMultipleChildrenFormWorld(t *testing.T) {
	u := NewUniverse(Options{})
	errs := u.Run([]string{"root"}, func(env *Env) error {
		inter, err := env.Spawn([]string{"c0", "c1", "c2"}, func(child *Env) error {
			// Children have their own world and can run collectives in it.
			var sum int
			if err := child.World.Allreduce(child.World.Rank(), &sum, Sum); err != nil {
				return err
			}
			if sum != 3 {
				return fmt.Errorf("children allreduce = %d", sum)
			}
			if child.World.Rank() == 0 {
				return child.Parent.Send(sum, 0, 0)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if inter.remoteSize() != 3 {
			return fmt.Errorf("remote size = %d", inter.remoteSize())
		}
		var sum int
		if _, err := inter.Recv(&sum, 0, 0); err != nil {
			return err
		}
		if sum != 3 {
			return fmt.Errorf("sum from children = %d", sum)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	u.Wait()
}

func TestSpawnChargesLatency(t *testing.T) {
	clock := vclock.NewAuto(vclock.Epoch)
	u := NewUniverse(Options{Clock: clock, SpawnLatency: 300 * time.Millisecond})
	var at time.Time
	wait := u.Start([]string{"a"}, func(env *Env) error {
		_, err := env.Spawn([]string{"b"}, func(*Env) error { return nil })
		at = clock.Now()
		return err
	})
	for _, err := range wait() {
		if err != nil {
			t.Fatal(err)
		}
	}
	if want := vclock.Epoch.Add(300 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("spawn returned at %v, want %v", at, want)
	}
	u.Wait()
}

func TestSpawnNoHosts(t *testing.T) {
	u := NewUniverse(Options{})
	errs := u.Run([]string{"a"}, func(env *Env) error {
		_, err := env.Spawn(nil, func(*Env) error { return nil })
		if err == nil {
			return errors.New("Spawn(nil) succeeded")
		}
		return nil
	})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
}

func TestPortsConnectAccept(t *testing.T) {
	u := NewUniverse(Options{})
	ports := make(chan string, 1)
	wait := u.Start([]string{"server", "client"}, func(env *Env) error {
		w := env.World
		self, err := w.CreateGroup([]int{w.Rank()}, 0) // singleton comms
		if err != nil {
			return err
		}
		if w.Rank() == 0 {
			port := env.U.OpenPort()
			ports <- port
			inter, err := env.Accept(port, self)
			if err != nil {
				return err
			}
			var v int
			if _, err := inter.Recv(&v, 0, 0); err != nil {
				return err
			}
			if v != 77 {
				return fmt.Errorf("v = %d", v)
			}
			return inter.Send(v+1, 0, 1)
		}
		inter, err := env.Connect(<-ports, self)
		if err != nil {
			return err
		}
		if err := inter.Send(77, 0, 0); err != nil {
			return err
		}
		var v int
		if _, err := inter.Recv(&v, 0, 1); err != nil {
			return err
		}
		if v != 78 {
			return fmt.Errorf("reply = %d", v)
		}
		return nil
	})
	for _, err := range wait() {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestUnknownAndClosedPort(t *testing.T) {
	u := NewUniverse(Options{})
	if _, err := u.port("no-such-port"); err == nil {
		t.Fatal("lookup of unknown port succeeded")
	}
	port := u.OpenPort()
	if _, err := u.port(port); err != nil {
		t.Fatal(err)
	}
	u.ClosePort(port)
	if _, err := u.port(port); err == nil {
		t.Fatal("port lookup after ClosePort succeeded")
	}
}

// TestMergeProducesWorkingIntracomm exercises the migration pattern end to
// end: spawn, merge, then communicate and run a collective in the merged
// communicator.
func TestMergeProducesWorkingIntracomm(t *testing.T) {
	u := NewUniverse(Options{})
	errs := u.Run([]string{"src"}, func(env *Env) error {
		inter, err := env.Spawn([]string{"dst"}, func(child *Env) error {
			merged, err := child.Parent.Merge(true) // child orders high
			if err != nil {
				return err
			}
			if merged.Size() != 2 || merged.Rank() != 1 {
				return fmt.Errorf("child merged rank/size = %d/%d", merged.Rank(), merged.Size())
			}
			var v string
			if _, err := merged.Recv(&v, 0, 0); err != nil {
				return err
			}
			if v != "takeover" {
				return fmt.Errorf("v = %q", v)
			}
			var sum int
			return merged.Allreduce(1, &sum, Sum)
		})
		if err != nil {
			return err
		}
		merged, err := inter.Merge(false) // parent orders low
		if err != nil {
			return err
		}
		if merged.Size() != 2 || merged.Rank() != 0 {
			return fmt.Errorf("parent merged rank/size = %d/%d", merged.Rank(), merged.Size())
		}
		if err := merged.Send("takeover", 1, 0); err != nil {
			return err
		}
		var sum int
		if err := merged.Allreduce(1, &sum, Sum); err != nil {
			return err
		}
		if sum != 2 {
			return fmt.Errorf("merged allreduce = %d", sum)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	u.Wait()
}

// TestMergeSameHighFlag: both sides passing the same flag still get a
// consistent ordering (ties break on group context).
func TestMergeSameHighFlag(t *testing.T) {
	u := NewUniverse(Options{})
	errs := u.Run([]string{"src"}, func(env *Env) error {
		inter, err := env.Spawn([]string{"dst"}, func(child *Env) error {
			merged, err := child.Parent.Merge(false)
			if err != nil {
				return err
			}
			peer := 1 - merged.Rank()
			var v int
			_, err = merged.SendRecv(merged.Rank(), peer, 0, &v, peer, 0)
			if err != nil {
				return err
			}
			if v != peer {
				return fmt.Errorf("child exchanged %d, want %d", v, peer)
			}
			return nil
		})
		if err != nil {
			return err
		}
		merged, err := inter.Merge(false)
		if err != nil {
			return err
		}
		peer := 1 - merged.Rank()
		var v int
		if _, err := merged.SendRecv(merged.Rank(), peer, 0, &v, peer, 0); err != nil {
			return err
		}
		if v != peer {
			return fmt.Errorf("parent exchanged %d, want %d", v, peer)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	u.Wait()
}

func TestMergeOfIntracommFails(t *testing.T) {
	runWorld(t, 1, func(env *Env) error {
		if _, err := env.World.Merge(false); err == nil {
			return errors.New("Merge of intracomm succeeded")
		}
		return nil
	})
}

func TestCollectiveOnIntercommRejected(t *testing.T) {
	u := NewUniverse(Options{})
	errs := u.Run([]string{"a"}, func(env *Env) error {
		inter, err := env.Spawn([]string{"b"}, func(child *Env) error {
			// Keep the child alive until the parent has tested.
			var v int
			_, err := child.Parent.Recv(&v, 0, 9)
			return err
		})
		if err != nil {
			return err
		}
		var x int
		if err := inter.Bcast(&x, 0); err == nil {
			return errors.New("Bcast on intercomm succeeded")
		}
		return inter.Send(0, 0, 9)
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	u.Wait()
}

func TestSpawnHostFailedTyped(t *testing.T) {
	u := NewUniverse(Options{HostCheck: func(host string) error {
		if host == "dead" {
			return errors.New("host is down")
		}
		return nil
	}})
	errs := u.Run([]string{"src"}, func(env *Env) error {
		// A dead target surfaces as *HostFailedError naming the host...
		_, err := env.Spawn([]string{"ok", "dead"}, func(*Env) error { return nil })
		var hf *HostFailedError
		if !errors.As(err, &hf) {
			return fmt.Errorf("spawn error = %v, want *HostFailedError", err)
		}
		if hf.Host != "dead" {
			return fmt.Errorf("failed host = %q, want dead", hf.Host)
		}
		// ...while other dynamic-process errors stay untyped, so the resize
		// path can tell "host died" from protocol/transport failures.
		_, err = env.Connect("no-such-port", env.World)
		if err == nil || errors.As(err, &hf) {
			return fmt.Errorf("connect error = %v, want untyped", err)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	u.Wait()
}

func TestSpawnMergeGrowsWorld(t *testing.T) {
	u := NewUniverse(Options{})
	errs := u.Run([]string{"a", "b", "c"}, func(env *Env) error {
		child := func(cenv *Env) error {
			big, err := cenv.Parent.Merge(true)
			if err != nil {
				return err
			}
			if big.Size() != 5 {
				return fmt.Errorf("child merged size = %d, want 5", big.Size())
			}
			// Children follow the parents, in host order.
			if host, err := big.Host(big.Rank()); err != nil || host != cenv.Host {
				return fmt.Errorf("child rank %d host = %q, %v", big.Rank(), host, err)
			}
			var sum int
			if err := big.Allreduce(big.Rank(), &sum, Sum); err != nil {
				return err
			}
			if sum != 10 {
				return fmt.Errorf("child allreduce = %d, want 10", sum)
			}
			return nil
		}
		big, err := env.SpawnMerge(env.World, []string{"d", "e"}, child)
		if err != nil {
			return err
		}
		if big.Size() != 5 || big.Rank() != env.World.Rank() {
			return fmt.Errorf("merged size=%d rank=%d (world rank %d)", big.Size(), big.Rank(), env.World.Rank())
		}
		var sum int
		if err := big.Allreduce(big.Rank(), &sum, Sum); err != nil {
			return err
		}
		if sum != 10 {
			return fmt.Errorf("allreduce = %d, want 10", sum)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	u.Wait()
}

func TestSpawnMergeFailurePropagatesToAllRanks(t *testing.T) {
	u := NewUniverse(Options{HostCheck: func(host string) error {
		if host == "dead" {
			return errors.New("host is down")
		}
		return nil
	}})
	errs := u.Run([]string{"a", "b", "c"}, func(env *Env) error {
		_, err := env.SpawnMerge(env.World, []string{"dead"}, func(*Env) error { return nil })
		var hf *HostFailedError
		if !errors.As(err, &hf) || hf.Host != "dead" {
			return fmt.Errorf("rank %d: err = %v, want *HostFailedError{dead}", env.World.Rank(), err)
		}
		// The world is untouched: a post-abort collective still works.
		var sum int
		if err := env.World.Allreduce(1, &sum, Sum); err != nil {
			return err
		}
		if sum != 3 {
			return fmt.Errorf("post-abort allreduce = %d", sum)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	u.Wait()
}

func TestCreateGroupSubsetAndOrder(t *testing.T) {
	u := NewUniverse(Options{})
	errs := u.Run([]string{"a", "b", "c", "d"}, func(env *Env) error {
		w := env.World
		members := []int{3, 0, 1} // rank 2 does not participate at all
		if w.Rank() == 2 {
			if _, err := w.CreateGroup([]int{0, 1}, 7); err == nil {
				return errors.New("CreateGroup without the caller should fail")
			}
			if _, err := w.CreateGroup([]int{2, 2}, 7); err == nil {
				return errors.New("CreateGroup with duplicate ranks should fail")
			}
			return nil
		}
		sub, err := w.CreateGroup(members, 7)
		if err != nil {
			return err
		}
		if sub.Size() != 3 {
			return fmt.Errorf("sub size = %d", sub.Size())
		}
		wantRank := map[int]int{3: 0, 0: 1, 1: 2}[w.Rank()]
		if sub.Rank() != wantRank {
			return fmt.Errorf("sub rank = %d, want %d", sub.Rank(), wantRank)
		}
		var sum int
		if err := sub.Allreduce(w.Rank(), &sum, Sum); err != nil {
			return err
		}
		if sum != 4 {
			return fmt.Errorf("sub allreduce = %d, want 4", sum)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	u.Wait()
}

func TestKillUnblocksReceiver(t *testing.T) {
	u := NewUniverse(Options{})
	ready := make(chan *Env, 1)
	wait := u.Start([]string{"a", "b"}, func(env *Env) error {
		if env.World.Rank() == 1 {
			ready <- env
			var v int
			_, err := env.World.Recv(&v, 0, 1)
			if !errors.Is(err, ErrProcExited) {
				return fmt.Errorf("recv after kill = %v, want ErrProcExited", err)
			}
			return nil
		}
		return nil
	})
	(<-ready).Kill()
	for _, err := range wait() {
		if err != nil {
			t.Fatal(err)
		}
	}
	u.Wait()
}
