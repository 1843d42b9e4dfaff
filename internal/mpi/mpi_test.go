package mpi

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func hosts(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("h%d", i)
	}
	return out
}

func runWorld(t *testing.T, n int, main Main) {
	t.Helper()
	u := NewUniverse(Options{})
	errs := u.Run(hosts(n), main)
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func TestRankAndSize(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	runWorld(t, 4, func(env *Env) error {
		if env.World.Size() != 4 {
			return fmt.Errorf("size = %d", env.World.Size())
		}
		if env.Parent != nil {
			return errors.New("unexpected parent")
		}
		if want := fmt.Sprintf("h%d", env.World.Rank()); env.Host != want {
			return fmt.Errorf("host = %s, want %s", env.Host, want)
		}
		mu.Lock()
		seen[env.World.Rank()] = true
		mu.Unlock()
		return nil
	})
	if len(seen) != 4 {
		t.Fatalf("ranks seen = %v", seen)
	}
}

func TestSendRecvBasic(t *testing.T) {
	runWorld(t, 2, func(env *Env) error {
		w := env.World
		switch w.Rank() {
		case 0:
			if err := w.Send("hello", 1, 7); err != nil {
				return err
			}
			var reply int
			st, err := w.Recv(&reply, 1, 8)
			if err != nil {
				return err
			}
			if reply != 42 || st.Tag != 8 {
				return fmt.Errorf("reply=%d st=%+v", reply, st)
			}
		case 1:
			var msg string
			if _, err := w.Recv(&msg, 0, 7); err != nil {
				return err
			}
			if msg != "hello" {
				return fmt.Errorf("msg = %q", msg)
			}
			return w.Send(42, 0, 8)
		}
		return nil
	})
}

func TestRecvWildcards(t *testing.T) {
	runWorld(t, 3, func(env *Env) error {
		w := env.World
		if w.Rank() == 0 {
			got := map[int]bool{}
			for i := 0; i < 2; i++ {
				var v int
				st, err := w.Recv(&v, AnySource, AnyTag)
				if err != nil {
					return err
				}
				// Each rank sends on its own rank as the tag.
				if v != st.Tag*100+st.Tag {
					return fmt.Errorf("v=%d tag %d", v, st.Tag)
				}
				got[st.Tag] = true
			}
			if !got[1] || !got[2] {
				return fmt.Errorf("sources = %v", got)
			}
			return nil
		}
		return w.Send(w.Rank()*100+w.Rank(), 0, w.Rank())
	})
}

func TestTagMatching(t *testing.T) {
	runWorld(t, 2, func(env *Env) error {
		w := env.World
		if w.Rank() == 0 {
			// Send tag 2 first, then tag 1; receiver asks for tag 1 first.
			if err := w.Send("two", 1, 2); err != nil {
				return err
			}
			return w.Send("one", 1, 1)
		}
		var a, b string
		if _, err := w.Recv(&a, 0, 1); err != nil {
			return err
		}
		if _, err := w.Recv(&b, 0, 2); err != nil {
			return err
		}
		if a != "one" || b != "two" {
			return fmt.Errorf("a=%q b=%q", a, b)
		}
		return nil
	})
}

func TestFIFOPerSenderSameTag(t *testing.T) {
	const n = 50
	runWorld(t, 2, func(env *Env) error {
		w := env.World
		if w.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := w.Send(i, 1, 3); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			var v int
			if _, err := w.Recv(&v, 0, 3); err != nil {
				return err
			}
			if v != i {
				return fmt.Errorf("out of order: got %d want %d", v, i)
			}
		}
		return nil
	})
}

func TestNegativeUserTagRejected(t *testing.T) {
	runWorld(t, 2, func(env *Env) error {
		if env.World.Rank() == 0 {
			if err := env.World.Send(1, 1, -3); !errors.Is(err, ErrBadTag) {
				return fmt.Errorf("err = %v, want ErrBadTag", err)
			}
			return env.World.Send(1, 1, 0) // unblock peer
		}
		var v int
		_, err := env.World.Recv(&v, 0, 0)
		return err
	})
}

func TestBadRank(t *testing.T) {
	runWorld(t, 2, func(env *Env) error {
		if err := env.World.Send(1, 5, 0); !errors.Is(err, ErrBadRank) {
			return fmt.Errorf("send err = %v", err)
		}
		if _, err := env.World.Host(9); !errors.Is(err, ErrBadRank) {
			return fmt.Errorf("host err = %v", err)
		}
		return nil
	})
}

func TestProbe(t *testing.T) {
	runWorld(t, 2, func(env *Env) error {
		w := env.World
		if w.Rank() == 0 {
			return w.Send([]int{1, 2, 3}, 1, 9)
		}
		st, err := w.Probe(AnySource, AnyTag)
		if err != nil {
			return err
		}
		if st.Tag != 9 {
			return fmt.Errorf("probe = %+v", st)
		}
		var v []int
		if _, err := w.Recv(&v, 0, st.Tag); err != nil {
			return err
		}
		if len(v) != 3 {
			return fmt.Errorf("v = %v", v)
		}
		return nil
	})
}

func TestIprobe(t *testing.T) {
	runWorld(t, 2, func(env *Env) error {
		w := env.World
		if w.Rank() == 0 {
			// Nothing pending yet.
			if ok, _, err := w.Iprobe(AnySource, AnyTag); err != nil || ok {
				return fmt.Errorf("Iprobe on empty queue = %v, %v", ok, err)
			}
			// Tell the peer to send, then poll.
			if err := w.Send(true, 1, 0); err != nil {
				return err
			}
			for {
				ok, st, err := w.Iprobe(1, 3)
				if err != nil {
					return err
				}
				if ok {
					if st.Tag != 3 {
						return fmt.Errorf("st = %+v", st)
					}
					break
				}
				time.Sleep(time.Millisecond)
			}
			var v int
			_, err := w.Recv(&v, 1, 3)
			return err
		}
		var go1 bool
		if _, err := w.Recv(&go1, 0, 0); err != nil {
			return err
		}
		return w.Send(7, 0, 3)
	})
}

func TestIsendWait(t *testing.T) {
	runWorld(t, 2, func(env *Env) error {
		w := env.World
		if w.Rank() == 0 {
			r := w.Isend(3.14, 1, 4)
			if _, err := r.Wait(); err != nil {
				return err
			}
			return nil
		}
		var v float64
		if _, err := w.Recv(&v, 0, 4); err != nil {
			return err
		}
		if v != 3.14 {
			return fmt.Errorf("v = %v", v)
		}
		return nil
	})
}

func TestSendRecvExchangeNoDeadlock(t *testing.T) {
	runWorld(t, 2, func(env *Env) error {
		w := env.World
		peer := 1 - w.Rank()
		var got int
		if _, err := w.SendRecv(w.Rank(), peer, 5, &got, peer, 5); err != nil {
			return err
		}
		if got != peer {
			return fmt.Errorf("got %d want %d", got, peer)
		}
		return nil
	})
}

func TestStructPayload(t *testing.T) {
	type payload struct {
		Name string
		Vals []float64
		M    map[string]int
	}
	runWorld(t, 2, func(env *Env) error {
		w := env.World
		if w.Rank() == 0 {
			return w.Send(payload{Name: "x", Vals: []float64{1, 2}, M: map[string]int{"a": 1}}, 1, 0)
		}
		var p payload
		if _, err := w.Recv(&p, 0, 0); err != nil {
			return err
		}
		if p.Name != "x" || len(p.Vals) != 2 || p.M["a"] != 1 {
			return fmt.Errorf("p = %+v", p)
		}
		return nil
	})
}

func TestSendToExitedRank(t *testing.T) {
	u := NewUniverse(Options{})
	ready := make(chan *Comm, 1)
	done := make(chan struct{})
	errs := u.Start(hosts(2), func(env *Env) error {
		if env.World.Rank() == 1 {
			return nil // exits immediately
		}
		ready <- env.World
		<-done
		return nil
	})
	w := <-ready
	// Wait until rank 1's endpoint is closed.
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := w.Send(1, 1, 0)
		if errors.Is(err, ErrProcExited) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("send to exited rank never failed")
		}
		time.Sleep(time.Millisecond)
	}
	close(done)
	errs()
}

func TestRunReturnsPerRankErrors(t *testing.T) {
	u := NewUniverse(Options{})
	boom := errors.New("boom")
	errs := u.Run(hosts(3), func(env *Env) error {
		if env.World.Rank() == 1 {
			return boom
		}
		return nil
	})
	if errs[0] != nil || errs[2] != nil || !errors.Is(errs[1], boom) {
		t.Fatalf("errs = %v", errs)
	}
}

func TestSendPartsMultiPartRaw(t *testing.T) {
	runWorld(t, 2, func(env *Env) error {
		w := env.World
		switch w.Rank() {
		case 0:
			parts := [][]byte{{1, 2, 3}, {4}, {5, 6}}
			if err := w.SendParts(parts, 1, 9); err != nil {
				return err
			}
			// An empty batch still delivers (zero-byte multi-part message).
			if err := w.SendParts(nil, 1, 9); err != nil {
				return err
			}
			if err := w.SendParts([][]byte{{7}}, 1, -1); err == nil {
				return errors.New("negative tag accepted")
			}
			if err := w.SendParts([][]byte{{7}}, 5, 9); err == nil {
				return errors.New("bad rank accepted")
			}
		case 1:
			var parts [][]byte
			st, err := w.Recv(&parts, 0, 9)
			if err != nil {
				return err
			}
			if len(parts) != 3 {
				return fmt.Errorf("parts=%v st=%+v", parts, st)
			}
			if parts[0][0] != 1 || parts[1][0] != 4 || parts[2][1] != 6 {
				return fmt.Errorf("parts content = %v", parts)
			}
			// Receiving a multi-part message into anything but *[][]byte fails.
			var wrong []byte
			if _, err := w.Recv(&wrong, 0, 9); err == nil {
				return errors.New("multi-part message landed in *[]byte")
			}
		}
		return nil
	})
}
