package mpi

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestBcastAllSizesAndRoots(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		for root := 0; root < n; root++ {
			var mu sync.Mutex
			got := map[int]string{}
			runWorld(t, n, func(env *Env) error {
				w := env.World
				msg := "default"
				if w.Rank() == root {
					msg = fmt.Sprintf("from-%d", root)
				}
				if err := w.Bcast(&msg, root); err != nil {
					return err
				}
				mu.Lock()
				got[w.Rank()] = msg
				mu.Unlock()
				return nil
			})
			want := fmt.Sprintf("from-%d", root)
			for rank, msg := range got {
				if msg != want {
					t.Fatalf("n=%d root=%d rank=%d got %q", n, root, rank, msg)
				}
			}
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		runWorld(t, n, func(env *Env) error {
			w := env.World
			var total int
			if err := w.Reduce(w.Rank()+1, &total, Sum, 0); err != nil {
				return err
			}
			if w.Rank() == 0 {
				want := n * (n + 1) / 2
				if total != want {
					return fmt.Errorf("sum = %d, want %d", total, want)
				}
			}
			return nil
		})
	}
}

func TestReduceMixedTypesError(t *testing.T) {
	if _, err := Sum(1, "x"); err == nil {
		t.Fatal("Sum(int, string) succeeded")
	}
	if _, err := Sum("a", "b"); err == nil {
		t.Fatal("Sum(string, string) succeeded")
	}
}

func TestScatter(t *testing.T) {
	runWorld(t, 4, func(env *Env) error {
		w := env.World
		var mine string
		var toScatter []any
		if w.Rank() == 1 {
			for i := 0; i < 4; i++ {
				toScatter = append(toScatter, fmt.Sprintf("piece-%d", i))
			}
		}
		if err := w.Scatter(toScatter, &mine, 1); err != nil {
			return err
		}
		if want := fmt.Sprintf("piece-%d", w.Rank()); mine != want {
			return fmt.Errorf("scatter got %q want %q", mine, want)
		}
		return nil
	})
}

func TestScatterWrongCount(t *testing.T) {
	runWorld(t, 2, func(env *Env) error {
		w := env.World
		var v int
		if w.Rank() == 0 {
			if err := w.Scatter([]any{1}, &v, 0); err == nil {
				return errors.New("short scatter accepted")
			}
			// Unblock rank 1 with a real scatter.
			return w.Scatter([]any{10, 20}, &v, 0)
		}
		if err := w.Scatter(nil, &v, 0); err != nil {
			return err
		}
		if v != 20 {
			return fmt.Errorf("v = %d", v)
		}
		return nil
	})
}

func TestCollectiveBadRoot(t *testing.T) {
	runWorld(t, 2, func(env *Env) error {
		w := env.World
		var v int
		if err := w.Bcast(&v, 9); !errors.Is(err, ErrBadRank) {
			return fmt.Errorf("bcast err = %v", err)
		}
		if err := w.Reduce(1, &v, Sum, -1); !errors.Is(err, ErrBadRank) {
			return fmt.Errorf("reduce err = %v", err)
		}
		return nil
	})
}

// Property: Allreduce(Sum) over random integer vectors equals the local sum
// computed directly, for several world sizes.
func TestAllreduceSumProperty(t *testing.T) {
	f := func(vals []int16, sizeSeed uint8) bool {
		n := int(sizeSeed%6) + 1
		if len(vals) < n {
			return true
		}
		want := 0
		for i := 0; i < n; i++ {
			want += int(vals[i])
		}
		ok := true
		var mu sync.Mutex
		u := NewUniverse(Options{})
		errs := u.Run(hosts(n), func(env *Env) error {
			var got int
			if err := env.World.Allreduce(int(vals[env.World.Rank()]), &got, Sum); err != nil {
				return err
			}
			if got != want {
				mu.Lock()
				ok = false
				mu.Unlock()
			}
			return nil
		})
		for _, err := range errs {
			if err != nil {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
