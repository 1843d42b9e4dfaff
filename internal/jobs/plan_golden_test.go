package jobs

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plans.golden from the current planner")

// TestPlanGolden pins the planner's decisions: one line per admission and
// per eviction of one cycle over benchView at depths 64 and 256, on the
// homogeneous and the heterogeneous fleet, under every stock policy. The
// committed file is the reference a rewrite of the planner must reproduce
// byte for byte.
func TestPlanGolden(t *testing.T) {
	var got bytes.Buffer
	modes := map[EvictMode]int{}
	for _, hetero := range []bool{false, true} {
		for _, depth := range []int{64, 256} {
			for _, p := range Policies() {
				pending, view := benchView(depth, hetero)
				fmt.Fprintf(&got, "== %s depth%d hetero=%t\n", p.Name(), depth, hetero)
				for _, adm := range PlanCycle(p, pending, view) {
					fmt.Fprintf(&got, "admit %s hosts=%s\n", adm.Job, strings.Join(adm.Hosts, ","))
					for _, ev := range adm.Evictions {
						modes[ev.Mode]++
						moves := make([]string, 0, len(ev.Moves))
						for _, h := range ev.Hosts {
							if dest, ok := ev.Moves[h]; ok {
								moves = append(moves, h+"->"+dest)
							}
						}
						fmt.Fprintf(&got, "  evict %s mode=%s hosts=%s moves=%s\n",
							ev.Job, ev.Mode, strings.Join(ev.Hosts, ","), strings.Join(moves, ","))
					}
				}
			}
		}
	}
	for _, m := range []EvictMode{EvictRequeue, EvictShrink, EvictMigrate} {
		if modes[m] == 0 {
			t.Errorf("no %s eviction in the fixtures; the golden does not cover it", m)
		}
	}
	golden := filepath.Join("testdata", "plans.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("the plans changed; if that is deliberate, rerun with -update and review the diff.\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// TestPlanIsReservableAsWritten checks, over the golden's fixtures, that
// the dispatcher can reserve every plan as the planner wrote it: each
// admission host is free in the view or vacated by one of that admission's
// own evictions from the job the view places there, every migration
// destination is free in the view, and no host appears twice among a
// plan's admission hosts and move destinations: the reservation holds both.
func TestPlanIsReservableAsWritten(t *testing.T) {
	for _, hetero := range []bool{false, true} {
		for _, depth := range []int{64, 256} {
			for _, p := range Policies() {
				pending, view := benchView(depth, hetero)
				occupant := make(map[string]string, len(view.Hosts))
				for _, h := range view.Hosts {
					occupant[h.Name] = h.Job
				}
				where := fmt.Sprintf("%s depth%d hetero=%t", p.Name(), depth, hetero)
				used := map[string]string{}
				take := func(h, by string) {
					if prev, dup := used[h]; dup {
						t.Errorf("%s: %s planned twice (%s, %s)", where, h, prev, by)
					}
					used[h] = by
				}
				for _, adm := range PlanCycle(p, pending, view) {
					for _, h := range adm.Hosts {
						take(h, "admit "+adm.Job)
						if occupant[h] == "" {
							continue
						}
						vacated := false
						for _, ev := range adm.Evictions {
							vacated = vacated || ev.Job == occupant[h] && slices.Contains(ev.Hosts, h)
						}
						if !vacated {
							t.Errorf("%s: admit %s hosts=%s: %s is %s's and none of the admission's evictions vacates it",
								where, adm.Job, strings.Join(adm.Hosts, ","), h, occupant[h])
						}
					}
					for _, ev := range adm.Evictions {
						for _, h := range ev.Hosts {
							dest, ok := ev.Moves[h]
							if !ok {
								continue
							}
							take(dest, "move "+ev.Job)
							if occupant[dest] != "" {
								t.Errorf("%s: %s moves onto %s, which is %s's", where, ev.Job, dest, occupant[dest])
							}
						}
					}
				}
			}
		}
	}
}
