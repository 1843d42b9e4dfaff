package jobs

import (
	"reflect"
	"testing"
)

// TestLedgerTransitions pins each transition's rule on a two-job ledger.
func TestLedgerTransitions(t *testing.T) {
	for _, tc := range []struct {
		name  string
		apply func(t *testing.T, l *Ledger)
		// want is each job's placement afterwards, and owner each host's.
		want  map[string][]string
		owner map[string]string
	}{
		{
			name: "Occupy refuses a held host and records nothing",
			apply: func(t *testing.T, l *Ledger) {
				if err := l.Occupy("b", "h3", "h2"); err == nil {
					t.Error("Occupy gave b h2, which a holds")
				}
			},
			want:  map[string][]string{"a": {"h1", "h2"}, "b": nil},
			owner: map[string]string{"h2": "a", "h3": ""},
		},
		{
			name: "Occupy extends the job's own placement",
			apply: func(t *testing.T, l *Ledger) {
				if err := l.Occupy("a", "h2", "h3"); err != nil {
					t.Error(err)
				}
			},
			want:  map[string][]string{"a": {"h1", "h2", "h2", "h3"}},
			owner: map[string]string{"h3": "a"},
		},
		{
			name: "Occupy takes a host once its holder exits",
			apply: func(t *testing.T, l *Ledger) {
				l.Pin("b", "h3")
				if err := l.Occupy("a", "h3"); err == nil {
					t.Error("Occupy gave a h3, which b holds")
				}
				l.Exit("b", "h3")
				if err := l.Occupy("a", "h3"); err != nil {
					t.Error(err)
				}
			},
			want:  map[string][]string{"a": {"h1", "h2", "h3"}, "b": {}},
			owner: map[string]string{"h3": "a"},
		},
		{
			name:  "Pin shares a held host",
			apply: func(_ *testing.T, l *Ledger) { l.Pin("b", "h2") },
			want:  map[string][]string{"a": {"h1", "h2"}, "b": {"h2"}},
			owner: map[string]string{"h2": "a"},
		},
		{
			name: "Move lands on a held host; Owner is the first-admitted holder",
			apply: func(t *testing.T, l *Ledger) {
				if err := l.Occupy("b", "h3"); err != nil {
					t.Error(err)
				}
				l.Move("b", "h3", "h1")
			},
			want:  map[string][]string{"a": {"h1", "h2"}, "b": {"h1"}},
			owner: map[string]string{"h1": "a", "h3": ""},
		},
		{
			name: "Exit removes one of two ranks on one host",
			apply: func(_ *testing.T, l *Ledger) {
				l.Move("a", "h1", "h2")
				l.Exit("a", "h2")
			},
			want:  map[string][]string{"a": {"h2"}},
			owner: map[string]string{"h1": "", "h2": "a"},
		},
		{
			name: "Release drops the placement and the admission order",
			apply: func(_ *testing.T, l *Ledger) {
				l.Pin("b", "h2")
				l.Release("a")
				l.Pin("a", "h2")
			},
			want:  map[string][]string{"a": {"h2"}, "b": {"h2"}},
			owner: map[string]string{"h1": "", "h2": "b"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var l Ledger
			if err := l.Occupy("a", "h1", "h2"); err != nil {
				t.Fatal(err)
			}
			tc.apply(t, &l)
			for job, want := range tc.want {
				if got := l.Placement(job); !reflect.DeepEqual(got, want) {
					t.Errorf("Placement(%s) = %v, want %v", job, got, want)
				}
			}
			for host, want := range tc.owner {
				if got := l.Owner(host); got != want {
					t.Errorf("Owner(%s) = %q, want %q", host, got, want)
				}
			}
		})
	}
}

// TestLedgerView: the view names each fleet host's first-admitted holder,
// and cuts each running placement to the fleet.
func TestLedgerView(t *testing.T) {
	var l Ledger
	l.Pin("a", "h1", "h2", "h9")
	l.Pin("b", "h2", "h3")
	running := []JobView{{Name: "b"}, {Name: "a"}}
	view := l.View([]string{"h3", "h2", "h1", "h4"}, running, nil)
	want := []HostView{{Name: "h3", Job: "b"}, {Name: "h2", Job: "a"}, {Name: "h1", Job: "a"}, {Name: "h4"}}
	if !reflect.DeepEqual(view.Hosts, want) {
		t.Errorf("Hosts = %v, want %v", view.Hosts, want)
	}
	if got := view.Running[1].Hosts; !reflect.DeepEqual(got, []string{"h1", "h2"}) {
		t.Errorf("a's running placement = %v, want [h1 h2] (h9 is outside the fleet)", got)
	}
	if got := l.Placement("a"); len(got) != 3 {
		t.Errorf("View changed a's placement to %v", got)
	}
}
