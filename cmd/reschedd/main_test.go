package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadPolicy(t *testing.T) {
	write := func(body string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "p.pl")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const first = "pl_name: p1\npl_migrate: true\npl_trigger: loadAvg.sh(1) > 2\n\n"

	if p, err := loadPolicy(""); p != nil || err != nil {
		t.Fatalf("no file = %+v, %v; want the nil state-based default", p, err)
	}

	p, err := loadPolicy(write(first + "pl_name: p2\npl_migrate: true\npl_trigger: numProcs.sh > 150\n"))
	if err != nil || p == nil || p.Name != "p2" {
		t.Fatalf("good file = %+v, %v; want the last policy, p2", p, err)
	}

	if _, err := loadPolicy(write("# nothing here\n")); err == nil || !strings.Contains(err.Error(), "no policies") {
		t.Fatalf("empty file err = %v; want \"holds no policies\"", err)
	}
}
