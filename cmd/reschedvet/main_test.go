package main

import (
	"bytes"
	"strings"
	"testing"

	"autoresched/internal/analysis"
)

// TestUnknownCheckIsAnError: a misspelt -checks name exits 2 and lists the
// valid checks, instead of disabling every check and passing.
func TestUnknownCheckIsAnError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-checks", "determinsm", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2 (stdout %q, stderr %q)", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), `unknown check "determinsm"`) {
		t.Errorf("stderr does not name the unknown check: %q", stderr.String())
	}
	for _, c := range analysis.Checks() {
		if !strings.Contains(stderr.String(), c.Name) {
			t.Errorf("stderr does not list check %s: %q", c.Name, stderr.String())
		}
	}
}

// TestDisabledForKnownChecks: the named checks, spaces trimmed, stay on and
// every other check is disabled.
func TestDisabledForKnownChecks(t *testing.T) {
	disabled, err := disabledFor([]string{"determinism", " lockorder"})
	if err != nil {
		t.Fatal(err)
	}
	if len(disabled) != len(analysis.Checks())-2 {
		t.Errorf("disabled = %v, want every check but determinism and lockorder", disabled)
	}
	for _, name := range disabled {
		if name == "determinism" || name == "lockorder" {
			t.Errorf("disabled a named check: %v", disabled)
		}
	}
}
