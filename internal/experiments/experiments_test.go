package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAllRegistered(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
		"E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20"}
	all := All()
	if len(all) != len(want) {
		ids := make([]string, len(all))
		for i, e := range all {
			ids[i] = e.ID
		}
		t.Fatalf("registered %v, want %v", ids, want)
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("position %d: %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
}

func TestGet(t *testing.T) {
	if _, ok := Get("E3"); !ok {
		t.Error("Get(E3) failed")
	}
	if _, ok := Get("E99"); ok {
		t.Error("Get(E99) succeeded")
	}
}

func TestEveryExperimentRuns(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Errorf("%s produced no output", e.ID)
			}
		})
	}
}

// TestRunAll pins the whole reproduction byte for byte: every table of
// every experiment, as spm-experiments prints it. An execution tier may
// change how a verdict is computed, never what it is, so any diff here is
// a regression unless an experiment itself was meant to change. After an
// intended change, regenerate the golden with
//
//	go run ./cmd/spm-experiments > internal/experiments/testdata/all.golden
func TestRunAll(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, e := range All() {
		if !strings.Contains(out, "== "+e.ID+":") {
			t.Errorf("RunAll output missing section %s", e.ID)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		got, exp := strings.Split(out, "\n"), strings.Split(string(want), "\n")
		for i := range max(len(got), len(exp)) {
			var g, e string
			if i < len(got) {
				g = got[i]
			}
			if i < len(exp) {
				e = exp[i]
			}
			if g != e {
				t.Fatalf("RunAll output differs from testdata/all.golden at line %d:\n got: %q\nwant: %q", i+1, g, e)
			}
		}
	}
}

// Claim-shape checks: the experiments must reproduce the *direction* of
// the paper's results, not just run.

func TestE3Shape(t *testing.T) {
	var buf bytes.Buffer
	e, _ := Get("E3")
	if err := e.Run(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "M_s > M_h") {
		t.Errorf("E3 should conclude M_s > M_h:\n%s", buf.String())
	}
}

func TestE5E6OppositeDirections(t *testing.T) {
	var b5, b6 bytes.Buffer
	e5, _ := Get("E5")
	e6, _ := Get("E6")
	if err := e5.Run(&b5); err != nil {
		t.Fatal(err)
	}
	if err := e6.Run(&b6); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b5.String(), "transformed > plain") {
		t.Errorf("E5 should show the transform helping:\n%s", b5.String())
	}
	if !strings.Contains(b6.String(), "transformed < plain") {
		t.Errorf("E6 should show the transform hurting:\n%s", b6.String())
	}
}

func TestE10AttackBeatsBruteForce(t *testing.T) {
	var buf bytes.Buffer
	e, _ := Get("E10")
	if err := e.Run(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "yes") {
		t.Errorf("E10 should recover every password:\n%s", out)
	}
	if strings.Contains(out, "no") {
		t.Errorf("E10 had a failed recovery:\n%s", out)
	}
}

func TestE11Directions(t *testing.T) {
	var buf bytes.Buffer
	e, _ := Get("E11")
	if err := e.Run(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "halt-as-noop") || !strings.Contains(out, "halt-as-error") {
		t.Fatalf("E11 output incomplete:\n%s", out)
	}
	// Table rows (the ones showing outcomes, with a Λ cell for x=0 under
	// halt-as-error): noop ends sound=yes, error ends sound=no.
	for _, line := range strings.Split(out, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(line, "halt-as-noop") && !strings.HasSuffix(trimmed, "yes") {
			t.Errorf("halt-as-noop should be sound: %s", line)
		}
		if strings.HasPrefix(line, "halt-as-error") && strings.Contains(line, "Λ") && !strings.HasSuffix(trimmed, "no") {
			t.Errorf("halt-as-error should be unsound: %s", line)
		}
	}
}
