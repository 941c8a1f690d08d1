package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const testProg = `
program demo
inputs x1 x2
    r := x1
    r := 0
    if x2 == 0 goto Zero else NonZero
Zero:    y := r
         halt
NonZero: y := x1
         halt
`

func writeProg(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.fc")
	if err := os.WriteFile(path, []byte(src), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// capture runs f with stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	return captureFile(t, &os.Stdout, f)
}

// captureFile runs f with *file redirected and returns what it printed.
func captureFile(t *testing.T, file **os.File, f func() error) (string, error) {
	t.Helper()
	old := *file
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*file = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	ferr := f()
	w.Close()
	*file = old
	return <-done, ferr
}

func TestCmdRun(t *testing.T) {
	path := writeProg(t, testProg)
	out, err := capture(t, func() error { return run([]string{"run", path, "7", "0"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "0 (steps=") {
		t.Errorf("run output = %q", out)
	}
}

func TestCmdRunTrace(t *testing.T) {
	path := writeProg(t, testProg)
	out, err := capture(t, func() error { return run([]string{"run", "-trace", path, "7", "5"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "r := x1") || !strings.Contains(out, "if x2 == 0") {
		t.Errorf("trace output = %q", out)
	}
}

func TestCmdInstrument(t *testing.T) {
	path := writeProg(t, testProg)
	out, err := capture(t, func() error {
		return run([]string{"instrument", "-policy", "{2}", "-variant", "timed", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"x1#", "C#", "violation"} {
		if !strings.Contains(out, want) {
			t.Errorf("instrument output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdCertify(t *testing.T) {
	path := writeProg(t, testProg)
	out, err := capture(t, func() error { return run([]string{"certify", "-policy", "{1,2}", path}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "certified") {
		t.Errorf("certify output = %q", out)
	}
	out, err = capture(t, func() error { return run([]string{"certify", "-policy", "{2}", path}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "NOT certifiable") {
		t.Errorf("certify output = %q", out)
	}
}

func TestCmdSpecialize(t *testing.T) {
	path := writeProg(t, `
program ex9
inputs x1 x2
    if x1 == 0 goto A else B
A:  y := 1
    goto J
B:  y := x2
    goto J
J:  halt
`)
	out, err := capture(t, func() error { return run([]string{"specialize", "-policy", "{1}", path}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "if x1 == 0") || !strings.Contains(out, "Λ") {
		t.Errorf("specialize output = %q", out)
	}
}

func TestCmdCheck(t *testing.T) {
	path := writeProg(t, testProg)
	out, err := capture(t, func() error {
		return run([]string{"check", "-policy", "{2}", "-domain", "0,1,2", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "SOUND") {
		t.Errorf("check output = %q", out)
	}
	// Raw program under the same policy is unsound.
	out, err = capture(t, func() error {
		return run([]string{"check", "-raw", "-policy", "{2}", "-domain", "0,1,2", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "UNSOUND") {
		t.Errorf("raw check output = %q", out)
	}
}

func TestCmdDot(t *testing.T) {
	path := writeProg(t, testProg)
	out, err := capture(t, func() error { return run([]string{"dot", path}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "digraph") {
		t.Errorf("dot output = %q", out)
	}
}

func TestCmdErrors(t *testing.T) {
	path := writeProg(t, testProg)
	cases := [][]string{
		{"nonsense"},
		{"run"},
		{"run", "/does/not/exist"},
		{"run", path, "notanumber"},
		{"instrument"},
		{"instrument", "-policy", "bogus", path},
		{"instrument", "-variant", "bogus", path},
		{"certify"},
		{"check", "-domain", "x", path},
		{"dot"},
		{"specialize"},
	}
	for _, args := range cases {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestCmdPolicyAll(t *testing.T) {
	path := writeProg(t, testProg)
	out, err := capture(t, func() error {
		return run([]string{"check", "-policy", "all", "-domain", "0,1", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "SOUND") {
		t.Errorf("allow-all check = %q", out)
	}
}

func TestUsage(t *testing.T) {
	if err := run(nil); err != nil {
		t.Errorf("bare invocation should print usage without error: %v", err)
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help: %v", err)
	}
}

// TestUsageListsEveryFlag pins `spm help` and the package comment's
// Usage block to the flag sets: every flag a subcommand defines appears
// on its usage line, and the two lists are the same lines.
func TestUsageListsEveryFlag(t *testing.T) {
	lines := map[string]string{}
	var sub string
	for _, line := range strings.Split(usageText, "\n")[1:] {
		if f := strings.Fields(line); f[0] == "spm" {
			sub = f[1]
		}
		lines[sub] += line + "\n"
	}
	flagName := regexp.MustCompile(`(?m)^  -(\S+)`)
	for sub, line := range lines {
		if sub == "dot" {
			continue // no flags; -h would be read as the file name
		}
		help, err := captureFile(t, &os.Stderr, func() error { return run([]string{sub, "-h"}) })
		if !errors.Is(err, flag.ErrHelp) {
			t.Fatalf("%s -h: %v", sub, err)
		}
		for _, m := range flagName.FindAllStringSubmatch(help, -1) {
			if !regexp.MustCompile(`[\[ ]-` + regexp.QuoteMeta(m[1]) + `[\] ]`).MatchString(line) {
				t.Errorf("spm help's %s line lacks -%s:\n%s", sub, m[1], line)
			}
		}
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, line := range strings.Split(usageText, "\n")[1:] {
		want.WriteString("//\t" + strings.TrimPrefix(line, "  ") + "\n")
	}
	if !strings.Contains(string(src), "// Usage:\n//\n"+want.String()+"//\n") {
		t.Errorf("package comment's Usage block differs from usageText")
	}
}

func TestCmdSweep(t *testing.T) {
	path := writeProg(t, testProg)
	out, err := capture(t, func() error {
		return run([]string{"sweep", "-policy", "{2}", "-workers", "4", "-chunk", "2", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "SOUND") || !strings.Contains(out, "swept") {
		t.Errorf("sweep output = %q", out)
	}
}

func TestCmdSweepMaximalRaw(t *testing.T) {
	path := writeProg(t, testProg)
	// The bare program is its own maximal mechanism for allow(all).
	out, err := capture(t, func() error {
		return run([]string{"sweep", "-raw", "-policy", "all", "-domain", "0,1", "-maximal", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "MAXIMAL") {
		t.Errorf("sweep -maximal output = %q", out)
	}
	// On the p. 49 both-arms program surveillance is sound for allow(2)
	// but always reports Λ, so it must not check as maximal.
	path = writeProg(t, `
program botharms
inputs x1 x2
    if x1 == 0 goto A else B
A:  y := x2
    halt
B:  y := x2
    halt
`)
	out, err = capture(t, func() error {
		return run([]string{"sweep", "-policy", "{2}", "-maximal", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "NOT maximal") {
		t.Errorf("sweep -maximal (surveillance) output = %q", out)
	}
}

func TestCmdSweepErrors(t *testing.T) {
	path := writeProg(t, testProg)
	for _, args := range [][]string{
		{"sweep"},
		{"sweep", "-domain", "x", path},
		{"sweep", "-policy", "bogus", path},
		{"sweep", "-variant", "bogus", path},
	} {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
