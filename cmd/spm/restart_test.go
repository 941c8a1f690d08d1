package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"spm/internal/obs"
	"spm/internal/service"
)

// slowServeProg spins a counted loop per tuple so a 256-tuple sweep at
// one worker stays running long enough to kill the server mid-job.
const slowServeProg = `
program slow
inputs x1 x2
    r := 100000 + (x2 & 1)
Loop: if r == 0 goto Done else Body
Body: r := r - 1
      goto Loop
Done: y := x2
      halt
`

func buildSpm(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "spm")
	cmd := exec.Command("go", "build", "-o", bin, "spm/cmd/spm")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building spm: %v\n%s", err, out)
	}
	return bin
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startServe launches the spm binary serving on addr with the given store
// directory and waits for the listener.
func startServe(t *testing.T, bin, addr, storeDir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, "serve", "-addr", addr, "-runners", "1", "-sweep-workers", "1",
		"-store", storeDir, "-checkpoint-every", "32")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err == nil {
			conn.Close()
			return cmd
		}
		if time.Now().After(deadline) {
			t.Fatalf("server at %s never came up", addr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func submitSlow(t *testing.T, base string) service.SubmitResponse {
	t.Helper()
	req := service.CheckRequest{
		Program: slowServeProg,
		Policy:  "{2}",
		Raw:     true,
		Domain:  []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v2/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub service.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	return sub
}

func getJob(base, id string) (service.JobStatus, error) {
	var st service.JobStatus
	resp, err := http.Get(base + "/v2/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func waitDone(t *testing.T, base, id string) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := getJob(base, id)
		if err == nil && st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal (last: %+v, err %v)", id, st, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// verdictBytes renders a result for byte-identity comparison, with the
// fields that legitimately vary between runs (timing) zeroed.
func verdictBytes(t *testing.T, st service.JobStatus) []byte {
	t.Helper()
	if st.Result == nil {
		t.Fatalf("job %s has no result: %+v", st.ID, st)
	}
	r := *st.Result
	r.ElapsedSeconds = 0
	r.InputsPerSec = 0
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// resumeCursor reads the cursor a resumed job restarted from: the detail
// of the "resume" event on its trace, or -1 when it has none (the job
// swept from tuple zero).
func resumeCursor(t *testing.T, base, id string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/v2/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace of %s: status %d", id, resp.StatusCode)
	}
	var td obs.TraceData
	if err := json.NewDecoder(resp.Body).Decode(&td); err != nil {
		t.Fatal(err)
	}
	for _, e := range td.Events {
		if e.Name != "resume" {
			continue
		}
		var cursor int64
		if _, err := fmt.Sscanf(e.Detail, "cursor=%d", &cursor); err != nil {
			t.Fatalf("resume event detail %q: %v", e.Detail, err)
		}
		return cursor
	}
	return -1
}

// TestServeKillRestartResume is the out-of-process restart-resume
// differential: kill -9 an `spm serve -store` mid-job, restart on the
// same store directory, and require the resumed job — same ID — to
// restart from its last checkpoint, not tuple zero, and to finish with a
// byte-identical verdict to an uninterrupted run.
func TestServeKillRestartResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a child process")
	}
	bin := buildSpm(t)

	// Reference: uninterrupted run on a throwaway store.
	refAddr := freeAddr(t)
	refCmd := startServe(t, bin, refAddr, t.TempDir())
	refSub := submitSlow(t, "http://"+refAddr)
	want := waitDone(t, "http://"+refAddr, refSub.ID)
	if want.State != service.StateDone {
		t.Fatalf("reference run ended %q: %+v", want.State, want)
	}
	refCmd.Process.Kill()
	refCmd.Wait()

	// The victim: same spec, killed without warning mid-sweep.
	storeDir := t.TempDir()
	addr := freeAddr(t)
	cmd := startServe(t, bin, addr, storeDir)
	sub := submitSlow(t, "http://"+addr)
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := getJob("http://"+addr, sub.ID)
		if err == nil && st.Progress.Done >= 80 {
			break // past at least two 32-tuple checkpoints
		}
		if err == nil && st.State.Terminal() {
			t.Fatalf("job finished before the kill (progress %+v); make the program slower", st.Progress)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached the kill point")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
		t.Fatal(err)
	}
	cmd.Wait()

	// Restart on the same store directory: the job resumes under its
	// original ID and completes with the reference verdict.
	addr2 := freeAddr(t)
	startServe(t, bin, addr2, storeDir)
	got := waitDone(t, "http://"+addr2, sub.ID)
	if got.State != service.StateDone {
		t.Fatalf("resumed job ended %q: %+v", got.State, got)
	}
	// The kill came after the checkpoints at 32 and 64 were written.
	if c := resumeCursor(t, "http://"+addr2, sub.ID); c < 64 {
		t.Errorf("resumed job restarted from cursor %d, want at least 64 (-1: no resume)", c)
	}
	if wantB, gotB := verdictBytes(t, want), verdictBytes(t, got); !bytes.Equal(wantB, gotB) {
		t.Errorf("resumed verdict differs from uninterrupted run:\n  %s\nvs\n  %s", gotB, wantB)
	}
}
