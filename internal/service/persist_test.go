package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"spm/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

// storedService builds a service on the given store directory. Closed via
// t.Cleanup in reverse order: service first, then its store.
func storedService(t *testing.T, dir string, cfg Config) *Service {
	t.Helper()
	st := openStore(t, dir)
	t.Cleanup(func() { st.Close() })
	cfg.Store = st
	return newTestService(t, cfg)
}

// stripTiming zeroes the fields that legitimately differ between two runs
// of the same check.
func stripTiming(r *Result) Result {
	c := *r
	c.ElapsedSeconds = 0
	c.InputsPerSec = 0
	return c
}

func TestVerdictCacheHit(t *testing.T) {
	s := storedService(t, t.TempDir(), Config{Runners: 1})
	req := CheckRequest{Program: testProg, Policy: "{2}", Maximal: true, Domain: []int64{0, 1, 2}}

	j1, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st1 := waitJob(t, j1)
	if st1.State != StateDone || st1.CachedVerdict {
		t.Fatalf("cold job: %+v", st1)
	}

	j2, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st2 := j2.Status() // no wait: a verdict hit is born done
	if st2.State != StateDone || !st2.CachedVerdict {
		t.Fatalf("repeat job not served from the store: %+v", st2)
	}
	if !reflect.DeepEqual(stripTiming(st2.Result), stripTiming(st1.Result)) {
		t.Errorf("stored verdict differs from computed one:\n  %+v\nvs\n  %+v", st2.Result, st1.Result)
	}
	if st2.Progress.Done != st2.Progress.Total {
		t.Errorf("cached job progress = %+v, want complete", st2.Progress)
	}

	stats := s.Stats()
	if stats.Store == nil || stats.Store.VerdictHits != 1 || stats.Store.Verdicts != 1 {
		t.Errorf("store stats = %+v, want one verdict and one hit", stats.Store)
	}

	// A different shard of the same check is not a hit.
	sharded := req
	sharded.Offset, sharded.Count = 0, 9
	j3, err := s.Submit(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if st3 := waitJob(t, j3); st3.CachedVerdict {
		t.Error("sharded variant wrongly served from whole-domain verdict")
	}
}

func TestVerdictSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1, 2}}

	st := openStore(t, dir)
	s1 := New(Config{Runners: 1, Store: st})
	j1, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	first := waitJob(t, j1)
	s1.Close()
	st.Close()

	s2 := storedService(t, dir, Config{Runners: 1})
	j2, err := s2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st2 := j2.Status()
	if !st2.CachedVerdict {
		t.Fatalf("verdict did not survive restart: %+v", st2)
	}
	if st2.Cached {
		t.Error("first submission after restart reports a compile-cache hit; the cache is empty")
	}
	if !reflect.DeepEqual(stripTiming(st2.Result), stripTiming(first.Result)) {
		t.Errorf("restarted verdict differs:\n  %+v\nvs\n  %+v", st2.Result, first.Result)
	}
	j3, err := s2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st3 := j3.Status(); !st3.CachedVerdict || !st3.Cached {
		t.Errorf("repeat submission = %+v, want a verdict-store and a compile-cache hit", st3)
	}
}

// TestCrashResume is the in-process restart-resume differential: run a
// job to a known checkpoint, abandon the service without clearing the
// pending record (a crash), restart on the same store directory, and
// require the resumed job — same ID — to finish with the verdict an
// uninterrupted run produces. The two cases have their own store
// directories and services, so they run in parallel.
func TestCrashResume(t *testing.T) {
	for _, maximal := range []bool{false, true} {
		t.Run(fmt.Sprintf("maximal=%t", maximal), func(t *testing.T) {
			t.Parallel()
			req := slowRequest()
			req.Maximal = maximal

			// Reference: uninterrupted run at one sweep worker; the crashed
			// and resumed runs lend themselves idle CPUs, and the verdict must
			// not change.
			ref := storedService(t, t.TempDir(), Config{Runners: 1, SweepWorkers: 1})
			rj, err := ref.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			want := waitJob(t, rj)
			if want.State != StateDone {
				t.Fatalf("reference run: %+v", want)
			}

			// The crash: tiny checkpoint interval, and once the sweep is past
			// its second checkpoint, the store is closed out from under the
			// service — from here on no write lands, exactly like a power
			// cut, so the pending record and its last checkpoint survive
			// while the job's own terminal bookkeeping is lost.
			dir2 := t.TempDir()
			st2 := openStore(t, dir2)
			s2 := New(Config{Runners: 1, Store: st2, CheckpointEvery: 32})
			j2, err := s2.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(20 * time.Second)
			for j2.Progress() < 80 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			st2.Close()
			j2.cancel()
			<-j2.Done()
			s2.Close()

			// Restart on the same directory: the job must come back pending,
			// under its original ID, and run to the reference verdict.
			s3 := storedService(t, dir2, Config{Runners: 1, CheckpointEvery: 32})
			j3, err := s3.Job(j2.ID)
			if err != nil {
				t.Fatalf("resumed job %s not found after restart: %v", j2.ID, err)
			}
			got := waitJob(t, j3)
			if got.State != StateDone {
				t.Fatalf("maximal=%t: resumed job: state %s, error %q", maximal, got.State, got.Error)
			}
			if got.Progress.Done < j3.Total {
				t.Errorf("maximal=%t: resumed progress %+v incomplete", maximal, got.Progress)
			}
			if !reflect.DeepEqual(stripTiming(got.Result), stripTiming(want.Result)) {
				t.Errorf("maximal=%t: resumed verdict differs from uninterrupted run:\n  %+v\nvs\n  %+v",
					maximal, stripTiming(got.Result), stripTiming(want.Result))
			}
			if s3.Stats().Store.ResumedJobs != 1 {
				t.Errorf("maximal=%t: resumed-jobs counter = %+v", maximal, s3.Stats().Store)
			}
		})
	}
}

// TestTwoPhaseCheckpointRestarts pins how a job resumes from a checkpoint
// of the older two-phase format, which swept a maximal job twice:
// soundness ("phase":"sound"), then maximality ("phase":"max", with the
// finished soundness verdict beside it). The files under testdata are the
// records that format wrote at cursor 32 of the job below, checkpointing
// every 16 tuples. Each must restart the job's one pass from cursor 0 and
// end at the uninterrupted verdict, byte for byte. The job's least
// conflict lies in the first 32 tuples, and the "max" record holds no
// soundness evidence for them, so resuming it from its cursor would give
// a soundness verdict over the suffix alone.
func TestTwoPhaseCheckpointRestarts(t *testing.T) {
	req := CheckRequest{Program: testProg, Policy: "{2}", Raw: true, Maximal: true, Domain: []int64{0, 1, 2, 3, 4, 5, 6, 7}}
	ref := storedService(t, t.TempDir(), Config{Runners: 1})
	rj, err := ref.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	want := waitJob(t, rj)
	if want.State != StateDone || want.Result.Sound {
		t.Fatalf("reference run: %+v", want)
	}
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"sound", "max"} {
		t.Run(phase, func(t *testing.T) {
			ck, err := os.ReadFile(filepath.Join("testdata", "checkpoint-two-phase-"+phase+".json"))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			st := openStore(t, dir)
			if err := st.PutPending(store.Pending{ID: "job-7", Key: store.Key{Fingerprint: "two-phase"}, Payload: payload}); err != nil {
				t.Fatal(err)
			}
			if err := st.Checkpoint("job-7", ck, 32); err != nil {
				t.Fatal(err)
			}
			st.Close()

			s := storedService(t, dir, Config{Runners: 1, CheckpointEvery: 16})
			j, err := s.Job("job-7")
			if err != nil {
				t.Fatalf("two-phase job not resumed: %v", err)
			}
			got := waitJob(t, j)
			if got.State != StateDone {
				t.Fatalf("resumed job: state %s, error %q", got.State, got.Error)
			}
			if j.Total != 64 || got.Progress.Done != 64 {
				t.Errorf("resumed job progress %+v, want 64/64", got.Progress)
			}
			if !reflect.DeepEqual(stripTiming(got.Result), stripTiming(want.Result)) {
				t.Errorf("resumed verdict differs from uninterrupted run:\n  %+v\nvs\n  %+v",
					stripTiming(got.Result), stripTiming(want.Result))
			}
			td, _ := s.JobTrace(j.ID)
			for _, e := range td.Events {
				if e.Name == "resume" {
					t.Errorf("two-phase checkpoint resumed from its cursor: %s", e.Detail)
				}
			}
		})
	}
}

// TestResumeSkipsSweptPrefix pins that a resume actually reuses the
// checkpoint rather than re-sweeping: the resumed run's own progress
// delta stays below the full total.
func TestResumeSkipsSweptPrefix(t *testing.T) {
	req := slowRequest()
	req.Policy = "{2}"

	dir := t.TempDir()
	st := openStore(t, dir)
	s1 := New(Config{Runners: 1, SweepWorkers: 1, Store: st, CheckpointEvery: 32})
	j1, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// Let it pass at least two checkpoints (64 tuples of 256).
	deadline := time.Now().Add(20 * time.Second)
	for j1.Progress() < 80 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st.Close()
	j1.cancel()
	<-j1.Done()
	s1.Close()

	s2 := storedService(t, dir, Config{Runners: 1, SweepWorkers: 1, CheckpointEvery: 32})
	j2, err := s2.Job(j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The resumed job's progress starts at its checkpoint, not zero.
	if p := j2.Progress(); p < 32 {
		t.Errorf("resumed job progress starts at %d, want ≥ one checkpoint", p)
	}
	got := waitJob(t, j2)
	if got.State != StateDone {
		t.Fatalf("resumed job: %+v", got)
	}
}

func TestCancelledJobIsNotResumed(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s1 := New(Config{Runners: 1, SweepWorkers: 1, Store: st, CheckpointEvery: 32})
	j, err := s1.Submit(slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning, 10*time.Second)
	if _, err := s1.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	s1.Close()
	st.Close()

	s2 := storedService(t, dir, Config{Runners: 1})
	if _, err := s2.Job(j.ID); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("cancelled job resurrected after restart: %v", err)
	}
	if n := s2.Stats().Jobs.Queued + s2.Stats().Jobs.Running; n != 0 {
		t.Errorf("restart re-enqueued %d jobs from a clean store", n)
	}
}

func TestFreshJobIDsDoNotCollideWithResumed(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	// One runner per job, so all three start at once: waiting for the last
	// to run does not wait for the other two to finish, however loaded
	// the machine is.
	s1 := New(Config{Runners: 3, SweepWorkers: 1, Store: st, CheckpointEvery: 32})
	var last *Job
	for i := 0; i < 3; i++ {
		j, err := s1.Submit(slowRequest())
		if err != nil {
			t.Fatal(err)
		}
		last = j
	}
	waitState(t, last, StateRunning, 10*time.Second)
	st.Close() // crash with job-1..job-3 pending
	for i := 1; i <= 3; i++ {
		if j, err := s1.Job("job-" + string(rune('0'+i))); err == nil {
			j.cancel()
		}
	}
	s1.Close()

	s2 := storedService(t, dir, Config{Runners: 1, SweepWorkers: 1})
	fresh, err := s2.Submit(CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		id := "job-" + string(rune('0'+i))
		if fresh.ID == id {
			t.Fatalf("fresh job reused resumed ID %s", id)
		}
		if _, err := s2.Job(id); err != nil {
			t.Errorf("%s not resumed: %v", id, err)
		}
		s2.Cancel(id) // the service's cleanup need not sweep them
	}
}
