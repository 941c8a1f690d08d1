package service

import (
	"errors"
	"testing"
	"time"
)

// slowProg spins a counted loop before producing output, making every
// domain tuple expensive enough that a sweep over a few hundred tuples
// stays observably "running" long enough to cancel. The trip count reads
// x2 so the prefix-memoized fast path cannot hoist the loop out of the
// innermost axis — every tuple must pay it.
const slowProg = `
program slow
inputs x1 x2
    r := 100000 + (x2 & 1)
Loop: if r == 0 goto Done else Body
Body: r := r - 1
      goto Loop
Done: y := x2
      halt
`

// slowRequest sweeps slowProg over a 256-tuple grid: several hundred
// milliseconds of work on one sweep worker, cancellable at every chunk.
func slowRequest() CheckRequest {
	return CheckRequest{
		Program: slowProg,
		Policy:  "{2}",
		Raw:     true,
		Domain:  []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
	}
}

// waitState polls a job until it reaches want, failing at the deadline.
func waitState(t *testing.T, j *Job, want State, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for j.stateNow() != want {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", j.ID, j.stateNow(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCancelRunningJobFreesPoolSlot(t *testing.T) {
	s := newTestService(t, Config{Runners: 1, SweepWorkers: 1})
	slow, err := s.Submit(slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, slow, StateRunning, 10*time.Second)

	// Queue a second job behind the slow one on the single runner; it can
	// only run if cancellation actually frees the slot.
	quick, err := s.Submit(CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.Cancel(slow.ID); err != nil {
		t.Fatalf("cancel running job: %v", err)
	}
	st := waitJob(t, slow)
	if st.State != StateCancelled {
		t.Fatalf("cancelled job state = %q, want cancelled", st.State)
	}
	if st.Result != nil {
		t.Error("cancelled job carries a result")
	}
	if st.Progress.Done >= st.Progress.Total {
		t.Errorf("cancelled job swept %d/%d tuples — it ran to completion", st.Progress.Done, st.Progress.Total)
	}

	if qst := waitJob(t, quick); qst.State != StateDone {
		t.Fatalf("job behind the cancelled one ended %q, want done", qst.State)
	}

	jobs := s.Stats().Jobs
	if jobs.Cancelled != 1 || jobs.Done != 1 || jobs.Failed != 0 {
		t.Errorf("job tallies = %+v, want 1 cancelled, 1 done, 0 failed", jobs)
	}
	// Second Cancel on an already-cancelled job is an idempotent success.
	if _, err := s.Cancel(slow.ID); err != nil {
		t.Errorf("re-cancel of cancelled job: %v", err)
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	s := newTestService(t, Config{Runners: 1, SweepWorkers: 1})
	slow, err := s.Submit(slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, slow, StateRunning, 10*time.Second)
	queued, err := s.Submit(slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	if got := queued.stateNow(); got != StateQueued {
		t.Fatalf("second job behind the busy runner is %q, want queued", got)
	}

	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatalf("cancel queued job: %v", err)
	}
	// The transition is immediate: no runner ever picks the job up.
	select {
	case <-queued.Done():
	default:
		t.Fatal("queued job not terminal immediately after cancel")
	}
	if st := queued.Status(); st.State != StateCancelled || st.Progress.Done != 0 {
		t.Fatalf("queued-cancelled job status = %+v, want cancelled with zero progress", st)
	}

	// Unblock the runner and let Close drain: the skipped job must not run.
	if _, err := s.Cancel(slow.ID); err != nil {
		t.Fatal(err)
	}
	waitJob(t, slow)
	if got := queued.Progress(); got != 0 {
		t.Errorf("cancelled-while-queued job swept %d tuples", got)
	}
	if jobs := s.Stats().Jobs; jobs.Cancelled != 2 || jobs.Queued != 0 || jobs.Running != 0 {
		t.Errorf("job tallies = %+v, want 2 cancelled and no occupancy", jobs)
	}
}

// TestCancelQueuedJobSettlesBeforeDone pins the order on the queued path:
// a caller that waits on Done of a job another goroutine cancels while it
// is queued reads Stats that already count the cancellation. Each round
// cancels one more queued job behind the running one.
func TestCancelQueuedJobSettlesBeforeDone(t *testing.T) {
	s := newTestService(t, Config{Runners: 1, SweepWorkers: 1})
	slow, err := s.Submit(slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, slow, StateRunning, 10*time.Second)
	for round := int64(1); round <= 20; round++ {
		queued, err := s.Submit(slowRequest())
		if err != nil {
			t.Fatal(err)
		}
		cancelled := make(chan struct{})
		go func() {
			defer close(cancelled)
			if _, err := s.Cancel(queued.ID); err != nil {
				t.Errorf("cancel queued job: %v", err)
			}
		}()
		<-queued.Done()
		if jobs := s.Stats().Jobs; jobs.Cancelled != round || jobs.Queued != 0 {
			t.Errorf("round %d: job tallies right after Done = %+v, want %d cancelled and none queued", round, jobs, round)
		}
		<-cancelled
	}
	if _, err := s.Cancel(slow.ID); err != nil {
		t.Fatal(err)
	}
	waitJob(t, slow)
}

func TestCancelErrors(t *testing.T) {
	s := newTestService(t, Config{Runners: 1})
	if _, err := s.Cancel("job-404"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("cancel unknown: err = %v, want ErrUnknownJob", err)
	}
	j, err := s.Submit(CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if _, err := s.Cancel(j.ID); !errors.Is(err, ErrJobTerminal) {
		t.Errorf("cancel finished: err = %v, want ErrJobTerminal", err)
	}
}

// TestLoadgenDeadlineCancelsServerSide drives the closed loop against a
// server whose jobs cannot meet the per-job deadline and asserts the
// deadline path cancels them server-side: the report counts them as
// cancelled (not failed) and the service's tallies agree.
func TestLoadgenDeadlineCancelsServerSide(t *testing.T) {
	svc, srv := newTestServer(t, Config{Runners: 1, SweepWorkers: 1})
	rep, err := Loadgen(LoadgenConfig{
		BaseURL:     srv.URL,
		Jobs:        3,
		Concurrency: 1,
		Request:     slowRequest(),
		JobTimeout:  50 * time.Millisecond,
		Client:      srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cancelled == 0 {
		t.Fatalf("report = %+v: no jobs cancelled at a 50ms deadline", rep)
	}
	if rep.Failed != 0 {
		t.Errorf("report counts %d deadline jobs as failed; cancellations are not failures", rep.Failed)
	}
	// The cancels must have reached the server, not just abandoned the
	// client-side wait. Cancellation is async for running jobs; give the
	// sweep a moment to observe it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		jobs := svc.Stats().Jobs
		if jobs.Cancelled >= int64(rep.Cancelled) && jobs.Running == 0 && jobs.Queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server tallies %+v never caught up to %d client cancels", jobs, rep.Cancelled)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
