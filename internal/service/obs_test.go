package service

import (
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"spm/internal/obs"
)

// TestMetricsExposition pins the /v2/metrics surface end to end: after a
// few jobs have run, the endpoint must serve valid Prometheus text
// exposition (obs.ParseExposition validates the histogram invariants)
// covering the scheduler, cache, store, memo, batch, and sweep layers.
func TestMetricsExposition(t *testing.T) {
	s := storedService(t, t.TempDir(), Config{Runners: 2, SweepWorkers: 1})
	h := s.Handler()

	for _, req := range []CheckRequest{
		{Program: testProg, Policy: "{2}", Domain: []int64{0, 1, 2}},
		{Program: testProg, Policy: "{2}", Maximal: true, Domain: []int64{0, 1, 2}},
	} {
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitJob(t, j); st.State != StateDone {
			t.Fatalf("job ended %q: %+v", st.State, st)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v2/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /v2/metrics = %d: %s", rec.Code, rec.Body.String())
	}
	fams, err := obs.ParseExposition(rec.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}

	counter := func(name string) float64 {
		t.Helper()
		f := fams[name]
		if f == nil {
			t.Fatalf("metric %q missing from exposition", name)
		}
		v, ok := f.Get(nil)
		if !ok {
			t.Fatalf("metric %q has no unlabeled sample", name)
		}
		return v
	}
	if got := counter("spm_jobs_done_total"); got < 2 {
		t.Errorf("spm_jobs_done_total = %v, want >= 2", got)
	}
	if counter("spm_compile_cache_hits_total")+counter("spm_compile_cache_misses_total") < 2 {
		t.Error("compile cache counters do not cover the submissions")
	}
	if counter("spm_stack_full_total") == 0 {
		t.Error("no snapshot-stack recordings surfaced — the execution tally is not wired")
	}
	if counter("spm_stack_full_total")+counter("spm_stack_replays_total")+
		counter("spm_stack_constants_total")+counter("spm_stack_rowhits_total") < 18 {
		t.Error("stack answers do not cover the swept tuples")
	}
	// 2-ary testProg over {0,1,2} is 9 tuples; maximal adds one pass.
	if got := counter("spm_sweep_tuples_total"); got < 18 {
		t.Errorf("spm_sweep_tuples_total = %v, want >= 18", got)
	}
	if counter("spm_store_lookups_total") == 0 {
		t.Error("store lookups not surfaced")
	}
	for _, name := range []string{"spm_batch_strides_total", "spm_memo_captures_total",
		"spm_stack_replay_depth", "spm_jobs_queued",
		"spm_jobs_running", "spm_store_verdicts"} {
		if fams[name] == nil {
			t.Errorf("metric %q missing from exposition", name)
		}
	}

	wait := fams["spm_job_queue_wait_seconds"]
	if wait == nil {
		t.Fatal("queue-wait histogram missing")
	}
	total := 0.0
	for _, sm := range wait.Samples {
		if sm.Name == "spm_job_queue_wait_seconds_count" {
			total += sm.Value
		}
	}
	if total < 2 {
		t.Errorf("queue-wait histogram observed %v jobs, want >= 2", total)
	}
	run := fams["spm_job_run_seconds"]
	if run == nil {
		t.Fatal("run-duration histogram missing")
	}
	if fams["spm_queue_depth"] == nil || fams["spm_queue_peak"] == nil {
		t.Error("run-queue gauges missing")
	}
}

// TestTraceTimeline pins the trace span contract: a finished job's
// timeline runs submit → compile → queue → dispatch → sweep → ... →
// merge → done with non-decreasing offsets, and the /v2/jobs/{id}/trace
// endpoint serves it.
func TestTraceTimeline(t *testing.T) {
	s := newTestService(t, Config{Runners: 1, SweepWorkers: 1})
	j, err := s.Submit(CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j); st.State != StateDone {
		t.Fatalf("job ended %q", st.State)
	}

	td, ok := s.JobTrace(j.ID)
	if !ok {
		t.Fatal("no trace recorded for finished job")
	}
	want := []string{"submit", "compile", "queue", "dispatch", "sweep", "sound", "merge", "done"}
	pos := 0
	var last time.Duration
	for _, e := range td.Events {
		if e.At < last {
			t.Errorf("event %q at %v precedes previous event at %v", e.Name, e.At, last)
		}
		last = e.At
		if pos < len(want) && e.Name == want[pos] {
			pos++
		}
	}
	if pos != len(want) {
		t.Errorf("timeline missing %q (events: %+v)", want[pos], td.Events)
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v2/jobs/"+j.ID+"/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("GET trace = %d: %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v2/jobs/nope/trace", nil))
	if rec.Code != 404 {
		t.Fatalf("GET unknown trace = %d, want 404", rec.Code)
	}
}

// TestTraceCancelledJob asserts a cancelled running job's timeline ends
// with the cancel request followed by the cancelled terminal event, in
// order.
func TestTraceCancelledJob(t *testing.T) {
	s := newTestService(t, Config{Runners: 1, SweepWorkers: 1})
	j, err := s.Submit(slowRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning, 10*time.Second)
	if _, err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j); st.State != StateCancelled {
		t.Fatalf("job ended %q, want cancelled", st.State)
	}
	td, ok := s.JobTrace(j.ID)
	if !ok {
		t.Fatal("no trace for cancelled job")
	}
	cancelAt, cancelledAt := time.Duration(-1), time.Duration(-1)
	for _, e := range td.Events {
		switch e.Name {
		case "cancel":
			cancelAt = e.At
		case "cancelled":
			cancelledAt = e.At
		case "done", "merge":
			t.Errorf("cancelled job recorded %q", e.Name)
		}
	}
	if cancelAt < 0 || cancelledAt < 0 {
		t.Fatalf("cancel events missing from timeline: %+v", td.Events)
	}
	if cancelledAt < cancelAt {
		t.Errorf("terminal event at %v precedes cancel request at %v", cancelledAt, cancelAt)
	}
}

// TestStatsUnderChurn hammers Stats, metrics scrapes, submits, and
// cancels concurrently (the race detector is the real assertion), then
// checks the lifecycle tallies balance once the dust settles.
func TestStatsUnderChurn(t *testing.T) {
	s := newTestService(t, Config{Runners: 2, SweepWorkers: 1, QueueCap: 8})

	const submitters = 4
	const perSubmitter = 6
	ids := make(chan string, submitters*perSubmitter)
	stop := make(chan struct{})

	var subWG sync.WaitGroup
	for g := 0; g < submitters; g++ {
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			for i := 0; i < perSubmitter; i++ {
				j, err := s.Submit(CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1, 2}})
				if err != nil {
					continue // busy is fine under churn
				}
				ids <- j.ID
			}
		}()
	}

	var auxWG sync.WaitGroup
	auxWG.Add(1)
	go func() { // canceller: races cancels against the runners
		defer auxWG.Done()
		for id := range ids {
			s.Cancel(id) //nolint:errcheck // terminal jobs are expected
		}
	}()
	for g := 0; g < 2; g++ {
		auxWG.Add(1)
		go func() { // readers: Stats and metrics scrapes throughout
			defer auxWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Stats()
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v2/metrics", nil))
			}
		}()
	}

	subWG.Wait()
	close(ids) // canceller drains the backlog and exits

	// Drain: every submitted job reaches a terminal state.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := s.Stats()
		if st.Jobs.Queued == 0 && st.Jobs.Running == 0 &&
			st.Jobs.Done+st.Jobs.Failed+st.Jobs.Cancelled > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("service did not drain: %+v", s.Stats().Jobs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	auxWG.Wait()

	st := s.Stats()
	if st.Jobs.Queued != 0 || st.Jobs.Running != 0 {
		t.Errorf("non-zero occupancy after drain: %+v", st.Jobs)
	}
	if st.Jobs.Failed != 0 {
		t.Errorf("%d jobs failed under churn", st.Jobs.Failed)
	}
}

// TestExecTallyDropsFinishedSweeps: the service-wide execution tally folds
// each finished sweep into running totals and drops its per-worker parts,
// so over a hundred jobs it never holds more parts than there are sweep
// workers running, and its counters still account for every tuple of
// every job (one snapshot-stack answer per tuple at width 1).
func TestExecTallyDropsFinishedSweeps(t *testing.T) {
	const runners, jobs = 2, 100
	s := newTestService(t, Config{Runners: runners, SweepWorkers: 1, SweepBatch: 1, QueueCap: jobs})
	tally := s.metrics.exec

	stop := make(chan struct{})
	peak := make(chan int)
	go func() {
		most := 0
		for {
			most = max(most, tally.Parts())
			select {
			case <-stop:
				peak <- most
				return
			default:
				runtime.Gosched()
			}
		}
	}()

	var want int64
	var submitted []*Job
	for i := range jobs {
		n := 2 + i%9
		dom := make([]int64, n)
		for v := range dom {
			dom[v] = int64(v)
		}
		j, err := s.Submit(CheckRequest{Program: testProg, Policy: "{2}", Domain: dom})
		if err != nil {
			t.Fatal(err)
		}
		submitted = append(submitted, j)
		want += int64(n * n)
	}
	for _, j := range submitted {
		if st := waitJob(t, j); st.State != StateDone {
			t.Fatalf("job ended %q: %+v", st.State, st)
		}
	}
	close(stop)
	if most := <-peak; most > runners {
		t.Errorf("tally held %d parts with %d sweep workers running", most, runners)
	}
	if n := tally.Parts(); n != 0 {
		t.Errorf("tally holds %d parts after every job finished", n)
	}
	c := tally.Counts()
	if got := c.StackFull + c.StackReplays + c.StackConstants + c.StackRowHits; got != want {
		t.Errorf("stack answers = %d, want %d, the jobs' tuples", got, want)
	}
}
