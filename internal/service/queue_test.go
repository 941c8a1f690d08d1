package service

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestCloseDrainsQueuedJobs: Close runs every admitted job to a terminal
// state before it returns, with tenancy on as with it off, and later
// submissions are refused as busy.
func TestCloseDrainsQueuedJobs(t *testing.T) {
	for name, tenant := range map[string]TenantConfig{
		"tenancy off": {},
		"tenancy on":  {Rate: 1e9, Burst: 1 << 40},
	} {
		t.Run(name, func(t *testing.T) {
			s := New(Config{Runners: 1, SweepWorkers: 1, Tenant: tenant})
			var jobs []*Job
			for range 3 {
				req := slowRequest()
				req.Domain = req.Domain[:4]
				j, err := s.SubmitTenant(req, "acme")
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
			}
			s.Close()
			for _, j := range jobs {
				select {
				case <-j.Done():
				case <-time.After(10 * time.Second):
					t.Fatalf("job %s still %s after Close", j.ID, j.stateNow())
				}
				if st := j.stateNow(); st != StateDone {
					t.Errorf("job %s is %s, want done", j.ID, st)
				}
			}
			if got := s.Stats().Jobs; got.Done != 3 || got.Queued != 0 || got.Running != 0 {
				t.Errorf("job tallies after Close = %+v, want 3 done", got)
			}
			if _, err := s.SubmitTenant(slowRequest(), "acme"); !errors.Is(err, ErrBusy) {
				t.Errorf("submit after Close: %v, want ErrBusy", err)
			}
		})
	}
}

// TestSubmitBusyWhenQueueFull: Runners running jobs plus QueueCap
// waiting ones is the service's exact capacity; the next submission gets
// ErrBusy, which HTTP maps to 503 with Retry-After.
func TestSubmitBusyWhenQueueFull(t *testing.T) {
	const runners, queueCap = 2, 3
	svc, srv := newTestServer(t, Config{Runners: runners, QueueCap: queueCap, SweepWorkers: 1})
	var jobs []*Job
	defer func() {
		for _, j := range jobs {
			svc.Cancel(j.ID)
		}
	}()
	submit := func() error {
		j, err := svc.Submit(slowRequest())
		if err == nil {
			jobs = append(jobs, j)
		}
		return err
	}

	// Occupy every runner first so the queue's occupancy is exact.
	for i := range runners {
		if err := submit(); err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	for _, j := range jobs {
		waitState(t, j, StateRunning, 10*time.Second)
	}
	for i := range queueCap {
		if err := submit(); err != nil {
			t.Fatalf("fill submission %d: %v", i, err)
		}
	}
	if err := submit(); !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	if q := svc.Stats().Queue; q.Depth != queueCap || q.Peak != queueCap {
		t.Errorf("queue stats = %+v, want depth and peak %d", q, queueCap)
	}

	resp, err := http.Post(srv.URL+"/v2/check", "application/json", strings.NewReader(marshalReq(t, slowRequest())))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("HTTP submit to a full queue: %s, Retry-After %q; want 503 with Retry-After",
			resp.Status, resp.Header.Get("Retry-After"))
	}
}

// TestLoadgenConcurrentLoad drives 64 concurrent closed-loop clients of
// mixed check/maximality jobs through a served instance at the default
// config: every job succeeds, the compile cache answers all but the
// first, trace spans yield queue-wait samples, and the queue never holds
// more than its bound.
func TestLoadgenConcurrentLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	const (
		concurrency = 64
		jobs        = 256
	)
	svc := New(Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// A domain big enough (16k tuples/pass) that jobs outlast the submit
	// path, so the queue genuinely builds.
	values := make([]int64, 128)
	for i := range values {
		values[i] = int64(i)
	}
	rep, err := Loadgen(LoadgenConfig{
		BaseURL:      srv.URL,
		Jobs:         jobs,
		Concurrency:  concurrency,
		MaximalEvery: 4,
		Request: CheckRequest{
			Program: testProg,
			Policy:  "{2}",
			Domain:  values,
		},
		Client: srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d/%d jobs failed", rep.Failed, rep.Jobs)
	}
	if rep.CacheHits < jobs-2 {
		t.Errorf("cache hits = %d, want ≥ %d (identical submissions)", rep.CacheHits, jobs-2)
	}
	// Every job dispatched (no store), so the trace-sourced queue-wait
	// column must be populated. The tracer retains more jobs than this
	// run submits, so eviction cannot explain an empty column.
	if rep.TracedJobs == 0 {
		t.Error("no queue-wait samples from trace spans")
	}
	if q := svc.Stats().Queue; q.Peak > svc.Config().QueueCap {
		t.Errorf("queue peak %d exceeds its bound %d", q.Peak, svc.Config().QueueCap)
	}
	t.Logf("loadgen: %s", rep)
	t.Logf("queue: %+v", svc.Stats().Queue)
}
