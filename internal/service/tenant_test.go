package service

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable bucket clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestTenantQuotaRejectsAndRefills(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	s := newTestService(t, Config{Runners: 1, Tenant: TenantConfig{
		Rate:  100, // tuples per second
		Burst: 10,
		Now:   clk.Now,
	}})
	// testProg has two inputs: domain {0,1,2} is a 9-tuple sweep.
	req := CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1, 2}}

	j, err := s.SubmitTenant(req, "acme")
	if err != nil {
		t.Fatalf("first submission within burst rejected: %v", err)
	}
	waitJob(t, j)

	// 1 token left: the second submission must bounce with a retry hint.
	_, err = s.SubmitTenant(req, "acme")
	if !errors.Is(err, ErrOverQuota) {
		t.Fatalf("over-burst submission: %v, want ErrOverQuota", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("error %v is not a QuotaError", err)
	}
	if qe.Tenant != "acme" || qe.RetryAfter <= 0 {
		t.Errorf("QuotaError = %+v, want tenant acme with positive RetryAfter", qe)
	}
	// At 100 tuples/s the 8 missing tokens take 80ms.
	if qe.RetryAfter > time.Second {
		t.Errorf("RetryAfter = %s, want ≈80ms", qe.RetryAfter)
	}

	// Other tenants have their own bucket.
	if j2, err := s.SubmitTenant(req, "globex"); err != nil {
		t.Errorf("independent tenant rejected: %v", err)
	} else {
		waitJob(t, j2)
	}

	// After the bucket refills, the same tenant admits again.
	clk.Advance(time.Second)
	j3, err := s.SubmitTenant(req, "acme")
	if err != nil {
		t.Fatalf("post-refill submission rejected: %v", err)
	}
	waitJob(t, j3)

	stats := s.Stats().Tenants
	if len(stats) != 2 {
		t.Fatalf("tenant stats = %+v, want two tenants", stats)
	}
	acme := stats[0]
	if acme.Tenant != "acme" || acme.Admitted != 2 || acme.Rejected != 1 || acme.TuplesAdmitted != 18 {
		t.Errorf("acme stats = %+v, want 2 admitted / 1 rejected / 18 tuples", acme)
	}
}

// TestTenantJobLargerThanBurst pins the drain-don't-starve rule: a job
// bigger than the bucket is admitted against a full bucket rather than
// rejected forever.
func TestTenantJobLargerThanBurst(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	s := newTestService(t, Config{Runners: 1, Tenant: TenantConfig{Rate: 1000, Burst: 5, Now: clk.Now}})
	req := CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1, 2}} // 9 tuples > burst 5
	j, err := s.SubmitTenant(req, "acme")
	if err != nil {
		t.Fatalf("over-burst-sized job rejected: %v", err)
	}
	waitJob(t, j)
	// The full bucket was drained: an immediate follow-up bounces.
	if _, err := s.SubmitTenant(req, "acme"); !errors.Is(err, ErrOverQuota) {
		t.Errorf("follow-up after drain: %v, want ErrOverQuota", err)
	}
}

// TestTenantDRRFairness pins the fairness property at the default
// config: a light tenant's job submitted behind a heavy tenant's flood
// starts among the first Runners+1 jobs — deficit-round-robin pops it at
// the next free runner instead of serving arrival order. The first heavy
// job is the shortest, so the runner that frees first frees alone and the
// order of the dispatch spans is the order of the pops.
func TestTenantDRRFairness(t *testing.T) {
	s := newTestService(t, Config{Tenant: TenantConfig{Rate: 1e9, Burst: 1 << 40}})
	runners := s.Config().Runners

	var heavy []*Job
	for i := range runners + 3 {
		req := slowRequest()
		req.Domain = req.Domain[:8]
		if i == 0 {
			req.Domain = req.Domain[:4]
		}
		j, err := s.SubmitTenant(req, "heavy")
		if err != nil {
			t.Fatal(err)
		}
		heavy = append(heavy, j)
	}
	req := slowRequest()
	req.Domain = req.Domain[:8]
	light, err := s.SubmitTenant(req, "light")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	lightAt, ok := dispatchedAt(s, light.ID)
	for ; !ok; lightAt, ok = dispatchedAt(s, light.ID) {
		if time.Now().After(deadline) {
			t.Fatal("light job never dispatched")
		}
		time.Sleep(time.Millisecond)
	}
	before := 0
	for _, j := range heavy {
		if at, ok := dispatchedAt(s, j.ID); ok && at.Before(lightAt) {
			before++
		}
	}
	if before > runners {
		t.Errorf("%d heavy jobs dispatched before the light one with %d runners: DRR did not interleave", before, runners)
	}
	for _, j := range append(heavy, light) {
		s.Cancel(j.ID)
	}
}

// dispatchedAt returns when a runner started the job, from its trace's
// dispatch span.
func dispatchedAt(s *Service, id string) (time.Time, bool) {
	td, _ := s.JobTrace(id)
	for _, e := range td.Events {
		if e.Name == "dispatch" {
			return td.Start.Add(e.At), true
		}
	}
	return time.Time{}, false
}

func TestTenantBacklogFull(t *testing.T) {
	s := newTestService(t, Config{
		Runners: 1, QueueCap: 2, SweepWorkers: 1,
		Tenant: TenantConfig{Rate: 1e9, Burst: 1 << 40},
	})
	// Capacity per tenant: at most 1 running + 2 backlogged; the rest of
	// 7 submissions must bounce with ErrBusy, while another tenant's
	// backlog still admits.
	var jobs []*Job
	busy := 0
	for i := 0; i < 7; i++ {
		j, err := s.SubmitTenant(slowRequest(), "acme")
		switch {
		case err == nil:
			jobs = append(jobs, j)
		case errors.Is(err, ErrBusy):
			busy++
		default:
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	if busy < 4 {
		t.Errorf("%d of 7 submissions hit the backlog bound, want ≥ 4", busy)
	}
	other, err := s.SubmitTenant(slowRequest(), "globex")
	if err != nil {
		t.Errorf("another tenant's backlog rejected: %v", err)
	} else {
		jobs = append(jobs, other)
	}
	for _, j := range jobs {
		s.Cancel(j.ID)
	}
}

func TestTenantsDisabledByDefault(t *testing.T) {
	s := newTestService(t, Config{Runners: 1})
	j, err := s.SubmitTenant(CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1}}, "acme")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if stats := s.Stats(); stats.Tenants != nil {
		t.Errorf("tenant stats present with tenancy disabled: %+v", stats.Tenants)
	}
}
