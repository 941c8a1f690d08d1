package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spm/internal/obs"
)

// LoadgenConfig drives Loadgen: a closed-loop generator where Concurrency
// clients each submit a job, poll it to completion, and immediately submit
// the next, until Jobs jobs have finished. MaximalEvery mixes maximality
// checks into the stream (every k-th job, 0 = never), exercising the
// service's heavier three-pass path alongside plain soundness checks.
type LoadgenConfig struct {
	BaseURL      string
	Jobs         int
	Concurrency  int
	MaximalEvery int
	Request      CheckRequest
	// Tenant is sent as the X-SPM-Tenant header on every submission;
	// empty means anonymous. Submissions rejected 429 by a tenant quota
	// are retried after the server's Retry-After, tallied in
	// QuotaRetries.
	Tenant string
	// PollInterval between job-status polls; default 2ms.
	PollInterval time.Duration
	// JobTimeout is the per-job deadline, bounding one job end to end
	// (submit retries, polling); default 60s. A submitted job that misses
	// it is cancelled server-side via DELETE /v2/jobs/{id} — freeing its
	// runner rather than abandoning it to grind on — and reported in
	// the cancelled column. Without the deadline a server that keeps
	// answering 503, or a non-spm endpoint answering 200 with an alien
	// body, would make the closed loop spin forever.
	JobTimeout time.Duration
	// Client overrides the HTTP client (tests pass the httptest client).
	Client *http.Client
}

// LoadgenReport summarises one loadgen run: end-to-end job latency
// percentiles (submit to terminal state, polling included — the latency a
// real client observes), the cache-hit count across submissions, and the
// jobs cancelled server-side at their deadline. Cancelled jobs are tallied
// separately from failures — deadline abandonment is a client decision,
// not a server fault — and their latencies are excluded from the
// percentiles so a slow tail does not masquerade as service time.
type LoadgenReport struct {
	Jobs         int           `json:"jobs"`
	Failed       int           `json:"failed"`
	Cancelled    int           `json:"cancelled"`
	Busy         int           `json:"busy_retries"`
	QuotaRetries int           `json:"quota_retries"`
	CacheHits    int           `json:"cache_hits"`
	VerdictHits  int           `json:"verdict_hits"`
	Concurrency  int           `json:"concurrency"`
	Elapsed      time.Duration `json:"elapsed_ns"`
	JobsPerSec   float64       `json:"jobs_per_sec"`
	P50          time.Duration `json:"p50_ns"`
	P90          time.Duration `json:"p90_ns"`
	P99          time.Duration `json:"p99_ns"`
	Max          time.Duration `json:"max_ns"`
	// Queue-wait percentiles, read from each job's trace span data (the
	// dispatch span's duration on GET /v2/jobs/{id}/trace): time spent
	// waiting for a runner, separating scheduling delay from sweep
	// time inside the end-to-end latency above. TracedJobs counts the
	// jobs that contributed — store-answered jobs never dispatch, and a
	// trace may already be evicted — so 0 means the column is absent,
	// not that waits were zero.
	TracedJobs int           `json:"traced_jobs,omitempty"`
	QWaitP50   time.Duration `json:"queue_wait_p50_ns,omitempty"`
	QWaitP90   time.Duration `json:"queue_wait_p90_ns,omitempty"`
	QWaitP99   time.Duration `json:"queue_wait_p99_ns,omitempty"`
}

// String renders the report for the CLI.
func (r *LoadgenReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadgen: %d jobs × %d clients in %v (%.0f jobs/s)\n",
		r.Jobs, r.Concurrency, r.Elapsed.Round(time.Millisecond), r.JobsPerSec)
	fmt.Fprintf(&b, "  latency p50 %v  p90 %v  p99 %v  max %v\n",
		r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond))
	if r.TracedJobs > 0 {
		fmt.Fprintf(&b, "  queue wait p50 %v  p90 %v  p99 %v  (%d traced jobs)\n",
			r.QWaitP50.Round(time.Microsecond), r.QWaitP90.Round(time.Microsecond),
			r.QWaitP99.Round(time.Microsecond), r.TracedJobs)
	}
	fmt.Fprintf(&b, "  cache hits %d/%d, verdict hits %d, failed %d, cancelled at deadline %d, busy retries %d, quota retries %d",
		r.CacheHits, r.Jobs, r.VerdictHits, r.Failed, r.Cancelled, r.Busy, r.QuotaRetries)
	return b.String()
}

// Loadgen fires cfg.Jobs check jobs at a running server and reports
// latency percentiles. It is the engine of `spm loadgen` and of the CI
// smoke test.
func Loadgen(cfg LoadgenConfig) (*LoadgenReport, error) {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 64
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Concurrency > cfg.Jobs {
		cfg.Concurrency = cfg.Jobs
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 2 * time.Millisecond
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 60 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	base := strings.TrimRight(cfg.BaseURL, "/")

	var (
		next        atomic.Int64
		cacheHits   atomic.Int64
		verdictHits atomic.Int64
		failed      atomic.Int64
		cancelled   atomic.Int64
		busy        atomic.Int64
		quota       atomic.Int64
		mu          sync.Mutex
		latencies   []time.Duration
		waits       []time.Duration
		firstErr    error
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(cfg.Jobs) {
					return
				}
				req := cfg.Request
				if cfg.MaximalEvery > 0 && i%int64(cfg.MaximalEvery) == 0 {
					req.Maximal = true
				}
				t0 := time.Now()
				ok, err := runOne(client, base, req, cfg.Tenant, cfg.PollInterval, t0.Add(cfg.JobTimeout), &busy, &quota)
				lat := time.Since(t0)
				mu.Lock()
				if !ok.cancelled {
					latencies = append(latencies, lat)
				}
				if ok.hasWait {
					waits = append(waits, ok.queueWait)
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				switch {
				case ok.cancelled:
					cancelled.Add(1)
				case err != nil || !ok.succeeded:
					failed.Add(1)
				}
				if ok.cached {
					cacheHits.Add(1)
				}
				if ok.verdictHit {
					verdictHits.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep := &LoadgenReport{
		Jobs:         cfg.Jobs,
		Failed:       int(failed.Load()),
		Cancelled:    int(cancelled.Load()),
		Busy:         int(busy.Load()),
		QuotaRetries: int(quota.Load()),
		CacheHits:    int(cacheHits.Load()),
		VerdictHits:  int(verdictHits.Load()),
		Concurrency:  cfg.Concurrency,
		Elapsed:      elapsed,
		P50:          percentile(latencies, 50),
		P90:          percentile(latencies, 90),
		P99:          percentile(latencies, 99),
		Max:          percentile(latencies, 100),
	}
	if elapsed > 0 {
		rep.JobsPerSec = float64(cfg.Jobs) / elapsed.Seconds()
	}
	if len(waits) > 0 {
		sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
		rep.TracedJobs = len(waits)
		rep.QWaitP50 = percentile(waits, 50)
		rep.QWaitP90 = percentile(waits, 90)
		rep.QWaitP99 = percentile(waits, 99)
	}
	return rep, nil
}

type oneResult struct {
	cached     bool
	verdictHit bool
	succeeded  bool
	cancelled  bool
	// queueWait is the dispatch span's duration from the job's trace;
	// hasWait distinguishes a measured zero from no trace at all.
	queueWait time.Duration
	hasWait   bool
}

// fetchQueueWait reads a finished job's dispatch span off the trace
// endpoint. Best-effort by design: a 404 (trace evicted, or an older
// server without the endpoint) or a timeline without a dispatch span —
// a job answered from the verdict store never dispatched — just means
// no sample.
func fetchQueueWait(client *http.Client, base, id string) (time.Duration, bool) {
	resp, err := client.Get(base + "/v2/jobs/" + id + "/trace")
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return 0, false
	}
	var td obs.TraceData
	if err := json.NewDecoder(resp.Body).Decode(&td); err != nil {
		return 0, false
	}
	for _, e := range td.Events {
		if e.Name == "dispatch" {
			return e.Dur, true
		}
	}
	return 0, false
}

// cancelJob asks the server to stop a job the client no longer wants,
// best-effort: 200 (cancelled), 409 (won the race and finished), and 404
// (already evicted) all mean no runner is stuck on our behalf.
func cancelJob(client *http.Client, base, id string) error {
	req, err := http.NewRequest(http.MethodDelete, base+"/v2/jobs/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	switch resp.StatusCode {
	case http.StatusOK, http.StatusConflict, http.StatusNotFound:
		return nil
	}
	return fmt.Errorf("loadgen: cancel %s: %s", id, resp.Status)
}

// runOne submits a single job and polls it to a terminal state, retrying
// submission with backoff while the server reports every queue full (503)
// or the tenant's quota drained (429, honouring Retry-After). The
// deadline bounds the whole attempt; a submitted job that misses it is
// cancelled server-side rather than abandoned.
func runOne(client *http.Client, base string, req CheckRequest, tenant string, poll time.Duration, deadline time.Time, busy, quota *atomic.Int64) (oneResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return oneResult{}, err
	}
	var sub SubmitResponse
	for {
		hreq, err := http.NewRequest(http.MethodPost, base+"/v2/check", bytes.NewReader(body))
		if err != nil {
			return oneResult{}, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			hreq.Header.Set(TenantHeader, tenant)
		}
		resp, err := client.Do(hreq)
		if err != nil {
			return oneResult{}, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return oneResult{}, err
		}
		switch resp.StatusCode {
		case http.StatusServiceUnavailable:
			if time.Now().After(deadline) {
				return oneResult{}, fmt.Errorf("loadgen: submit: server still busy at job deadline")
			}
			busy.Add(1)
			time.Sleep(poll)
			continue
		case http.StatusTooManyRequests:
			if time.Now().After(deadline) {
				return oneResult{}, fmt.Errorf("loadgen: submit: tenant still over quota at job deadline")
			}
			quota.Add(1)
			time.Sleep(retryAfterDelay(resp.Header.Get("Retry-After"), poll, deadline))
			continue
		case http.StatusAccepted, http.StatusOK:
			// 202 queued a job; 200 answered it from the verdict store.
		default:
			return oneResult{}, fmt.Errorf("loadgen: submit: %s: %s", resp.Status, strings.TrimSpace(string(data)))
		}
		if err := json.Unmarshal(data, &sub); err != nil {
			return oneResult{}, fmt.Errorf("loadgen: submit response: %v", err)
		}
		break
	}
	out := oneResult{cached: sub.Cached, verdictHit: sub.CachedVerdict}
	cancelSent := false
	for {
		resp, err := client.Get(base + "/v2/jobs/" + sub.ID)
		if err != nil {
			return out, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return out, fmt.Errorf("loadgen: poll: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			// A 404 here means the job was history-evicted (or the server
			// is not spm); polling further would spin forever.
			return out, fmt.Errorf("loadgen: poll %s: %s: %s", sub.ID, resp.Status, strings.TrimSpace(string(data)))
		}
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			return out, fmt.Errorf("loadgen: poll: %v", err)
		}
		switch st.State {
		case StateDone:
			// Includes jobs whose deadline DELETE lost the race with
			// completion: the verdict landed, so it counts as a success,
			// keeping the client's tallies consistent with the server's.
			out.succeeded = true
			out.queueWait, out.hasWait = fetchQueueWait(client, base, sub.ID)
			return out, nil
		case StateFailed:
			return out, nil
		case StateCancelled:
			out.cancelled = true
			return out, nil
		}
		if time.Now().After(deadline) {
			if cancelSent {
				return out, fmt.Errorf("loadgen: job %s not terminal %v after cancel (state %q)",
					sub.ID, cancelGrace, st.State)
			}
			// Deadline: cancel the server-side job so its runner frees,
			// instead of abandoning the wait and leaving it to grind. The
			// cancel is asynchronous (and may race completion), so keep
			// polling and classify by the terminal state the job actually
			// reaches.
			if err := cancelJob(client, base, sub.ID); err != nil {
				return out, err
			}
			cancelSent = true
			deadline = time.Now().Add(cancelGrace)
		}
		time.Sleep(poll)
	}
}

// cancelGrace bounds how long runOne waits for a deadline-cancelled job to
// reach a terminal state. The server promises cancellation within one sweep
// chunk; a job still not terminal after this long is a real fault.
const cancelGrace = 30 * time.Second

// retryAfterDelay turns a Retry-After header into a sleep, clamped so a
// large hint never sleeps past the job deadline; fallback is the poll
// interval.
func retryAfterDelay(header string, fallback time.Duration, deadline time.Time) time.Duration {
	d := fallback
	if secs, err := strconv.Atoi(strings.TrimSpace(header)); err == nil && secs > 0 {
		d = time.Duration(secs) * time.Second
	}
	if rem := time.Until(deadline); d > rem {
		d = rem
	}
	if d < 0 {
		d = 0
	}
	return d
}

// percentile returns the p-th percentile of sorted latencies (nearest-rank).
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
