// Package service wraps the sweep engine in a long-running policy-checking
// system: one bounded run queue popped by a fixed set of runners (first
// in, first out, or deficit-round-robin across tenants under tenant
// admission control), a content-addressed compile cache so
// repeated submissions skip parse+instrument+Compile and go straight to
// the compiled fast path, and a queued → running → done/failed job
// lifecycle whose progress counter is the sweep engine's chunk cursor.
// `spm serve` exposes it over HTTP (POST /v2/check, GET /v2/jobs/{id},
// GET /v2/stats, and the rest of Service.Handler's v2 surface) and
// `spm loadgen` drives it closed-loop for benchmarks and CI smoke.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spm/internal/check"
	"spm/internal/core"
	"spm/internal/store"
	"spm/internal/sweep"
)

// ErrBadRequest wraps every submission-validation failure (malformed
// program, bad policy or variant, oversized domain). HTTP maps it to 400.
var ErrBadRequest = errors.New("service: bad request")

// ErrUnknownJob is returned by Job lookups for IDs the service never
// issued (or already evicted). HTTP maps it to 404.
var ErrUnknownJob = errors.New("service: unknown job")

// ErrJobTerminal is returned by Cancel for jobs that already finished
// (done or failed) and so cannot be cancelled. HTTP maps it to 409.
var ErrJobTerminal = errors.New("service: job already finished")

// CheckRequest is one policy-check submission. Domain is the value list
// every input position ranges over (the CLI's -domain flag); it defaults
// to {0,1,2}.
//
// Offset and Count restrict the job to the contiguous shard
// [Offset, Offset+Count) of the domain's mixed-radix index space — the
// wire form of check.Shard, set by the cluster coordinator when it splits
// one logical check across nodes. Count 0 with a non-zero Offset means
// "through the end"; both zero means the whole domain. Sharded results
// carry the cross-shard evidence (Result.Views, Result.Classes) that
// check.Merge folds into the exact whole-domain verdict.
type CheckRequest struct {
	Program string  `json:"program"`
	Policy  string  `json:"policy,omitempty"`
	Variant string  `json:"variant,omitempty"`
	Domain  []int64 `json:"domain,omitempty"`
	Timed   bool    `json:"timed,omitempty"`
	Raw     bool    `json:"raw,omitempty"`
	Maximal bool    `json:"maximal,omitempty"`
	Offset  int64   `json:"offset,omitempty"`
	Count   int64   `json:"count,omitempty"`
}

// Sharded reports whether the request restricts the sweep to a shard of
// the index space.
func (r CheckRequest) Sharded() bool { return r.Offset != 0 || r.Count != 0 }

// Config tunes the service. The zero value picks production-ish defaults.
type Config struct {
	// Runners is the number of jobs run at once; ≤ 0 means
	// runtime.GOMAXPROCS(0). A busy service keeps one sweep worker per
	// running job (SweepWorkers), so runners beyond the CPU count would
	// only time-slice.
	Runners int
	// QueueCap bounds each run-queue backlog in jobs: the one backlog
	// with tenancy off, each tenant's with it on. ≤ 0 means
	// DefaultQueueCap. A full backlog rejects with ErrBusy.
	QueueCap int
	// SweepWorkers is the sweep parallelism of each job. ≤ 0 lends idle
	// CPUs to running jobs: each job starts on one sweep worker and, past
	// its first 100 µs, adds one while the process runs fewer sweep
	// workers than GOMAXPROCS, so a lone job spreads over the machine and
	// concurrent jobs keep one each (sweep.Config.Workers). A positive
	// value fixes every job at that many.
	SweepWorkers int
	// CacheCap bounds the compile cache; ≤ 0 means DefaultCacheCap.
	CacheCap int
	// MaxTuples rejects domains whose cartesian product exceeds it;
	// ≤ 0 means DefaultMaxTuples.
	MaxTuples int64
	// MaxJobs bounds the finished-job history; ≤ 0 means DefaultMaxJobs.
	MaxJobs int
	// Store, when non-nil, persists verdicts and in-flight job
	// checkpoints: repeated submissions of work the store has already
	// decided are answered without a sweep (JobStatus.CachedVerdict), and
	// jobs interrupted by a crash are re-enqueued from their last
	// checkpoint when the service restarts on the same store directory.
	Store *store.Store
	// CheckpointEvery is the tuple interval between persisted sweep
	// checkpoints for store-backed jobs; ≤ 0 means
	// check.DefaultCheckpointEvery.
	CheckpointEvery int64
	// Tenant configures per-tenant admission control; the zero value
	// disables it (every request shares one unlimited lane).
	Tenant TenantConfig
	// Throttle, when positive, makes every job's sweep workers pause this
	// long after each completed chunk (check.WithThrottle). It is a test
	// hook — `spm serve -throttle` turns one node into a deterministic
	// straggler so the elastic cluster's shard stealing and speculative
	// re-dispatch can be exercised; production fleets leave it zero.
	Throttle time.Duration
}

// Service defaults.
const (
	DefaultQueueCap = 256
	// DefaultSweepBatch is the stride-width cap every job sweeps at.
	DefaultSweepBatch = check.DefaultBatch
	DefaultMaxTuples  = 8 << 20
	DefaultMaxJobs    = 4096
)

func (c Config) normalized() Config {
	if c.Runners <= 0 {
		c.Runners = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = DefaultQueueCap
	}
	if c.SweepWorkers < 0 {
		c.SweepWorkers = 0
	}
	if c.MaxTuples <= 0 {
		c.MaxTuples = DefaultMaxTuples
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = DefaultMaxJobs
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = check.DefaultCheckpointEvery
	}
	return c
}

// Service is the policy-checking system: cache + run queue + job store.
type Service struct {
	cfg     Config
	cache   *CompileCache
	queue   *runQueue
	runners sync.WaitGroup
	store   *store.Store
	tenants *tenantGate
	metrics *serviceMetrics

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // insertion order, for history eviction
	seq   atomic.Uint64

	// Lifecycle tallies for /v2/stats: queued and running are current
	// occupancy; done, failed, and cancelled are lifetime-cumulative. Kept
	// as atomics so Stats never scans the job history under the submission
	// mutex.
	nQueued, nRunning, nDone, nFailed, nCancelled atomic.Int64

	// Persistence tallies: submissions answered from the verdict store and
	// jobs re-enqueued from a checkpoint at startup.
	nVerdictHits, nResumed atomic.Int64
}

// New starts a service with cfg's runners. When cfg.Store is set, jobs the
// store recorded as unfinished — admitted before a crash, never cleared —
// are re-enqueued immediately, under their original IDs, resuming from
// their last persisted checkpoint.
func New(cfg Config) *Service {
	cfg = cfg.normalized()
	s := &Service{
		cfg:   cfg,
		cache: NewCompileCache(cfg.CacheCap),
		store: cfg.Store,
		jobs:  make(map[string]*Job),
	}
	s.tenants = newTenantGate(cfg.Tenant)
	quantum := int64(0)
	if s.tenants.enabled {
		quantum = s.tenants.cfg.Quantum
	}
	s.queue = newRunQueue(cfg.QueueCap, quantum)
	s.metrics = newServiceMetrics(s)
	for range cfg.Runners {
		s.runners.Add(1)
		go func() {
			defer s.runners.Done()
			for j := s.queue.pop(); j != nil; j = s.queue.pop() {
				s.runJob(j)
			}
		}()
	}
	if s.store != nil {
		s.resumePending()
	}
	return s
}

// Close stops admission, lets the runners finish every job already
// queued, and waits for them, so every admitted job ends terminal.
// Submissions after Close fail with ErrBusy.
func (s *Service) Close() {
	s.queue.close()
	s.runners.Wait()
}

// Config returns the normalized configuration in effect. A service that
// lends idle CPUs reports SweepWorkers as 1, the sweep worker each job
// starts on and keeps whatever the load; the workers it borrows come and
// go with the other jobs, and passing the value back to New would fix
// jobs at one worker.
func (s *Service) Config() Config {
	c := s.cfg
	if c.SweepWorkers == 0 {
		c.SweepWorkers = 1
	}
	return c
}

// Submit validates the request, resolves it against the compile cache, and
// queues a job for the runners. It returns the queued job; errors wrap
// ErrBadRequest (invalid submission) or ErrBusy (run queue full).
func (s *Service) Submit(req CheckRequest) (*Job, error) {
	return s.SubmitTenant(req, "")
}

// SubmitTenant is Submit with the request attributed to a tenant (the
// X-SPM-Tenant header). Under tenant admission control (Config.Tenant),
// the tenant's token bucket is charged the job's tuple total — exceeding
// it returns a QuotaError (HTTP 429 with Retry-After) — and each tenant
// waits in its own backlog, popped deficit-round-robin, so one noisy
// tenant cannot starve the rest. Store verdict hits bypass the quota:
// they cost no sweep. With tenancy disabled (the default), tenant is
// recorded on the job and admission is unchanged.
func (s *Service) SubmitTenant(req CheckRequest, tenant string) (*Job, error) {
	return s.submit(req, "", nil, tenant)
}

// submit is the single admission path: fresh submissions (id == ""), and
// crash-resumed jobs re-entering under their original id with the
// checkpoint to continue from. Resumed jobs bypass the verdict-store
// lookup (they are pending precisely because no verdict exists) and the
// tenant quota (they were admitted before the restart).
func (s *Service) submit(req CheckRequest, id string, resume *jobCheckpoint, tenant string) (*Job, error) {
	entry, hit, err := s.cache.GetOrCompile(req)
	if err != nil {
		return nil, err
	}
	values := req.Domain
	if len(values) == 0 {
		values = []int64{0, 1, 2}
	}
	if req.Offset < 0 || req.Count < 0 {
		return nil, fmt.Errorf("%w: negative shard offset or count", ErrBadRequest)
	}
	dom := core.Grid(entry.prog.Arity(), values...)
	size := sweep.Size(dom)
	if req.Sharded() && size == math.MaxInt {
		return nil, fmt.Errorf("%w: domain product overflows the index space", ErrBadRequest)
	}
	// The node only sweeps its shard, so the admission bound applies to
	// the shard span, not the whole product — sharding is exactly how a
	// cluster takes on domains no single node would admit. The span comes
	// from the same Bounds clamp the engine applies, so the job's
	// progress denominator always agrees with the tuples actually swept.
	span := int64(size)
	if req.Sharded() {
		off, cnt := req.Offset, req.Count
		if off > int64(size) {
			off = int64(size)
		}
		if cnt > int64(size) {
			cnt = int64(size)
		}
		lo, hi, err := (sweep.Config{Offset: int(off), Count: int(cnt)}).Bounds(size)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		span = int64(hi - lo)
	}
	if span > s.cfg.MaxTuples {
		noun := "domain"
		if req.Sharded() {
			noun = "shard"
		}
		return nil, fmt.Errorf("%w: %s has %d tuples, limit %d", ErrBadRequest, noun, span, s.cfg.MaxTuples)
	}
	req.Domain = values
	var key store.Key
	if s.store != nil {
		key = storeKey(entry, req)
		if id == "" {
			if raw, ok := s.store.Verdict(key); ok {
				return s.cachedJob(req, entry, hit, span, raw)
			}
		}
	}
	if err := s.tenants.admit(tenant, id, span); err != nil {
		return nil, err
	}

	jid := id
	if jid == "" {
		jid = fmt.Sprintf("job-%d", s.seq.Add(1))
	}
	j := newJob(jid, req, entry, hit, span)
	j.storeKey = key
	j.resume = resume
	j.tenant = tenant
	j.trace = s.metrics.tracer.Begin(j.ID)
	j.trace.Event("submit", fmt.Sprintf("tenant=%q total=%d", tenant, j.Total))
	if hit {
		j.trace.Event("compile", "cache hit")
	} else {
		j.trace.Event("compile", "compiled")
	}
	if resume != nil {
		// The job's progress denominator includes the checkpointed prefix,
		// which the resumed sweep does not revisit.
		j.trace.Event("resume", fmt.Sprintf("cursor=%d", resume.Cursor))
		j.progress.Store(resume.Cursor)
	}

	s.mu.Lock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.evictLocked()
	s.mu.Unlock()

	if s.store != nil && id == "" {
		payload, merr := json.Marshal(req)
		if merr == nil {
			merr = s.store.PutPending(store.Pending{ID: j.ID, Key: key, Payload: payload})
		}
		if merr != nil {
			s.dropJob(j.ID)
			return nil, fmt.Errorf("service: persist admission: %w", merr)
		}
	}

	s.nQueued.Add(1)
	j.trace.Event("queue", "awaiting a runner")
	if err := s.queue.push(j); err != nil {
		s.nQueued.Add(-1)
		s.dropJob(j.ID)
		if s.store != nil && id == "" {
			s.store.ClearPending(j.ID)
		}
		return nil, err
	}
	return j, nil
}

// dropJob removes a job that was never queued from the history.
func (s *Service) dropJob(id string) {
	s.mu.Lock()
	delete(s.jobs, id)
	// Remove id by value — a concurrent Submit may have appended after
	// us, so blind truncation could drop someone else's job.
	for i := len(s.order) - 1; i >= 0; i-- {
		if s.order[i] == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

// evictLocked trims finished jobs beyond the history bound, oldest first,
// stopping at the first job that is still queued or running — amortized
// O(1) per submission rather than a full history scan.
func (s *Service) evictLocked() {
	for len(s.order) > s.cfg.MaxJobs {
		id := s.order[0]
		if j := s.jobs[id]; j != nil {
			if !j.stateNow().Terminal() {
				// Oldest job still active; history is transiently over
				// budget by at most the queued and running jobs.
				return
			}
			delete(s.jobs, id)
		}
		s.order = s.order[1:]
	}
}

// Job returns a submitted job by ID.
func (s *Service) Job(id string) (*Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// Cancel stops a job. A still-queued job transitions straight to cancelled
// and the runners skip it; a running job's context is cancelled, the
// sweep stops within one chunk, and its runner moves on to the next job.
// Cancelling an already-cancelled job is an idempotent success; a job that
// finished (done or failed) returns ErrJobTerminal; an unknown ID returns
// ErrUnknownJob.
func (s *Service) Cancel(id string) (*Job, error) {
	j, err := s.Job(id)
	if err != nil {
		return nil, err
	}
	was, acted := j.cancelRequest(func() {
		// The job stays in its backlog, counted in the queue depth,
		// until a runner's pop skips it.
		s.nQueued.Add(-1)
		s.nCancelled.Add(1)
		if s.store != nil {
			s.store.ClearPending(j.ID)
		}
	})
	if acted {
		return j, nil
	}
	if was == StateCancelled {
		return j, nil // idempotent
	}
	return j, fmt.Errorf("%w: %s is %s", ErrJobTerminal, id, was)
}

// Stats is the wire form of GET /v2/stats. Store and Tenants are present
// only when the corresponding subsystem is enabled.
type Stats struct {
	Queue   QueueStats    `json:"queue"`
	Cache   CacheStats    `json:"cache"`
	Jobs    JobCounts     `json:"jobs"`
	Store   *StoreStats   `json:"store,omitempty"`
	Tenants []TenantStats `json:"tenants,omitempty"`
}

// JobCounts tallies jobs by lifecycle state: Queued and Running are
// current occupancy; Done, Failed, and Cancelled are lifetime totals (they
// survive history eviction).
type JobCounts struct {
	Queued    int64 `json:"queued"`
	Running   int64 `json:"running"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
}

// Stats snapshots the run queue, cache counters, job tallies, and — when
// enabled — verdict-store and per-tenant admission counters.
func (s *Service) Stats() Stats {
	q := s.queue.stats()
	q.Runners = s.cfg.Runners
	return Stats{
		Queue: q,
		Cache: s.cache.Stats(),
		Jobs: JobCounts{
			Queued:    s.nQueued.Load(),
			Running:   s.nRunning.Load(),
			Done:      s.nDone.Load(),
			Failed:    s.nFailed.Load(),
			Cancelled: s.nCancelled.Load(),
		},
		Store:   s.storeStats(),
		Tenants: s.tenants.stats(s.queue),
	}
}

// runJob executes one popped job on its runner: one sweep of the
// compile-cache entry resolved at submission, which decides soundness
// and, when requested, maximality (check.Run's Maximality kind decides
// both in its one pass). The job's progress counter is handed to the
// sweep engine as its chunk cursor, and its context to the engine's
// cancellation check — a cancelled job stops within one chunk and the
// runner moves on to the next job. A job cancelled between pop and start
// is skipped.
func (s *Service) runJob(j *Job) {
	if !j.tryStart() {
		return // cancelled while queued; Cancel settled the tallies
	}
	s.nQueued.Add(-1)
	s.nRunning.Add(1)
	s.metrics.observeDispatch(j, time.Since(j.created))
	runStart := time.Now()
	res, err := s.check(j.ctx, j)
	s.metrics.observeRun(j, time.Since(runStart))
	if s.store != nil {
		s.settleStore(j, res, err)
	}
	// Settle the tallies before finish closes Done, so a caller that
	// waited on the job reads Stats that already count it.
	s.nRunning.Add(-1)
	switch {
	case err == nil:
		s.nDone.Add(1)
	case errors.Is(err, context.Canceled):
		s.nCancelled.Add(1)
	default:
		s.nFailed.Add(1)
	}
	j.finish(res, err)
}

// check runs the job's verdict through check.Run — the single verdict
// path shared with the CLI and the experiment tables — or, on a
// store-backed service, through check.RunCheckpointed (see checkStore).
// Either way the engine sweeps the job's range once: a maximal job is one
// Maximality run, whose verdict carries the mechanism's soundness too.
func (s *Service) check(ctx context.Context, j *Job) (*Result, error) {
	entry := j.entry
	spec := check.Spec{
		Kind:        check.Soundness,
		Mechanism:   entry.mech,
		Policy:      core.NewAllowSet(entry.prog.Arity(), entry.allowed),
		Domain:      core.Grid(entry.prog.Arity(), j.Req.Domain...),
		Observation: core.ObserveValue,
		Shard:       check.Shard{Offset: j.Req.Offset, Count: j.Req.Count},
	}
	if j.Req.Timed {
		spec.Observation = core.ObserveValueAndTime
	}
	span := "sound"
	if j.Req.Maximal {
		spec.Kind, spec.Program = check.Maximality, entry.bare
		span = "max"
	}
	opts := []check.Option{
		check.WithWorkers(s.cfg.SweepWorkers),
		check.WithProgress(&j.progress),
		check.WithThrottle(s.cfg.Throttle),
		check.WithObserver(&jobObserver{m: s.metrics, tr: j.trace}),
		check.WithExecTally(s.metrics.exec),
	}

	start := time.Now()
	j.trace.Event("sweep", "kind="+spec.Kind.String())
	var v check.Verdict
	var err error
	if s.store != nil {
		v, err = s.checkStore(ctx, j, spec, opts)
	} else {
		v, err = check.Run(ctx, spec, opts...)
	}
	if err != nil {
		return nil, err
	}
	j.trace.Span(span, fmt.Sprintf("checked=%d", v.Checked), time.Since(start))
	res := &Result{
		Mechanism:   v.Mechanism,
		Policy:      v.Policy,
		Observation: v.Observation,
		Sound:       v.Sound,
		Checked:     v.Checked,
		WitnessA:    v.WitnessA,
		WitnessB:    v.WitnessB,
		ObsA:        v.ObsA,
		ObsB:        v.ObsB,
		Offset:      j.Req.Offset,
		Count:       j.Req.Count,
		Views:       v.Views,
	}
	if j.Req.Maximal {
		maximal := v.Maximal
		res.Program = v.Program
		res.Maximal = &maximal
		res.MaximalWitness = v.Witness
		res.MaximalReason = v.Reason
		res.Classes = v.Classes
	}
	j.trace.Event("merge", "assembling result")
	elapsed := time.Since(start)
	res.ElapsedSeconds = elapsed.Seconds()
	if elapsed > 0 {
		res.InputsPerSec = float64(j.Progress()) / elapsed.Seconds()
	}
	return res, nil
}
