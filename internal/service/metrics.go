package service

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"spm/internal/core"
	"spm/internal/obs"
)

// serviceMetrics owns the service's observability state: the metrics
// registry behind GET /v2/metrics, the per-job trace recorder behind
// GET /v2/jobs/{id}/trace, and the execution tally every job's sweep
// reports into. Instrument handles are resolved once here; the per-job
// hot paths (jobObserver, the execution tiers) only touch atomics.
type serviceMetrics struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	exec   *core.ExecTally

	// Queue wait and sweep duration, overall and by tenant.
	queueWait  *obs.Histogram
	runDur     *obs.Histogram
	tenantWait *obs.HistogramVec
	tenantRun  *obs.HistogramVec

	// Sweep-engine chunk counters, fed by jobObserver.
	sweepChunks  *obs.Counter
	sweepTuples  *obs.Counter
	chunkSeconds *obs.Histogram

	// Sampled at scrape time from tenantGate.stats.
	tenantQueued   *obs.GaugeVec
	tenantAdmitted *obs.GaugeVec
	tenantRejected *obs.GaugeVec
	tenantTuples   *obs.GaugeVec
}

// newServiceMetrics builds the registry and binds every counter source
// the service already keeps: lifecycle atomics, compile-cache and
// verdict-store counters, the execution tally, and scrape-time samples
// of the run queue and tenant gate. Called from New after the run queue
// and tenant gate exist; the gather hook and the *Func families read s
// only at scrape time.
func newServiceMetrics(s *Service) *serviceMetrics {
	reg := obs.New()
	m := &serviceMetrics{
		reg:    reg,
		tracer: obs.NewTracer(0, 0),
		exec:   &core.ExecTally{},
	}

	m.queueWait = reg.Histogram("spm_job_queue_wait_seconds",
		"Time from submission to a runner's start of the job.", nil)
	m.runDur = reg.Histogram("spm_job_run_seconds",
		"Wall-clock sweep time of jobs that ran.", nil)
	m.tenantWait = reg.HistogramVec("spm_tenant_queue_wait_seconds",
		"Time from submission to dispatch, by tenant.", nil, "tenant")
	m.tenantRun = reg.HistogramVec("spm_tenant_run_seconds",
		"Wall-clock sweep time of jobs that ran, by tenant.", nil, "tenant")

	m.sweepChunks = reg.Counter("spm_sweep_chunks_total",
		"Sweep chunks completed across all jobs.")
	m.sweepTuples = reg.Counter("spm_sweep_tuples_total",
		"Tuples enumerated across all jobs.")
	m.chunkSeconds = reg.Histogram("spm_sweep_chunk_seconds",
		"Duration of individual sweep chunks.", nil)

	reg.GaugeFunc("spm_jobs_queued",
		"Jobs currently waiting in the run queue.",
		func() float64 { return float64(s.nQueued.Load()) })
	reg.GaugeFunc("spm_jobs_running",
		"Jobs currently sweeping.",
		func() float64 { return float64(s.nRunning.Load()) })
	reg.CounterFunc("spm_jobs_done_total",
		"Jobs finished successfully.",
		func() float64 { return float64(s.nDone.Load()) })
	reg.CounterFunc("spm_jobs_failed_total",
		"Jobs that ended in an error.",
		func() float64 { return float64(s.nFailed.Load()) })
	reg.CounterFunc("spm_jobs_cancelled_total",
		"Jobs cancelled before or during their sweep.",
		func() float64 { return float64(s.nCancelled.Load()) })

	reg.CounterFunc("spm_compile_cache_hits_total",
		"Submissions that skipped parse+instrument+Compile.",
		func() float64 { return float64(s.cache.hits.Load()) })
	reg.CounterFunc("spm_compile_cache_misses_total",
		"Submissions that paid a full compile.",
		func() float64 { return float64(s.cache.misses.Load()) })
	reg.GaugeFunc("spm_compile_cache_entries",
		"Compiled entries currently cached.",
		func() float64 { return float64(s.cache.Stats().Entries) })

	reg.CounterFunc("spm_batch_strides_total",
		"Batch-tier strides executed.",
		func() float64 { return float64(m.exec.Counts().BatchStrides) })
	reg.CounterFunc("spm_batch_lanes_total",
		"Tuples executed on batch lanes.",
		func() float64 { return float64(m.exec.Counts().BatchLanes) })
	reg.CounterFunc("spm_batch_diverged_total",
		"Batch lanes that diverged to the scalar fallback.",
		func() float64 { return float64(m.exec.Counts().BatchDiverged) })
	reg.CounterFunc("spm_stack_full_total",
		"Snapshot-stack recordings from instruction zero.",
		func() float64 { return float64(m.exec.Counts().StackFull) })
	reg.CounterFunc("spm_stack_replays_total",
		"Executions resumed from a per-axis stack capture.",
		func() float64 { return float64(m.exec.Counts().StackReplays) })
	reg.CounterFunc("spm_stack_constants_total",
		"Tuples answered by a constant suffix entry without executing.",
		func() float64 { return float64(m.exec.Counts().StackConstants) })
	stackDepth := reg.GaugeVec("spm_stack_replay_depth",
		"Stack replays by resume depth (deeper = shorter tail).", "depth")
	reg.OnGather(func() {
		c := m.exec.Counts()
		for d, n := range c.StackReplayDepth {
			stackDepth.With(strconv.Itoa(d)).Set(float64(n))
		}
	})

	if s.store != nil {
		reg.CounterFunc("spm_store_verdict_hits_total",
			"Submissions answered straight from the verdict store.",
			func() float64 { return float64(s.nVerdictHits.Load()) })
		reg.CounterFunc("spm_store_resumed_jobs_total",
			"Jobs re-enqueued from a crash checkpoint at startup.",
			func() float64 { return float64(s.nResumed.Load()) })
		reg.CounterFunc("spm_store_lookups_total",
			"Verdict-store probes (hits plus misses).",
			func() float64 { st := s.store.Stats(); return float64(st.Hits + st.Misses) })
		reg.CounterFunc("spm_store_bytes_appended_total",
			"Log bytes persisted since the store opened.",
			func() float64 { return float64(s.store.Stats().BytesAppended) })
		reg.GaugeFunc("spm_store_verdicts",
			"Verdicts currently indexed by the store.",
			func() float64 { return float64(s.store.Stats().Verdicts) })
		reg.GaugeFunc("spm_store_pending",
			"In-flight jobs the store would resume after a crash.",
			func() float64 { return float64(s.store.Stats().Pending) })
	}

	reg.GaugeFunc("spm_queue_depth",
		"Jobs in the run queue, cancelled ones not yet skipped included.",
		func() float64 { return float64(s.queue.stats().Depth) })
	reg.GaugeFunc("spm_queue_peak",
		"High-water depth of the run queue.",
		func() float64 { return float64(s.queue.stats().Peak) })
	m.tenantQueued = reg.GaugeVec("spm_tenant_queued_jobs",
		"Jobs in each tenant's run-queue backlog.", "tenant")
	m.tenantAdmitted = reg.GaugeVec("spm_tenant_admitted_jobs",
		"Submissions admitted past each tenant's token bucket.", "tenant")
	m.tenantRejected = reg.GaugeVec("spm_tenant_rejected_jobs",
		"Submissions stopped by each tenant's token bucket.", "tenant")
	m.tenantTuples = reg.GaugeVec("spm_tenant_admitted_tuples",
		"Tuple volume admitted for each tenant.", "tenant")
	reg.OnGather(func() {
		for _, t := range s.tenants.stats(s.queue) {
			m.tenantQueued.With(t.Tenant).Set(float64(t.Queued))
			m.tenantAdmitted.With(t.Tenant).Set(float64(t.Admitted))
			m.tenantRejected.With(t.Tenant).Set(float64(t.Rejected))
			m.tenantTuples.With(t.Tenant).Set(float64(t.TuplesAdmitted))
		}
	})
	return m
}

// observeDispatch records a runner starting a job: the queue-wait
// histograms and the trace's dispatch span.
func (m *serviceMetrics) observeDispatch(j *Job, wait time.Duration) {
	m.queueWait.Observe(wait.Seconds())
	m.tenantWait.With(j.tenant).Observe(wait.Seconds())
	j.trace.Span("dispatch", "", wait)
}

// observeRun records a finished sweep's wall-clock duration.
func (m *serviceMetrics) observeRun(j *Job, d time.Duration) {
	m.runDur.Observe(d.Seconds())
	m.tenantRun.With(j.tenant).Observe(d.Seconds())
}

// jobObserver is the per-job sweep.Observer, the one per-chunk hook of a
// job's sweep: every completed chunk advances the job's progress, bumps
// the service-wide chunk counters and lands on the job's trace timeline;
// then, on a throttled service, the worker naps before its next chunk.
// One is built per job run, so the job needs no lookup on the chunk path.
type jobObserver struct {
	m        *serviceMetrics
	j        *Job
	throttle time.Duration
}

func (o *jobObserver) ChunkDone(worker, tuples int, d time.Duration) {
	done := o.j.progress.Add(int64(tuples))
	o.m.sweepChunks.Inc()
	o.m.sweepTuples.Add(int64(tuples))
	o.m.chunkSeconds.Observe(d.Seconds())
	o.j.trace.Span("chunk", fmt.Sprintf("worker=%d tuples=%d", worker, tuples), d)
	if o.throttle > 0 && done < o.j.Total {
		o.nap()
	}
}

// nap pauses a throttled worker after a chunk, returning early when the
// job is cancelled. The chunk that completes the job takes no nap, so a
// finished sweep reports its verdict even if a cancel lands then.
func (o *jobObserver) nap() {
	t := time.NewTimer(o.throttle)
	defer t.Stop()
	select {
	case <-o.j.ctx.Done():
	case <-t.C:
	}
}

// Metrics returns the service's metrics registry — the handler behind
// GET /v2/metrics, also mountable on additional muxes (the cluster
// admin surface exposes it as /metrics).
func (s *Service) Metrics() *obs.Registry { return s.metrics.reg }

// JobTrace returns the recorded timeline of a job, if the tracer still
// holds it (traces outlive the job history bound but are themselves
// bounded; see obs.NewTracer).
func (s *Service) JobTrace(id string) (obs.TraceData, bool) {
	t := s.metrics.tracer.Lookup(id)
	if t == nil {
		return obs.TraceData{}, false
	}
	return t.Snapshot(), true
}

// handleTrace is GET /v2/jobs/{id}/trace: the job's event timeline as
// JSON, 404 once the trace has been evicted (or the ID never existed).
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	td, ok := s.JobTrace(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("service: no trace for job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, td)
}
