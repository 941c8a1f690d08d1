package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"spm/internal/core"
	"spm/internal/obs"
	"spm/internal/store"
)

// State is a job's position in the queued → running → done/failed/cancelled
// lifecycle.
type State string

// Job states. Done, Failed, and Cancelled are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Result is the verdict of a finished check job. For sharded jobs
// (CheckRequest.Offset/Count) it is partial evidence rather than a final
// answer: Sound and Maximal report only what the shard could decide
// locally, and the Views/Classes tables carry what a coordinator needs to
// fold every shard of a partition into the exact whole-domain verdict with
// check.Merge.
type Result struct {
	// Names of the checked artifacts, as the verdict engine reports them —
	// what check.Merge validates across shards.
	Mechanism   string `json:"mechanism,omitempty"`
	Policy      string `json:"policy,omitempty"`
	Observation string `json:"observation,omitempty"`
	// Program is the maximality reference Q's name, set when the job
	// checked maximality.
	Program string `json:"program,omitempty"`

	Sound   bool `json:"sound"`
	Checked int  `json:"checked"`
	// On an unsound verdict, two inputs sharing a policy view with
	// different observations.
	WitnessA []int64 `json:"witness_a,omitempty"`
	WitnessB []int64 `json:"witness_b,omitempty"`
	ObsA     string  `json:"obs_a,omitempty"`
	ObsB     string  `json:"obs_b,omitempty"`

	// Maximality verdict, present only when the job requested it. On a
	// sharded job, true means "no locally-definitive deviation" — the
	// global answer is whatever check.Merge renders from every shard's
	// Classes.
	Maximal        *bool   `json:"maximal,omitempty"`
	MaximalWitness []int64 `json:"maximal_witness,omitempty"`
	MaximalReason  string  `json:"maximal_reason,omitempty"`

	// Shard echo and cross-shard evidence of a sharded job; zero/nil on
	// whole-domain jobs.
	Offset  int64                        `json:"offset,omitempty"`
	Count   int64                        `json:"count,omitempty"`
	Views   map[string]core.ViewObs      `json:"views,omitempty"`
	Classes map[string]core.ClassSummary `json:"classes,omitempty"`

	ElapsedSeconds float64 `json:"elapsed_seconds"`
	InputsPerSec   float64 `json:"inputs_per_sec"`
}

// Job is one submitted check: request, progress, and verdict.
// The progress counter advances by each completed chunk's tuples (see
// jobObserver), starting from the checkpoint cursor on a resumed job;
// Total counts the tuples of the job's range, which its one enumeration
// pass visits once each, so done/total is a true fraction. Every
// job carries its own context: cancelling it (Service.Cancel, the v2
// DELETE endpoint) stops a running sweep within one chunk and marks a
// still-queued job cancelled without ever occupying a runner.
type Job struct {
	ID       string
	Req      CheckRequest
	CacheHit bool
	Total    int64
	// CachedVerdict marks a job answered straight from the persistent
	// verdict store: it was born done, and no sweep ran.
	CachedVerdict bool

	// entry is the compile-cache value resolved at submission, so the
	// worker never re-hashes or re-looks-up the program.
	entry *compiled

	// Persistence state, set when the service runs with a verdict store:
	// the job's content address and — for crash-resumed jobs — the
	// checkpoint to continue from.
	storeKey store.Key
	resume   *jobCheckpoint

	// tenant is the submitting tenant ("" when tenancy is off), for
	// admission accounting and DRR dispatch.
	tenant string

	// trace is the job's event timeline (GET /v2/jobs/{id}/trace).
	// Nil-safe throughout: jobs built outside a full service record
	// nothing.
	trace *obs.Trace

	// ctx is cancelled by Service.Cancel; the sweep engine observes it
	// between chunks.
	ctx    context.Context
	cancel context.CancelFunc

	progress atomic.Int64
	created  time.Time

	mu       sync.Mutex
	state    State
	started  time.Time
	finished time.Time
	result   *Result
	errMsg   string

	done chan struct{}
}

func newJob(id string, req CheckRequest, entry *compiled, cacheHit bool, total int64) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	return &Job{
		ID:       id,
		Req:      req,
		CacheHit: cacheHit,
		Total:    total,
		entry:    entry,
		ctx:      ctx,
		cancel:   cancel,
		created:  time.Now(),
		state:    StateQueued,
		done:     make(chan struct{}),
	}
}

// Progress returns the number of tuples visited so far.
func (j *Job) Progress() int64 { return j.progress.Load() }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// tryStart moves a queued job to running. It returns false when the job is
// no longer queued — cancelled while waiting in the run queue — in which
// case the runner must skip it.
func (j *Job) tryStart() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// cancelRequest asks the job to stop. A queued job transitions straight to
// cancelled (the runners will skip it); a running job has its context
// cancelled and reaches the cancelled state once the sweep notices, within
// one chunk. The return values are the state observed at the moment of the
// request and whether the request had any effect (false for jobs already
// terminal). A queued job never reaches runJob's accounting, so
// settleQueued runs on that path once the job is cancelled and before Done
// closes: a caller that waited on the job reads Stats that count it.
func (j *Job) cancelRequest(settleQueued func()) (State, bool) {
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.errMsg = context.Canceled.Error()
		j.finished = time.Now()
		j.mu.Unlock()
		j.cancel()
		j.trace.Event("cancelled", "while queued")
		settleQueued()
		close(j.done)
		return StateQueued, true
	case StateRunning:
		j.mu.Unlock()
		j.cancel()
		j.trace.Event("cancel", "requested; sweep stops within one chunk")
		return StateRunning, true
	default:
		st := j.state
		j.mu.Unlock()
		return st, false
	}
}

// finish records the terminal state of a job that ran: done on success,
// cancelled when the error is the job context's cancellation, failed
// otherwise.
func (j *Job) finish(res *Result, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		j.result = res
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.errMsg = err.Error()
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	st, msg := j.state, j.errMsg
	j.mu.Unlock()
	j.trace.Event(string(st), msg)
	j.cancel()
	close(j.done)
}

// JobStatus is the wire form of GET /v2/jobs/{id}, and
// the payload of every /v2/jobs/{id}/events event.
type JobStatus struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Cached reports a compile-cache hit (the parse+instrument+Compile
	// phase was skipped); CachedVerdict reports a verdict-store hit (the
	// whole sweep was skipped and the job was born done).
	Cached         bool         `json:"cached"`
	CachedVerdict  bool         `json:"cached_verdict,omitempty"`
	Progress       ProgressInfo `json:"progress"`
	ElapsedSeconds float64      `json:"elapsed_seconds"`
	Result         *Result      `json:"result,omitempty"`
	Error          string       `json:"error,omitempty"`
}

// ProgressInfo is the done/total pair inside JobStatus.
type ProgressInfo struct {
	Done  int64 `json:"done"`
	Total int64 `json:"total"`
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:            j.ID,
		State:         j.state,
		Cached:        j.CacheHit,
		CachedVerdict: j.CachedVerdict,
		Progress:      ProgressInfo{Done: j.progress.Load(), Total: j.Total},
		Result:        j.result,
		Error:         j.errMsg,
	}
	switch j.state {
	case StateQueued:
		st.ElapsedSeconds = time.Since(j.created).Seconds()
	case StateRunning:
		st.ElapsedSeconds = time.Since(j.started).Seconds()
	default:
		// Jobs cancelled before starting never ran; measure from
		// submission for them.
		from := j.started
		if from.IsZero() {
			from = j.created
		}
		st.ElapsedSeconds = j.finished.Sub(from).Seconds()
	}
	return st
}

// stateNow reads the job's current lifecycle state.
func (j *Job) stateNow() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}
