// Package cluster distributes one exhaustive check across a fleet of
// `spm serve` nodes: the coordinator splits the domain's mixed-radix index
// space [0, Size) into contiguous shards, dispatches each shard to a node
// over the v2 HTTP surface (POST /v2/check with the shard's offset/count),
// and folds the partial results back into the exact whole-domain verdict
// with check.Merge — the per-node generalisation of the per-worker merge
// the in-process parallel checkers already do.
//
// The loop is closed against failure: a node that refuses a shard (503),
// dies mid-sweep, or fails the job has the shard re-dispatched to another
// node (bounded by Config.Retries per shard), and because every shard's
// result carries its cross-shard evidence tables the re-run verdict is
// still exact. A shard that comes back with a definitive counterexample —
// unsound, or a locally-decidable maximality leak — short-circuits the
// rest once every shard below it has completed (at once when the domain
// is not listed in ascending order): outstanding jobs are cancelled via
// DELETE /v2/jobs/{id} (the service stops them within one sweep chunk)
// and pending shards above it are never dispatched. On an ascending
// domain the short-circuited soundness witness is still the whole
// domain's, since the least conflict lies below the first one found.
//
// Work placement is pull-based: each node runs one shard at a time and
// pulls the next pending shard the moment it finishes, so faster nodes
// sweep more of the index space — the same dynamic balance the service's
// run queue gives jobs inside one node, where an idle runner pops the next
// job. Each shard attempt is followed over the job's SSE event stream
// (GET /v2/jobs/{id}/events, with a status poll as the fallback), so the
// coordinator learns a shard finished when the node does, not a poll
// interval later.
//
// # Membership, stealing and speculation
//
// Every coordinator dispatches from a Registry; Config.Nodes alone builds
// a static one. The same runner serves a changing fleet and two optional
// interventions, all exploiting the fact that a shard is nothing but a
// contiguous index range [Offset, Offset+Count):
//
//   - Dynamic membership. Nodes join and leave mid-check through the
//     registry (Coordinator.AdminHandler, nodes-file SIGHUP rereads);
//     joiners enter the shard pool immediately, leavers have their
//     in-flight shard cancelled and requeued without charging its retry
//     budget, and health probes of GET /v2/stats retire silently dead
//     nodes. A retired node stays retired on the coordinator, across
//     checks, until it joins again.
//
//   - Shard stealing (Config.StealThreshold > 0). The coordinator
//     projects every flight's finish time from the chunk cursor its event
//     stream reports. When a straggler's projection exceeds
//     StealThreshold × the median and idle nodes exist, the remaining
//     range is split at a cursor-aligned midpoint with integer
//     arithmetic: the back half goes to an idle node and the straggler is
//     shrunk by cancel-and-resubmit of the front half.
//
//   - Speculative re-dispatch (Config.Speculate). When idle nodes
//     outnumber the remaining shards, in-flight shards are duplicated on
//     idle nodes; the first result per shard wins and the loser is
//     cancelled. check.Merge tolerates overlapping duplicates by
//     construction, but the runner keeps exactly one result per shard
//     offset, so the merged verdict stays byte-identical to a single-node
//     check.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"spm/internal/check"
	"spm/internal/core"
	"spm/internal/flowchart"
	"spm/internal/service"
	"spm/internal/sweep"
)

// Defaults for Config's zero values.
const (
	// DefaultShardsPerNode is the shard fan-out per node when
	// Config.Shards is unset: more shards than nodes, so a dead node
	// forfeits only its in-flight shard and the survivors absorb the rest
	// one shard at a time.
	DefaultShardsPerNode = 4
	// DefaultRetries bounds how many times one shard may be re-dispatched
	// after failures before the whole check fails.
	DefaultRetries = 3
	// DefaultPoll is the job-status poll cadence when a node's event
	// stream is unavailable or drops mid-job.
	DefaultPoll = 50 * time.Millisecond
)

// maxPollFailures is how many consecutive status-poll failures mark a node
// dead mid-job.
const maxPollFailures = 5

// busySubmitRetries bounds the in-place backoff against a node answering
// 503 before the shard is handed back to the pool (which counts one retry
// against its budget).
const busySubmitRetries = 8

// Config tunes a Coordinator.
type Config struct {
	// Nodes lists the worker base URLs, e.g. "http://127.0.0.1:8135".
	// Required.
	Nodes []string
	// Shards is the number of contiguous index-space shards; ≤ 0 means
	// DefaultShardsPerNode × len(Nodes), clamped to the domain size.
	Shards int
	// Retries is the per-shard re-dispatch budget after node failures;
	// ≤ 0 means DefaultRetries.
	Retries int
	// Client is the HTTP client; nil means a client with a 30s timeout.
	Client *http.Client

	// Registry is the membership table shards are dispatched from; Nodes,
	// if also given, are joined into it. Nil means a registry built from
	// Nodes. Either way membership may change mid-check.
	Registry *Registry
	// StealThreshold enables shard stealing when > 0: a flight whose
	// projected finish exceeds StealThreshold × the median (of the other
	// flights, or of completed shard times) while idle nodes exist has
	// the back half of its remaining range stolen. Values near 1 steal
	// aggressively; 2–4 is a reasonable range.
	StealThreshold float64
	// Speculate enables speculative re-dispatch: when idle nodes exist
	// and no shards are pending, in-flight shards are duplicated on the
	// idle nodes and the first result per shard wins.
	Speculate bool
	// StealInterval is the supervisor cadence; ≤ 0 means
	// DefaultStealInterval.
	StealInterval time.Duration
}

// Coordinator fans one check out over a fleet of spm serve nodes.
type Coordinator struct {
	cfg    Config
	client *http.Client
	// registry is the membership table every check dispatches from.
	registry *Registry
	// stream is client without a deadline, for long-lived SSE watches.
	stream *http.Client
	// metrics accumulates coordinator-lifetime counters (GET /metrics on
	// the admin mux).
	metrics *clusterMetrics
}

// New validates cfg and builds a Coordinator. Duplicate node URLs are
// collapsed by the registry: the runner's per-node accounting keys on the
// URL, so one physical node must appear once.
func New(cfg Config) (*Coordinator, error) {
	for _, n := range cfg.Nodes {
		if n == "" {
			return nil, errors.New("cluster: empty node URL")
		}
	}
	if cfg.Retries <= 0 {
		cfg.Retries = DefaultRetries
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	registry := cfg.Registry
	if registry == nil {
		registry = NewRegistry(cfg.Nodes)
	} else {
		for _, n := range cfg.Nodes {
			registry.Join(n)
		}
	}
	if len(registry.Alive()) == 0 {
		return nil, errors.New("cluster: no nodes")
	}
	c := &Coordinator{
		cfg:      cfg,
		client:   client,
		registry: registry,
		stream:   &http.Client{Transport: client.Transport},
	}
	c.metrics = newClusterMetrics(c)
	return c, nil
}

// NodeReport is one node's row in a Report.
type NodeReport struct {
	URL string `json:"url"`
	// Shards counts shards this node completed; Failures counts submit,
	// poll, and job failures observed against it.
	Shards   int `json:"shards"`
	Failures int `json:"failures"`
	// Dead marks a node retired by the end of the run: it failed or left
	// during this check or, retirement being sticky, an earlier one.
	Dead bool `json:"dead,omitempty"`
	// State is the node's membership state at the end of the run.
	State NodeState `json:"state,omitempty"`
}

// Report is the outcome of one distributed check.
type Report struct {
	// Soundness is the merged whole-domain soundness verdict. When the
	// run short-circuited it covers exactly the shards that completed
	// (Complete false, Checked partial) — still exact for every tuple it
	// counts, and on an ascending domain its witness pair is the whole
	// domain's.
	Soundness check.Verdict
	// Maximality is the merged maximality verdict, when requested. After
	// a short-circuited run it is present only when the seen shards are
	// definitive (a leak or alter deviation); affirmative and withhold
	// verdicts need every shard's class table, so incomplete ones are
	// withheld as nil.
	Maximality *check.Verdict
	// Complete reports that every shard finished: Checked totals equal
	// the whole index space. A definitive counterexample short-circuits
	// the run, leaving Complete false with the counterexample in hand.
	Complete bool
	// Shards is the fan-out; Completed how many finished; Retries how
	// many re-dispatches failures forced; Cancelled how many in-flight
	// jobs the short-circuit cancelled on their nodes.
	Shards    int
	Completed int
	Retries   int
	Cancelled int
	// Membership and intervention accounting for this check alone: nodes
	// that joined and left while it ran, shards whose back half was stolen
	// from a straggler, and speculative duplicates dispatched.
	Joined     int
	Left       int
	Stolen     int
	Speculated int
	Nodes      []NodeReport
	Elapsed    time.Duration
}

// String summarises the distributed run: the merged verdict(s) first —
// rendered exactly as a single-node verdict renders — then one line of
// cluster accounting.
func (r *Report) String() string {
	var b strings.Builder
	b.WriteString(r.Soundness.String())
	if r.Maximality != nil {
		b.WriteString("\n")
		b.WriteString(r.Maximality.String())
	}
	fmt.Fprintf(&b, "\ncluster: %d/%d shards on %d nodes (%d retries, %d cancelled) in %v",
		r.Completed, r.Shards, len(r.Nodes), r.Retries, r.Cancelled, r.Elapsed.Round(time.Millisecond))
	if r.Joined+r.Left+r.Stolen+r.Speculated > 0 {
		fmt.Fprintf(&b, "\nelastic: %d joined, %d left, %d stolen, %d speculated",
			r.Joined, r.Left, r.Stolen, r.Speculated)
	}
	return b.String()
}

// errStopped marks a shard run abandoned because the coordinator
// short-circuited; errNodeDown marks the node unusable.
var (
	errStopped  = errors.New("cluster: run stopped")
	errNodeDown = errors.New("cluster: node down")
	errBusy     = errors.New("cluster: node busy")
	// errLost marks a speculative flight whose rival finished first; its
	// outcome is discarded without requeue or charge.
	errLost = errors.New("cluster: speculative race lost")
	// errEvicted marks a flight cancelled because its node retired; the
	// shard is requeued without charging its retry budget.
	errEvicted = errors.New("cluster: node retired mid-shard")
	// errNoNodesLeft fails a run whose registry drained.
	errNoNodesLeft = errors.New("cluster: every node retired")
)

// shrunkError carries a committed steal back to the node loop: the
// straggler's job was cancelled, the back half of its remaining range is
// already in the pool, and the loop must immediately re-run the front
// half on the same node.
type shrunkError struct{ front check.Shard }

func (e *shrunkError) Error() string {
	return fmt.Sprintf("cluster: shard shrunk to [%d,+%d)", e.front.Offset, e.front.Count)
}

// fatalError wraps a node response that retrying elsewhere cannot fix —
// the service rejected the submission as invalid.
type fatalError struct{ msg string }

func (e *fatalError) Error() string { return e.msg }

// Check runs req — a whole-domain submission in the service's wire format
// — across the fleet and returns the merged report. The request must not
// itself be sharded; the coordinator owns the split. Cancelling ctx
// cancels every in-flight job and returns ctx's error.
func (c *Coordinator) Check(ctx context.Context, req service.CheckRequest) (*Report, error) {
	if req.Sharded() {
		return nil, errors.New("cluster: request already sharded; the coordinator owns the split")
	}
	prog, err := flowchart.Parse(req.Program)
	if err != nil {
		return nil, fmt.Errorf("cluster: program: %w", err)
	}
	values := req.Domain
	if len(values) == 0 {
		values = []int64{0, 1, 2}
	}
	req.Domain = values
	size := sweep.Size(core.Grid(prog.Arity(), values...))
	if size == math.MaxInt {
		return nil, errors.New("cluster: domain product overflows the index space")
	}
	shards := splitIndexSpace(size, c.shardCount(size))

	c.metrics.checks.Inc()
	start := time.Now()
	r := newRunner(ctx, c, req, shards)
	go c.registry.probeLoop(r.stopCtx, c.client)
	go r.membershipLoop()
	go r.supervise()
	// Spawn the node loops from a registry snapshot taken after the
	// membership watch started, so no change is missed — and a registry
	// an earlier check drained fails this one at once.
	r.reconcile()
	r.waitDone()
	r.stop() // release the stop context in every exit path

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r.fatal != nil && !r.definitive {
		return nil, r.fatal
	}
	rep, err := r.report()
	if err != nil {
		return nil, err
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// shardCount resolves the fan-out for a domain of the given size.
func (c *Coordinator) shardCount(size int) int {
	n := c.cfg.Shards
	if n <= 0 {
		n = DefaultShardsPerNode * max(len(c.registry.Alive()), 1)
	}
	if size > 0 && n > size {
		n = size
	}
	if n < 1 {
		n = 1
	}
	return n
}

// splitIndexSpace cuts [0, size) into n contiguous near-equal shards.
func splitIndexSpace(size, n int) []check.Shard {
	shards := make([]check.Shard, 0, n)
	base, rem := size/n, size%n
	offset := int64(0)
	for i := 0; i < n; i++ {
		count := int64(base)
		if i < rem {
			count++
		}
		shards = append(shards, check.Shard{Offset: offset, Count: count})
		offset += count
	}
	return shards
}

// pendingEntry is one unit of dispatchable work: a shard, plus whether it
// is a speculative duplicate of a range already in flight elsewhere, or
// the shrunk front of a committed steal.
type pendingEntry struct {
	sh          check.Shard
	speculative bool
	shrunk      bool
}

// runner is the state of one distributed check: a pool of pending shards,
// the per-shard retry ledger, and the completed results. Node goroutines
// pull shards from it; any definitive counterexample or fatal error stops
// the pool. Every attempt is tracked as a flight (for the steal/speculate
// supervisor and for settling speculative rivals), and node loops are
// spawned and retired as the registry changes.
type runner struct {
	c   *Coordinator
	req service.CheckRequest

	ctx     context.Context
	stopCtx context.Context
	stop    context.CancelFunc

	mu          sync.Mutex
	cond        *sync.Cond
	pending     []pendingEntry
	outstanding int // shards not yet completed
	attempts    map[int64]int
	results     map[int64]*service.Result
	nodes       map[string]*NodeReport
	retries     int
	cancelled   int
	fatal       error
	definitive  bool
	stopped     bool
	// cut is, once a shard returned a definitive counterexample, the
	// index below which every shard must complete before the run stops.
	cut int64

	// flights is every shard attempt currently on a node; idle counts
	// node loops blocked in next with nothing to pull; loopsActive and
	// started govern the dynamic loop-per-node lifecycle; shardDurs
	// collects completed shard wall times for the steal baseline.
	flights     map[*flight]struct{}
	idle        int
	loopsActive int
	started     map[string]bool
	shardDurs   []time.Duration
	stolen      int
	speculated  int
	// joined0 and left0 are the registry's lifetime join/leave tallies
	// when the check started; the report carries the difference.
	joined0, left0 int
}

func newRunner(ctx context.Context, c *Coordinator, req service.CheckRequest, shards []check.Shard) *runner {
	stopCtx, stop := context.WithCancel(ctx)
	r := &runner{
		c:           c,
		req:         req,
		ctx:         ctx,
		stopCtx:     stopCtx,
		stop:        stop,
		outstanding: len(shards),
		attempts:    make(map[int64]int),
		results:     make(map[int64]*service.Result),
		nodes:       make(map[string]*NodeReport),
		flights:     make(map[*flight]struct{}),
		started:     make(map[string]bool),
	}
	for _, sh := range shards {
		r.pending = append(r.pending, pendingEntry{sh: sh})
	}
	r.cond = sync.NewCond(&r.mu)
	r.joined0, r.left0 = c.registry.counts()
	for _, m := range c.registry.Members() {
		r.nodes[m.URL] = &NodeReport{URL: m.URL}
	}
	// Wake waiters when the caller's context dies so node loops never
	// block past cancellation.
	context.AfterFunc(stopCtx, func() {
		r.mu.Lock()
		r.stopped = true
		r.mu.Unlock()
		r.cond.Broadcast()
	})
	return r
}

// nodeRep returns the node's report row, creating one for nodes that
// joined after the run started. Callers hold r.mu.
func (r *runner) nodeRep(node string) *NodeReport {
	nr := r.nodes[node]
	if nr == nil {
		nr = &NodeReport{URL: node}
		r.nodes[node] = nr
	}
	return nr
}

// spawnLoop starts a node loop unless the run is over or the node already
// has one. Used both for the initial fleet and for mid-check joiners.
func (r *runner) spawnLoop(node string) {
	r.mu.Lock()
	if r.stopped || r.outstanding == 0 || r.started[node] {
		r.mu.Unlock()
		return
	}
	r.started[node] = true
	r.loopsActive++
	r.nodeRep(node)
	r.mu.Unlock()
	go func() {
		defer func() {
			r.mu.Lock()
			r.loopsActive--
			r.started[node] = false
			r.mu.Unlock()
			r.cond.Broadcast()
		}()
		r.nodeLoop(node)
	}()
}

// waitDone blocks until the run is decided (all shards complete, or
// stopped) and every node loop has wound down — after which the results
// map is immutable and safe to merge.
func (r *runner) waitDone() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for !((r.stopped || r.outstanding == 0) && r.loopsActive == 0) {
		r.cond.Wait()
	}
}

// next blocks until a shard is available, every shard has completed, or
// the run stopped. The second return is false when the node should exit.
func (r *runner) next() (pendingEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.stopped || r.outstanding == 0 {
			return pendingEntry{}, false
		}
		if len(r.pending) > 0 {
			e := r.pending[0]
			r.pending = r.pending[1:]
			if e.speculative && r.results[e.sh.Offset] != nil {
				// The primary finished while this duplicate waited.
				continue
			}
			if r.definitive && e.sh.Offset >= r.cut {
				// A counterexample below this shard already decides
				// everything it could have.
				continue
			}
			return e, true
		}
		// Shards are all in flight on other nodes; one may yet fail and
		// come back to the pool — and an idle loop here is the capacity
		// signal that triggers stealing and speculation.
		r.idle++
		r.cond.Wait()
		r.idle--
	}
}

// giveBack returns an undispatched entry to the pool (the loop pulled it
// but cannot run it — its node retired between next and submit).
func (r *runner) giveBack(e pendingEntry) {
	r.mu.Lock()
	r.pending = append([]pendingEntry{e}, r.pending...)
	r.mu.Unlock()
	r.cond.Broadcast()
}

// complete records a finished shard and short-circuits the pool when its
// result is a definitive counterexample. Exactly one result per shard
// offset is kept: a speculative duplicate arriving second is discarded
// (keeping the merge input duplicate-free), and a win cancels the losing
// rival flights.
func (r *runner) complete(node string, e pendingEntry, res *service.Result, fl *flight) {
	r.mu.Lock()
	off := e.sh.Offset
	if r.results[off] != nil {
		// A rival already decided this range; this copy lost the race
		// after the cancel missed it. Drop the result.
		r.mu.Unlock()
		return
	}
	r.results[off] = res
	r.outstanding--
	r.nodeRep(node).Shards++
	r.c.metrics.shards.Inc()
	r.shardDurs = append(r.shardDurs, time.Since(fl.started))
	// Settle rivals: in-flight twins lose, queued duplicates evaporate.
	var losers []*flight
	for other := range r.flights {
		if other != fl && other.sh.Offset == off && !other.gone() {
			other.lost.Store(true)
			losers = append(losers, other)
		}
	}
	if len(losers) > 0 || len(r.pending) > 0 {
		kept := r.pending[:0]
		for _, p := range r.pending {
			if !(p.speculative && p.sh.Offset == off) {
				kept = append(kept, p)
			}
		}
		r.pending = kept
	}
	if !res.Sound || (res.Maximal != nil && !*res.Maximal) {
		// On an ascending domain the index order is the witness order, so
		// once every shard below this one is in, no shard above it can
		// hold a lesser conflict: the merged witness is the whole
		// domain's. On any other domain stop at once.
		cut := int64(0)
		if slices.IsSorted(r.req.Domain) && len(slices.Compact(slices.Clone(r.req.Domain))) == len(r.req.Domain) {
			cut = off
		}
		if !r.definitive || cut < r.cut {
			r.cut = cut
		}
		r.definitive = true
	}
	halt := r.definitive && !r.stopped && r.coveredLocked(r.cut)
	if halt {
		r.stopped = true
	}
	done := r.outstanding == 0
	r.mu.Unlock()
	for _, other := range losers {
		other.abort()
		go r.cancelJob(other.node, other.id)
	}
	if halt {
		r.stop()
	}
	if halt || done {
		r.cond.Broadcast()
	} else {
		r.cond.Signal()
	}
}

// coveredLocked reports whether the completed shards cover [0, end).
// Callers hold r.mu.
func (r *runner) coveredLocked(end int64) bool {
	covered := int64(0)
	for _, off := range slices.Sorted(maps.Keys(r.results)) {
		if covered >= end || off > covered {
			break
		}
		covered = max(covered, off+r.results[off].Count)
	}
	return covered >= end
}

// addFlight / removeFlight bracket one shard attempt for the supervisor.
func (r *runner) addFlight(fl *flight) {
	r.mu.Lock()
	r.flights[fl] = struct{}{}
	r.mu.Unlock()
}

func (r *runner) removeFlight(fl *flight) {
	r.mu.Lock()
	delete(r.flights, fl)
	r.mu.Unlock()
}

// commitSplit finalizes a steal once the straggler's cancellation is
// observed: the stolen back half enters the pool as a brand-new shard
// (fresh retry budget — it is new work, not a failure) and the shard
// count grows by one.
func (r *runner) commitSplit(intent splitIntent) {
	r.c.metrics.stolen.Inc()
	r.mu.Lock()
	r.outstanding++
	r.stolen++
	r.pending = append(r.pending, pendingEntry{sh: intent.back})
	r.mu.Unlock()
	r.cond.Signal()
}

// requeue hands a failed shard back to the pool. A genuine failure
// charges the shard's retry budget — exhausting it is fatal for the whole
// check — while a busy refusal or an eviction (charge false) does not:
// the node is healthy or merely leaving, and neither must convert into a
// permanent failure. The caller's context bounds how long a perpetually
// busy fleet can spin.
//
// Speculation complicates the ledger: a range whose result already
// arrived (the twin won) needs no requeue at all, a failed speculative
// copy whose primary is still flying is simply dropped, and a failed
// primary whose twin is still flying promotes the twin instead of
// requeuing — the range must be owned by exactly one live attempt or
// pool entry at all times.
func (r *runner) requeue(node string, e pendingEntry, cause error, charge bool) {
	r.mu.Lock()
	defer func() {
		r.mu.Unlock()
		r.cond.Broadcast()
	}()
	r.nodeRep(node).Failures++
	if r.stopped {
		return
	}
	sh := e.sh
	if r.results[sh.Offset] != nil {
		return // a rival already finished this range
	}
	if twin := r.rivalFlightLocked(sh.Offset, node); twin != nil {
		if e.speculative {
			return // the primary is still flying
		}
		// The primary died; its speculative twin inherits the range.
		twin.spec.Store(false)
		return
	}
	// A failing speculative copy with no surviving primary inherits the
	// primary role and requeues under the normal rules.
	if charge {
		r.attempts[sh.Offset]++
		if r.attempts[sh.Offset] > r.c.cfg.Retries {
			r.failLocked(fmt.Errorf("cluster: shard [%d,+%d) failed %d times, last on %s: %w",
				sh.Offset, sh.Count, r.attempts[sh.Offset], node, cause))
			return
		}
	}
	r.retries++
	r.c.metrics.retries.Inc()
	r.pending = append(r.pending, pendingEntry{sh: sh})
}

// rivalFlightLocked finds another live flight covering the offset, if
// any. Callers hold r.mu.
func (r *runner) rivalFlightLocked(offset int64, excludeNode string) *flight {
	for fl := range r.flights {
		if fl.sh.Offset == offset && !fl.gone() && fl.node != excludeNode {
			return fl
		}
	}
	return nil
}

// nodeDead retires a node; with no usable nodes left the check fails. The
// registry is the source of truth, so the node stays out of this check and
// every later one on the coordinator until a Join revives it.
func (r *runner) nodeDead(node string) {
	r.c.registry.retire(node)
	r.mu.Lock()
	r.nodeRep(node).Dead = true
	if len(r.c.registry.Alive()) == 0 && !r.stopped {
		r.failLocked(errNoNodesLeft)
	}
	r.mu.Unlock()
	r.cond.Broadcast()
}

// failLocked records a fatal error and stops the pool. Callers hold r.mu;
// stop is safe here because context.AfterFunc runs its callback (which
// re-acquires the mutex) in its own goroutine.
func (r *runner) failLocked(err error) {
	if r.fatal == nil {
		r.fatal = err
	}
	r.stopped = true
	r.stop()
}

// nodeLoop pulls shards and runs them on one node until the pool drains,
// the run stops, or the node dies or retires. A shrunk shard — the
// supervisor stole its back half — re-runs its front half on the same
// node immediately, without a round-trip through the pool.
func (r *runner) nodeLoop(node string) {
	for {
		e, ok := r.next()
		if !ok {
			return
		}
		if !r.c.registry.usable(node) {
			r.giveBack(e)
			return
		}
	attempt:
		res, fl, err := r.runShard(node, e)
		switch {
		case err == nil:
			r.complete(node, e, res, fl)
		case errors.Is(err, errStopped):
			// The pool stopped while this shard was in flight; it is
			// deliberately not completed and not requeued.
			return
		case errors.Is(err, errLost):
			// A speculative rival finished first; nothing to do.
			continue
		case errors.Is(err, errEvicted):
			r.requeue(node, e, err, false)
			return
		case errors.Is(err, errNodeDown):
			r.requeue(node, e, err, true)
			r.nodeDead(node)
			return
		case errors.Is(err, errBusy):
			r.requeue(node, e, err, false)
			continue
		default:
			var se *shrunkError
			if errors.As(err, &se) {
				e = pendingEntry{sh: se.front, shrunk: true}
				goto attempt
			}
			var fe *fatalError
			if errors.As(err, &fe) {
				r.mu.Lock()
				r.failLocked(fmt.Errorf("cluster: node %s rejected shard [%d,+%d): %s", node, e.sh.Offset, e.sh.Count, fe.msg))
				r.mu.Unlock()
				r.cond.Broadcast()
				return
			}
			r.requeue(node, e, err, true)
		}
	}
}

// runShard executes one shard attempt on one node: submit, watch (SSE
// with poll fallback) to a terminal state, and return the result plus the
// flight that produced it. On coordinator stop the in-flight job is
// cancelled server-side (DELETE /v2/jobs/{id}) before returning.
func (r *runner) runShard(node string, e pendingEntry) (*service.Result, *flight, error) {
	req := r.req
	req.Offset = e.sh.Offset
	req.Count = e.sh.Count
	// Every shard of the run submits the same program text, so after the
	// first shard the node's content-addressed compile cache answers and
	// the job goes straight to the sweep.
	id, err := r.submit(node, req)
	if err != nil {
		return nil, nil, err
	}
	fl := newFlight(r.stopCtx, node, id, e)
	defer fl.abort()
	r.addFlight(fl)
	defer r.removeFlight(fl)
	if !r.c.registry.usable(node) {
		// The node retired after the pull; the eviction that followed may
		// have scanned the flights before this one joined them.
		r.evict(fl)
	}
	res, err := r.watch(node, id, fl)
	return res, fl, err
}

// submitTimeout bounds one shard POST. It matches the default client's
// own bound; the POST does not ride the stop context (see submit).
const submitTimeout = 30 * time.Second

// submit POSTs the shard to the node, absorbing transient 503s with a
// short backoff before giving the shard back to the pool. A 200 is a
// verdict-store hit on a store-backed node: the job is already done, and
// watching it yields the stored result.
//
// The POST runs under its own timeout, not the stop context: a run that
// stops after the node has accepted the job but before its 202 arrives
// must still learn the job's id, or the node sweeps an orphan nobody
// cancels. A job accepted after the run stopped is cancelled at once.
func (r *runner) submit(node string, req service.CheckRequest) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", &fatalError{msg: err.Error()}
	}
	backoff := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		if r.stopCtx.Err() != nil {
			return "", errStopped
		}
		payload, status, err := r.post(node, body)
		var fe *fatalError
		switch {
		case errors.As(err, &fe):
			return "", err
		case err != nil && r.stopCtx.Err() != nil:
			return "", errStopped
		case err != nil:
			return "", fmt.Errorf("%w: %s: %v", errNodeDown, node, err)
		}
		switch {
		case status == http.StatusAccepted || status == http.StatusOK:
			var sub service.SubmitResponse
			if err := json.Unmarshal(payload, &sub); err != nil || sub.ID == "" {
				return "", fmt.Errorf("%w: %s: bad submit response", errNodeDown, node)
			}
			if r.stopCtx.Err() != nil {
				r.cancelJob(node, sub.ID)
				return "", errStopped
			}
			return sub.ID, nil
		case status == http.StatusServiceUnavailable:
			if attempt >= busySubmitRetries {
				return "", fmt.Errorf("%w: %s", errBusy, node)
			}
			select {
			case <-r.stopCtx.Done():
				return "", errStopped
			case <-time.After(backoff):
			}
			if backoff < time.Second {
				backoff *= 2
			}
		case status == http.StatusBadRequest || status == http.StatusRequestEntityTooLarge:
			return "", &fatalError{msg: fmt.Sprintf("%d: %s", status, errorMessage(payload))}
		default:
			return "", fmt.Errorf("%w: %s: unexpected status %d", errNodeDown, node, status)
		}
	}
}

// post sends one shard submission and reads the node's answer under
// submitTimeout. A request that cannot be built, or an answer over
// maxResponseBytes, is a fatalError: no node would do better.
func (r *runner) post(node string, body []byte) ([]byte, int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), submitTimeout)
	defer cancel()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/v2/check", bytes.NewReader(body))
	if err != nil {
		return nil, 0, &fatalError{msg: err.Error()}
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := r.c.client.Do(httpReq)
	if err != nil {
		return nil, 0, err
	}
	payload, status, err := readBody(resp)
	if errors.Is(err, errResponseTooLarge) {
		return nil, status, &fatalError{msg: err.Error()}
	}
	return payload, status, err
}

// poll is the fallback behind the SSE watch: it follows the job until a
// terminal state, checking immediately and then every DefaultPoll, and
// keeps the flight's cursor fed from the status snapshots. An abandoned
// flight returns at once (see abandoned); repeated poll failures mark the
// node dead.
func (r *runner) poll(node, id string, fl *flight) (*service.Result, error) {
	failures := 0
	for {
		st, err := r.jobStatus(fl.ctx, node, id)
		switch {
		case errors.Is(err, errResponseTooLarge):
			// Any node would produce the same oversized result for this
			// shard; retrying elsewhere cannot fix it.
			return nil, &fatalError{msg: err.Error()}
		case err != nil && fl.ctx.Err() != nil:
			return nil, r.abandoned(fl)
		case err != nil:
			failures++
			if failures >= maxPollFailures {
				return nil, fmt.Errorf("%w: %s: %v", errNodeDown, node, err)
			}
		default:
			failures = 0
			fl.observe(st)
			if res, terr, terminal := r.terminalStatus(node, id, st, fl); terminal {
				return res, terr
			}
		}
		select {
		case <-fl.ctx.Done():
			return nil, r.abandoned(fl)
		case <-time.After(DefaultPoll):
		}
	}
}

// abandoned names why a flight's context ended before its job did: the
// coordinator stopped (the job is cancelled server-side here), a rival
// won the speculative race, or the node retired. The last two already
// sent their cancel; returning without waiting for the node to confirm it
// keeps a frozen node from holding the shard.
func (r *runner) abandoned(fl *flight) error {
	switch {
	case r.stopCtx.Err() != nil:
		r.cancelJob(fl.node, fl.id)
		return errStopped
	case fl.lost.Load():
		return errLost
	default:
		return errEvicted
	}
}

// terminalStatus interprets one status snapshot, shared by the SSE watch
// and the poll loop. The third return is false while the job is still
// queued or running. A cancellation is disambiguated by who asked for
// it: the coordinator's short-circuit, a lost speculative race, a node
// eviction, or a steal — in which case the split commits here, exactly
// once, and the loop is told to re-run the shrunk front half. A
// cancellation nobody asked for is an external actor and counts as a
// normal failure.
func (r *runner) terminalStatus(node, id string, st *service.JobStatus, fl *flight) (*service.Result, error, bool) {
	switch st.State {
	case service.StateDone:
		if st.Result == nil {
			return nil, fmt.Errorf("cluster: %s: job %s done without result", node, id), true
		}
		return st.Result, nil, true
	case service.StateFailed:
		return nil, fmt.Errorf("cluster: %s: job %s failed: %s", node, id, st.Error), true
	case service.StateCancelled:
		if r.stopCtx.Err() != nil {
			return nil, errStopped, true
		}
		if fl.lost.Load() {
			return nil, errLost, true
		}
		if fl.evicted.Load() {
			return nil, errEvicted, true
		}
		if intent, ok := fl.takeShrink(); ok {
			r.commitSplit(intent)
			return nil, &shrunkError{front: intent.front}, true
		}
		return nil, fmt.Errorf("cluster: %s: job %s cancelled externally", node, id), true
	}
	return nil, nil, false
}

// jobStatus GETs one status snapshot. The request rides the flight's
// context so a short-circuit or an eviction aborts even a poll blocked on
// an unresponsive node.
func (r *runner) jobStatus(ctx context.Context, node, id string) (*service.JobStatus, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/v2/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.c.client.Do(httpReq)
	if err != nil {
		return nil, err
	}
	payload, status, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, errorMessage(payload))
	}
	var st service.JobStatus
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// cancelJob best-effort cancels a job on its node, counting the cancels
// the node confirms. The request deliberately uses a fresh context: the
// stop or flight context that prompted the cancel may already be done.
func (r *runner) cancelJob(node, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodDelete, node+"/v2/jobs/"+id, nil)
	if err != nil {
		return
	}
	resp, err := r.c.client.Do(httpReq)
	if err != nil {
		return
	}
	if _, status, _ := readBody(resp); status == http.StatusOK {
		r.c.metrics.cancelled.Inc()
		r.mu.Lock()
		r.cancelled++
		r.mu.Unlock()
	}
}

// report merges the completed shard results into the final verdicts.
func (r *runner) report() (*Report, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.results) == 0 {
		if r.fatal != nil {
			return nil, r.fatal
		}
		return nil, errors.New("cluster: no shard completed")
	}
	offsets := make([]int64, 0, len(r.results))
	for off := range r.results {
		offsets = append(offsets, off)
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })

	soundParts := make([]check.Verdict, 0, len(offsets))
	var maxParts []check.Verdict
	for _, off := range offsets {
		res := r.results[off]
		soundParts = append(soundParts, soundnessVerdict(res))
		if res.Maximal != nil {
			maxParts = append(maxParts, maximalityVerdict(res))
		}
	}
	rep := &Report{
		Complete:   r.outstanding == 0,
		Shards:     r.outstanding + len(r.results),
		Completed:  len(r.results),
		Retries:    r.retries,
		Cancelled:  r.cancelled,
		Stolen:     r.stolen,
		Speculated: r.speculated,
	}
	joined, left := r.c.registry.counts()
	rep.Joined, rep.Left = joined-r.joined0, left-r.left0
	merged, err := check.Merge(soundParts...)
	if err != nil {
		return nil, err
	}
	rep.Soundness = merged
	if len(maxParts) > 0 {
		if rep.Maximality, err = mergeMaximality(maxParts, rep.Complete); err != nil {
			return nil, err
		}
	}
	// Membership order, with each node's final health state; a retired
	// node reads as dead whether it failed or left politely.
	for _, m := range r.c.registry.Members() {
		nr := r.nodeRep(m.URL)
		nr.State = m.State
		if m.State == NodeRetired {
			nr.Dead = true
		}
		rep.Nodes = append(rep.Nodes, *nr)
	}
	return rep, nil
}

// mergeMaximality merges the shards' maximality verdicts. On full
// coverage the merged verdict is exact. On partial coverage (a
// short-circuit) only some deviations are definitive: a leak (Q varied
// within seen data; passing is wrong either way) or an alter (m passed
// disagreeing with Q at the same input — a leak instead if the class
// turns out varying, non-maximal either way). A withhold is *correct* if
// a missing shard flips the class to varying, so withhold evidence is
// dropped before the merge ranks the rest, and an affirmative is not
// rendered as a whole-domain claim (nil).
func mergeMaximality(parts []check.Verdict, complete bool) (*check.Verdict, error) {
	if !complete {
		for i := range parts {
			classes := make(map[string]core.ClassSummary, len(parts[i].Classes))
			for view, cs := range parts[i].Classes {
				cs.WithholdWitness = nil
				classes[view] = cs
			}
			parts[i].Classes = classes
		}
	}
	mv, err := check.Merge(parts...)
	if err != nil || (!complete && mv.Maximal) {
		return nil, err
	}
	return &mv, nil
}

// soundnessVerdict reconstructs the shard's partial soundness verdict from
// the wire result.
func soundnessVerdict(res *service.Result) check.Verdict {
	return check.Verdict{
		Kind:        check.Soundness,
		Mechanism:   res.Mechanism,
		Policy:      res.Policy,
		Observation: res.Observation,
		Checked:     res.Checked,
		Sound:       res.Sound,
		WitnessA:    res.WitnessA,
		WitnessB:    res.WitnessB,
		ObsA:        res.ObsA,
		ObsB:        res.ObsB,
		Shard:       check.Shard{Offset: res.Offset, Count: res.Count},
		Views:       res.Views,
	}
}

// maximalityVerdict reconstructs the shard's partial maximality verdict,
// which carries the shard's soundness verdict and evidence as well: the
// node decided both in one pass over the shard.
func maximalityVerdict(res *service.Result) check.Verdict {
	v := soundnessVerdict(res)
	v.Kind = check.Maximality
	v.Program = res.Program
	v.Maximal = *res.Maximal
	v.Witness, v.Reason = res.MaximalWitness, res.MaximalReason
	v.Classes = res.Classes
	return v
}

// maxResponseBytes bounds one node response. Evidence tables scale with
// the class count, which a permissive policy makes the shard span, so the
// bound is generous — and overflowing it is reported as its own error
// (the shard is misconfigured, not the node dead).
const maxResponseBytes = 64 << 20

// errResponseTooLarge marks a node response over maxResponseBytes:
// retrying it (on this node or another) would produce the same payload,
// so it is escalated as fatal rather than counted as node death.
var errResponseTooLarge = errors.New("cluster: node response exceeds 64MiB (shard evidence too large; use more shards or a narrower policy)")

// readBody drains and closes an HTTP response, bounding the read.
func readBody(resp *http.Response) ([]byte, int, error) {
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return nil, 0, err
	}
	if len(payload) > maxResponseBytes {
		return nil, resp.StatusCode, errResponseTooLarge
	}
	return payload, resp.StatusCode, nil
}

// errorMessage extracts the message of the service's error envelope
// ({"error": {"code", "message"}}), falling back to the raw payload.
func errorMessage(payload []byte) string {
	var e struct {
		Error service.ErrorBody `json:"error"`
	}
	if json.Unmarshal(payload, &e) == nil && e.Error.Message != "" {
		return e.Error.Message
	}
	return strings.TrimSpace(string(payload))
}
