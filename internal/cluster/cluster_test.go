package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spm/internal/check"
	"spm/internal/core"
	"spm/internal/flowchart"
	"spm/internal/lattice"
	"spm/internal/service"
	"spm/internal/surveillance"
)

// soundProg leaks x1 on the x2 != 0 path, so under allow(2) the bare
// program is unsound and the instrumented one sound — the repo's standard
// fixture, here swept over a five-digit-per-axis grid.
const soundProg = `
program demo
inputs x1 x2
    r := x1
    r := 0
    if x2 == 0 goto Zero else NonZero
Zero:    y := r
         halt
NonZero: y := x1
         halt
`

// startNode brings up one in-process spm serve worker.
func startNode(t *testing.T, cfg service.Config) (*service.Service, *httptest.Server) {
	t.Helper()
	svc := service.New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, srv
}

// bigDomain returns n consecutive values, for building ≥100k-tuple grids.
func bigDomain(n int) []int64 {
	dom := make([]int64, n)
	for i := range dom {
		dom[i] = int64(i)
	}
	return dom
}

// localVerdict runs the same check single-node through check.Run, building
// the mechanism exactly the way the service's compile cache does, so the
// names (and hence the whole verdict) are comparable byte for byte.
func localVerdict(t *testing.T, req service.CheckRequest) check.Verdict {
	t.Helper()
	p := flowchart.MustParse(req.Program)
	allowed, err := service.ParsePolicy(req.Policy, p.Arity())
	if err != nil {
		t.Fatal(err)
	}
	var m core.Mechanism = core.FromProgram(p)
	if !req.Raw {
		m, err = surveillance.Mechanism(p, allowed, surveillance.Untimed)
		if err != nil {
			t.Fatal(err)
		}
	}
	v, err := check.Run(context.Background(), check.Spec{
		Kind:      check.Soundness,
		Mechanism: m,
		Policy:    core.NewAllowSet(p.Arity(), allowed),
		Domain:    core.Grid(p.Arity(), req.Domain...),
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// failFirstSubmit wraps a node handler, injecting one shard failure: the
// first job submitted through it is accepted and then immediately
// cancelled server-side, so the coordinator sees the shard die and must
// re-dispatch it.
func failFirstSubmit(svc *service.Service, inner http.Handler) http.Handler {
	var injected atomic.Bool
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v2/check" && injected.CompareAndSwap(false, true) {
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			if rec.Code == http.StatusAccepted {
				var sub service.SubmitResponse
				if json.Unmarshal(rec.Body.Bytes(), &sub) == nil && sub.ID != "" {
					svc.Cancel(sub.ID)
				}
			}
			for k, vs := range rec.Header() {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
			return
		}
		inner.ServeHTTP(w, r)
	})
}

// holdStatusUntilAllWatched wraps node handlers so that GET /v2/jobs/…
// (status and event stream) blocks until every wrapped node has received
// one. The coordinator asks a node about a job only after reading the
// node's 202 for it, so no shard's verdict can land before every node
// holds a job the coordinator knows how to cancel. (Holding only until
// each node has accepted a POST is not enough: a short-circuit can cut
// off a POST whose 202 is already written but not yet read.)
func holdStatusUntilAllWatched(handlers ...http.Handler) []http.Handler {
	open := make(chan struct{})
	var waiting atomic.Int32
	waiting.Store(int32(len(handlers)))
	out := make([]http.Handler, len(handlers))
	for i, inner := range handlers {
		var watched sync.Once
		out[i] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v2/jobs/") {
				watched.Do(func() {
					if waiting.Add(-1) == 0 {
						close(open)
					}
				})
				select {
				case <-open:
				case <-r.Context().Done():
					return
				}
			}
			inner.ServeHTTP(w, r)
		})
	}
	return out
}

// TestClusterByteIdenticalWithInjectedFailure is the acceptance check: a
// 2-worker cluster over a 102,400-tuple sweep, with one shard killed
// mid-flight on one worker, still produces a verdict byte-identical to
// single-node check.Run.
func TestClusterByteIdenticalWithInjectedFailure(t *testing.T) {
	req := service.CheckRequest{
		Program: soundProg,
		Policy:  "{2}",
		Domain:  bigDomain(320), // 320^2 = 102,400 tuples
	}

	_, srvA := startNode(t, service.Config{Runners: 2})
	svcB := service.New(service.Config{Runners: 2})
	srvB := httptest.NewServer(failFirstSubmit(svcB, svcB.Handler()))
	t.Cleanup(func() {
		srvB.Close()
		svcB.Close()
	})

	coord, err := New(Config{
		Nodes:  []string{srvA.URL, srvB.URL},
		Shards: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Check(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || rep.Completed != rep.Shards {
		t.Fatalf("run incomplete: %+v", rep)
	}
	if rep.Retries < 1 {
		t.Fatalf("injected shard failure produced no re-dispatch: %+v", rep)
	}

	want := localVerdict(t, req)
	if !reflect.DeepEqual(rep.Soundness, want) {
		t.Fatalf("merged verdict differs from single-node check.Run:\n  %+v\nvs\n  %+v", rep.Soundness, want)
	}
	gotJSON, _ := json.Marshal(rep.Soundness)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("verdicts not byte-identical:\n  %s\nvs\n  %s", gotJSON, wantJSON)
	}
	if rep.Soundness.String() != want.String() {
		t.Fatalf("rendered verdicts differ:\n  %s\nvs\n  %s", rep.Soundness, want)
	}
	if !rep.Soundness.Sound || rep.Soundness.Checked != 102400 {
		t.Fatalf("unexpected verdict content: %+v", rep.Soundness)
	}
}

// TestClusterUnsoundCrossShard distributes the bare (leaky) fixture: the
// counterexamples pair inputs from different index regions, so the verdict
// is only reachable through the cross-shard Views merge.
func TestClusterUnsoundCrossShard(t *testing.T) {
	req := service.CheckRequest{
		Program: soundProg,
		Policy:  "{2}",
		Raw:     true,
		Domain:  bigDomain(32), // 1024 tuples
	}
	_, srvA := startNode(t, service.Config{Runners: 2})
	_, srvB := startNode(t, service.Config{Runners: 2})
	coord, err := New(Config{Nodes: []string{srvA.URL, srvB.URL}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Check(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Soundness.Sound {
		t.Fatalf("bare program reported sound: %+v", rep.Soundness)
	}
	want := localVerdict(t, req)
	if want.Sound {
		t.Fatalf("fixture broken: single-node says sound")
	}
	// Witness pairs are canonical: the merged one is the single-node one.
	got := rep.Soundness
	if !slices.Equal(got.WitnessA, want.WitnessA) || !slices.Equal(got.WitnessB, want.WitnessB) || got.ObsA != want.ObsA || got.ObsB != want.ObsB {
		t.Fatalf("merged witness pair %v/%v (%q/%q), single-node %v/%v (%q/%q)",
			got.WitnessA, got.WitnessB, got.ObsA, got.ObsB, want.WitnessA, want.WitnessB, want.ObsA, want.ObsB)
	}
}

// slowFirstProg leaks x1 everywhere, but the x1=0 slice — the start of
// the first shard, where the least witness pair lies — grinds ~300k steps
// per tuple, so every other shard's counterexample lands first.
const slowFirstProg = `
program slowfirst
inputs x1 x2
    if x1 == 0 goto Slow else Out
Slow: r := 300000 + (x2 & 1)
Loop: if r == 0 goto Out else Body
Body: r := r - 1
      goto Loop
Out:  y := x1 + x2
      halt
`

// TestClusterShortCircuitKeepsLeastWitness: on an ascending domain a
// definitive counterexample stops the run only once every shard below it
// has completed, so the witness pair is the whole domain's even though
// the shard holding it finishes last.
func TestClusterShortCircuitKeepsLeastWitness(t *testing.T) {
	req := service.CheckRequest{
		Program: slowFirstProg,
		Policy:  "{2}",
		Raw:     true,
		Domain:  bigDomain(32), // 1024 tuples; shard 0 is x1 in 0..7
	}
	_, srvA := startNode(t, service.Config{Runners: 2})
	_, srvB := startNode(t, service.Config{Runners: 2})
	coord, err := New(Config{Nodes: []string{srvA.URL, srvB.URL}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Check(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want := localVerdict(t, req)
	got := rep.Soundness
	if got.Sound || !slices.Equal(got.WitnessA, want.WitnessA) || !slices.Equal(got.WitnessB, want.WitnessB) || got.ObsA != want.ObsA || got.ObsB != want.ObsB {
		t.Fatalf("short-circuited witness pair %v/%v (%q/%q), single-node %v/%v (%q/%q)",
			got.WitnessA, got.WitnessB, got.ObsA, got.ObsB, want.WitnessA, want.WitnessB, want.ObsA, want.ObsB)
	}
}

// slowSoundProg spends ~15k steps per tuple and then reveals only x2 —
// sound under allow(2), slow enough that a node can be killed mid-sweep.
const slowSoundProg = `
program slowsound
inputs x1 x2
    r := 5000 + (x2 & 1)
Loop: if r == 0 goto Done else Body
Body: r := r - 1
      goto Loop
Done: y := x2
      halt
`

func TestClusterNodeDeathMidSweepReassigns(t *testing.T) {
	req := service.CheckRequest{
		Program: slowSoundProg,
		Policy:  "{2}",
		Raw:     true,
		Domain:  bigDomain(128), // 16,384 tuples × ~15k steps
	}
	_, srvA := startNode(t, service.Config{Runners: 2})
	svcB := service.New(service.Config{Runners: 2})
	srvB := httptest.NewServer(svcB.Handler())
	t.Cleanup(svcB.Close)

	coord, err := New(Config{Nodes: []string{srvA.URL, srvB.URL}, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var rep *Report
	var checkErr error
	go func() {
		defer close(done)
		rep, checkErr = coord.Check(context.Background(), req)
	}()
	// Give the fleet time to start sweeping, then kill node B hard.
	time.Sleep(100 * time.Millisecond)
	srvB.CloseClientConnections()
	srvB.Close()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("cluster check hung after node death")
	}
	if checkErr != nil {
		t.Fatalf("check failed despite a surviving node: %v", checkErr)
	}
	if !rep.Complete {
		t.Fatalf("run incomplete: %+v", rep)
	}
	var dead *NodeReport
	for i := range rep.Nodes {
		if rep.Nodes[i].URL == srvB.URL {
			dead = &rep.Nodes[i]
		}
	}
	if dead == nil || !dead.Dead {
		t.Fatalf("killed node not marked dead: %+v", rep.Nodes)
	}
	want := localVerdict(t, req)
	if !reflect.DeepEqual(rep.Soundness, want) {
		t.Fatalf("verdict after node death differs from single-node:\n  %+v\nvs\n  %+v", rep.Soundness, want)
	}
}

// skewProg is unsound in the cheap x1=0 slice (it reveals x2 under an
// allow-nothing policy) and grinds ~900k steps per tuple everywhere else,
// so the first shard's counterexample lands while later shards are
// mid-sweep — exercising the short-circuit cancellation.
const skewProg = `
program skew
inputs x1 x2
    if x1 == 0 goto Fast else Slow
Fast: y := x2
      halt
Slow: r := 300000 + (x2 & 1)
Loop: if r == 0 goto Done else Body
Body: r := r - 1
      goto Loop
Done: y := 0
      halt
`

func TestClusterCounterexampleShortCircuits(t *testing.T) {
	req := service.CheckRequest{
		Program: skewProg,
		Policy:  "{}",
		Raw:     true,
		Maximal: true,
		Domain:  bigDomain(128), // 16384 tuples; shard 0 is exactly the fast x1=0 slice
	}
	// One sweep worker per node keeps every slow shard genuinely slow
	// (hundreds of milliseconds), so the short-circuit demonstrably beats
	// the sweep instead of racing it. Holding status reads until both
	// nodes are watched keeps the fast shard's verdict from landing before
	// the other node has anything in flight to cancel.
	svcA := service.New(service.Config{Runners: 1, SweepWorkers: 1})
	svcB := service.New(service.Config{Runners: 1, SweepWorkers: 1})
	held := holdStatusUntilAllWatched(svcA.Handler(), svcB.Handler())
	srvA, srvB := httptest.NewServer(held[0]), httptest.NewServer(held[1])
	t.Cleanup(func() {
		srvA.Close()
		srvB.Close()
		svcA.Close()
		svcB.Close()
	})
	coord, err := New(Config{Nodes: []string{srvA.URL, srvB.URL}, Shards: 128})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	start := time.Now()
	rep, err := coord.Check(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if rep.Soundness.Sound {
		t.Fatalf("counterexample missed: %+v", rep.Soundness)
	}
	if rep.Complete || rep.Completed >= rep.Shards {
		t.Fatalf("short circuit did not stop the fleet: %d/%d shards completed", rep.Completed, rep.Shards)
	}
	if rep.Cancelled < 1 {
		t.Fatalf("no in-flight shard was cancelled: %+v", rep)
	}
	// The bare program leaks on the seen varying class — definitive on any
	// coverage, so the negative maximality verdict survives the short
	// circuit. (An affirmative or withhold verdict would have been
	// withheld: those need every shard.)
	if rep.Maximality == nil {
		t.Fatalf("definitive maximality leak dropped: %+v", rep)
	}
	if rep.Maximality.Maximal || rep.Maximality.Reason == core.ReasonWithholds {
		t.Fatalf("unexpected partial-coverage maximality verdict: %+v", rep.Maximality)
	}
	// 126 slow shards (~300ms+ each) never ran; the run must finish in a
	// small fraction of the ~20s full-sweep time.
	if elapsed > 15*time.Second {
		t.Fatalf("short-circuited run took %v", elapsed)
	}
}

// TestClusterBusyNodeRetriesInPlace drives the 503 path: one node's queues
// are saturated by a tiny fleet config, and the coordinator's submit
// backoff still lands every shard.
func TestClusterBusyNodeRetriesInPlace(t *testing.T) {
	req := service.CheckRequest{
		Program: soundProg,
		Policy:  "{2}",
		Domain:  bigDomain(16),
	}
	_, srvA := startNode(t, service.Config{Runners: 1, QueueCap: 1})
	coord, err := New(Config{Nodes: []string{srvA.URL}, Shards: 6})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Check(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete {
		t.Fatalf("busy node never drained: %+v", rep)
	}
	want := localVerdict(t, req)
	if !reflect.DeepEqual(rep.Soundness, want) {
		t.Fatalf("verdict differs: %+v vs %+v", rep.Soundness, want)
	}
}

// TestClusterMaximality distributes a maximality check and requires the
// merged verdict to equal the single-node one.
func TestClusterMaximality(t *testing.T) {
	req := service.CheckRequest{
		Program: soundProg,
		Policy:  "{2}",
		Domain:  bigDomain(24), // 576 tuples
		Maximal: true,
	}
	_, srvA := startNode(t, service.Config{Runners: 2})
	_, srvB := startNode(t, service.Config{Runners: 2})
	coord, err := New(Config{Nodes: []string{srvA.URL, srvB.URL}, Shards: 6})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Check(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Maximality == nil {
		t.Fatalf("no maximality verdict: %+v", rep)
	}

	p := flowchart.MustParse(req.Program)
	allowed := lattice.NewIndexSet(2)
	m, err := surveillance.Mechanism(p, allowed, surveillance.Untimed)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := core.CompileMechanism(core.FromProgram(p))
	if err != nil {
		t.Fatal(err)
	}
	want, err := check.Run(context.Background(), check.Spec{
		Kind:      check.Maximality,
		Mechanism: m,
		Program:   bare,
		Policy:    core.NewAllowSet(2, allowed),
		Domain:    core.Grid(2, req.Domain...),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := *rep.Maximality
	if got.Maximal != want.Maximal || got.Checked != want.Checked || got.Reason != want.Reason {
		t.Fatalf("maximality verdict differs:\n  %+v\nvs\n  %+v", got, want)
	}
}

func TestClusterRejectsShardedRequest(t *testing.T) {
	coord, err := New(Config{Nodes: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Check(context.Background(), service.CheckRequest{Program: soundProg, Offset: 5}); err == nil {
		t.Fatal("sharded request accepted")
	}
}

// TestClusterNodeRejectionCarriesMessage has a real node reject every
// shard with 400: the Check error must carry the service envelope's
// message, not the raw JSON.
func TestClusterNodeRejectionCarriesMessage(t *testing.T) {
	_, srv := startNode(t, service.Config{Runners: 1})
	coord, err := New(Config{Nodes: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Check(context.Background(), service.CheckRequest{Program: soundProg, Policy: "{2}", Variant: "bogus"})
	if err == nil {
		t.Fatal("bad variant accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, `400: service: bad request: unknown variant "bogus"`) || strings.Contains(msg, "{") {
		t.Fatalf("error %q: want the envelope's message and no JSON", msg)
	}
}

// splitIndexSpace invariants are property-checked (and fuzzed) in
// split_test.go.

// TestClusterStopCancelsJobAcceptedOnTheWire holds a shard's 202 on the
// wire until the run has stopped. The node has already accepted the job,
// so the coordinator must still read its id and cancel it rather than
// leave it sweeping on the node.
func TestClusterStopCancelsJobAcceptedOnTheWire(t *testing.T) {
	svc := service.New(service.Config{Runners: 1, SweepWorkers: 1})
	inner := svc.Handler()
	accepted := make(chan string, 1)
	release := make(chan struct{})
	var mu sync.Mutex
	var deleted []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodDelete {
			mu.Lock()
			deleted = append(deleted, strings.TrimPrefix(r.URL.Path, "/v2/jobs/"))
			mu.Unlock()
		}
		if r.Method != http.MethodPost || r.URL.Path != "/v2/check" {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		var sub service.SubmitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
			t.Errorf("submit response %q: %v", rec.Body.String(), err)
		}
		accepted <- sub.ID
		<-release
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	coord, err := New(Config{Nodes: []string{srv.URL}, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := coord.Check(ctx, service.CheckRequest{Program: skewProg, Policy: "{}", Raw: true, Domain: bigDomain(16)})
		done <- err
	}()
	id := <-accepted
	cancel() // the run stops while the 202 is still on the wire
	close(release)
	if err := <-done; err == nil {
		t.Fatal("cancelled check returned no error")
	}
	// Check returns only after its node loops have, so the cancel has
	// been sent by now; the node stops the sweep within one chunk.
	mu.Lock()
	defer mu.Unlock()
	if !slices.Contains(deleted, id) {
		t.Fatalf("job %s left sweeping on the node after the run stopped (cancelled: %v)", id, deleted)
	}
}

// TestPartialMaximalityKeepsDefinitiveLeak: after a short-circuit a
// withhold on a class that only looks constant is no evidence, so it must
// not outrank — and so hide — a definitive leak with a larger witness.
func TestPartialMaximalityKeepsDefinitiveLeak(t *testing.T) {
	part := func(off int64, classes map[string]core.ClassSummary) check.Verdict {
		return check.Verdict{Kind: check.Maximality, Mechanism: "m", Program: "q", Policy: "allow()",
			Observation: "value", Checked: 4, Maximal: true, Shard: check.Shard{Offset: off, Count: 4}, Classes: classes}
	}
	withhold := part(0, map[string]core.ClassSummary{
		"a": {QObs: "v=1", QConstant: true, WithholdWitness: []int64{0, 0}},
	})
	leak := part(4, map[string]core.ClassSummary{
		"b": {QObs: "v=1", PassWitness: []int64{1, 1}},
	})
	leak.Maximal, leak.Witness, leak.Reason = false, []int64{1, 1}, core.ReasonLeaks

	mv, err := mergeMaximality([]check.Verdict{withhold, leak}, false)
	if err != nil {
		t.Fatal(err)
	}
	if mv == nil || mv.Reason != core.ReasonLeaks || !reflect.DeepEqual(mv.Witness, []int64{1, 1}) {
		t.Fatalf("partial coverage lost the definitive leak: %+v", mv)
	}
	if mv, err := mergeMaximality([]check.Verdict{withhold}, false); err != nil || mv != nil {
		t.Fatalf("partial coverage rendered a withhold-only verdict: %+v, %v", mv, err)
	}
	mv, err = mergeMaximality([]check.Verdict{withhold, leak}, true)
	if err != nil {
		t.Fatal(err)
	}
	if mv.Reason != core.ReasonWithholds || !reflect.DeepEqual(mv.Witness, []int64{0, 0}) {
		t.Fatalf("full coverage must rank the least deviation: %+v", mv)
	}
}
