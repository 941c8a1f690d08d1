package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"spm/internal/service"
	"spm/internal/store"
)

// elasticConfig is the common elastic test fleet: a fast supervisor so
// steal/speculate decisions land within test timescales.
func elasticConfig(nodes ...string) Config {
	return Config{
		Nodes:         nodes,
		Registry:      NewRegistry(nodes),
		StealInterval: 5 * time.Millisecond,
	}
}

// requireByteIdentical fails unless the merged soundness verdict equals
// the single-node one byte for byte.
func requireByteIdentical(t *testing.T, rep *Report, req service.CheckRequest) {
	t.Helper()
	want := localVerdict(t, req)
	if !reflect.DeepEqual(rep.Soundness, want) {
		t.Fatalf("merged verdict differs from single-node check.Run:\n  %+v\nvs\n  %+v", rep.Soundness, want)
	}
	gotJSON, _ := json.Marshal(rep.Soundness)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("verdicts not byte-identical:\n  %s\nvs\n  %s", gotJSON, wantJSON)
	}
}

// TestElasticStealFromStraggler is the tentpole steal scenario: one node
// is made a deterministic straggler via the serve-side throttle hook, and
// the coordinator must detect it, steal the back half of its remaining
// range onto the idle fast node, and still merge a verdict byte-identical
// to a single-node check.
func TestElasticStealFromStraggler(t *testing.T) {
	req := service.CheckRequest{
		Program: soundProg,
		Policy:  "{2}",
		Domain:  bigDomain(128), // 16,384 tuples
	}
	svcFast := service.New(service.Config{Runners: 2})
	// The straggler's throttle is sized from the fast node's time for the
	// whole domain, measured here under the same machine load. The sweep
	// cuts a shard into 8 chunks per worker and naps after each but the
	// last, so the straggler's shard lasts at least 7 naps, each as long
	// as all four fast shards together: its projected time passes
	// StealThreshold × a fast shard's, and the steal lands, long before
	// it could finish.
	throttle := max(10*time.Millisecond, timeJob(t, svcFast, req))
	t.Logf("straggler throttle %v per chunk", throttle)
	svcSlow := service.New(service.Config{Runners: 2, Throttle: throttle})
	// Holding status reads until both nodes are watched keeps the fast
	// node from sweeping all four shards before the straggler has one.
	held := holdStatusUntilAllWatched(svcFast.Handler(), svcSlow.Handler())
	fast, slow := httptest.NewServer(held[0]), httptest.NewServer(held[1])
	t.Cleanup(func() {
		fast.Close()
		slow.Close()
		svcFast.Close()
		svcSlow.Close()
	})

	cfg := elasticConfig(fast.URL, slow.URL)
	cfg.Shards = 4
	cfg.StealThreshold = 2
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep, err := coord.Check(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete {
		t.Fatalf("run incomplete: %+v", rep)
	}
	if rep.Stolen < 1 {
		t.Fatalf("no shard stolen from the straggler: %+v", rep)
	}
	// Stealing grows the shard count: every steal adds one back-half.
	if rep.Shards != 4+rep.Stolen {
		t.Fatalf("shard accounting off: %d shards after %d steals", rep.Shards, rep.Stolen)
	}
	if rep.Soundness.Checked != 16384 {
		t.Fatalf("checked %d of 16384", rep.Soundness.Checked)
	}
	requireByteIdentical(t, rep, req)
}

// timeJob runs req on svc and returns how long the job took from
// submission to its finish.
func timeJob(t *testing.T, svc *service.Service, req service.CheckRequest) time.Duration {
	t.Helper()
	start := time.Now()
	job, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if st := job.Status(); st.State != service.StateDone {
		t.Fatalf("timing job ended %s: %s", st.State, st.Error)
	}
	return time.Since(start)
}

// TestElasticSpeculateDuplicates drives speculative re-dispatch: with the
// shard pool drained and the fast node idle, the straggler's in-flight
// shard is duplicated; the fast copy wins and the loser is cancelled —
// with exactly one result per range surviving to the merge.
func TestElasticSpeculateDuplicates(t *testing.T) {
	req := service.CheckRequest{
		Program: soundProg,
		Policy:  "{2}",
		Domain:  bigDomain(128),
	}
	_, fast := startNode(t, service.Config{Runners: 2})
	_, slow := startNode(t, service.Config{Runners: 2, Throttle: 20 * time.Millisecond})

	cfg := elasticConfig(fast.URL, slow.URL)
	cfg.Shards = 4
	cfg.Speculate = true
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep, err := coord.Check(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete {
		t.Fatalf("run incomplete: %+v", rep)
	}
	if rep.Speculated < 1 {
		t.Fatalf("no speculative duplicate dispatched: %+v", rep)
	}
	// Speculation duplicates ranges but never the merge input: the shard
	// count is unchanged and coverage exact.
	if rep.Shards != 4 {
		t.Fatalf("speculation changed the shard count: %+v", rep)
	}
	if rep.Soundness.Checked != 16384 {
		t.Fatalf("checked %d of 16384 (duplicate result leaked into the merge?)", rep.Soundness.Checked)
	}
	requireByteIdentical(t, rep, req)
}

// TestElasticJoinLeaveMidCheck exercises dynamic membership end to end
// through the admin surface: a check starts on one (throttled) node, a
// fast node joins mid-sweep and immediately enters the shard pool, then
// the original node leaves — its in-flight shard is requeued without
// charge — and the verdict is still exact.
func TestElasticJoinLeaveMidCheck(t *testing.T) {
	req := service.CheckRequest{
		Program: soundProg,
		Policy:  "{2}",
		Domain:  bigDomain(128),
	}
	// Throttled so that one shard outlasts the join and the leave below
	// (8 chunk naps of 30 ms), whatever the sweep's worker count: the
	// leave must find a shard in flight.
	_, first := startNode(t, service.Config{Runners: 2, Throttle: 30 * time.Millisecond})
	_, joiner := startNode(t, service.Config{Runners: 2})

	cfg := elasticConfig(first.URL)
	cfg.Shards = 8
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	admin := httptest.NewServer(coord.AdminHandler())
	t.Cleanup(admin.Close)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := make(chan struct{})
	var rep *Report
	var checkErr error
	go func() {
		defer close(done)
		rep, checkErr = coord.Check(ctx, req)
	}()

	// Let the throttled node start sweeping, then join the fast node and
	// retire the original, both through the admin API.
	time.Sleep(150 * time.Millisecond)
	adminPost(t, admin.URL+"/join?node="+joiner.URL)
	time.Sleep(50 * time.Millisecond)
	adminPost(t, admin.URL+"/leave?node="+first.URL)

	select {
	case <-done:
	case <-time.After(50 * time.Second):
		t.Fatal("elastic check hung across join/leave")
	}
	if checkErr != nil {
		t.Fatalf("check failed despite the joined node: %v", checkErr)
	}
	if !rep.Complete {
		t.Fatalf("run incomplete: %+v", rep)
	}
	if rep.Joined < 1 || rep.Left < 1 {
		t.Fatalf("membership churn not reported: joined=%d left=%d", rep.Joined, rep.Left)
	}
	states := map[string]NodeState{}
	for _, n := range rep.Nodes {
		states[n.URL] = n.State
	}
	if states[first.URL] != NodeRetired {
		t.Fatalf("left node not retired: %+v", rep.Nodes)
	}
	if states[joiner.URL] != NodeAlive {
		t.Fatalf("joined node not alive: %+v", rep.Nodes)
	}
	if rep.Soundness.Checked != 16384 {
		t.Fatalf("checked %d of 16384", rep.Soundness.Checked)
	}
	requireByteIdentical(t, rep, req)
}

// downSwitch wraps a node handler with an outage switch: while down is
// set every request is aborted mid-connection, which the coordinator sees
// as a dead node.
func downSwitch(down *atomic.Bool, inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	})
}

// TestReportMembershipIsPerCheck runs three checks on one coordinator. The
// first loses a node to a dispatch failure; the second runs on the
// survivor alone — retirement is sticky even though the node is back up —
// and reports no membership churn of its own; after a POST /join the
// third dispatches to both nodes again.
func TestReportMembershipIsPerCheck(t *testing.T) {
	req := service.CheckRequest{
		Program: soundProg,
		Policy:  "{2}",
		Domain:  bigDomain(128),
	}
	_, srvA := startNode(t, service.Config{Runners: 2})
	var down atomic.Bool
	var postsB atomic.Int32
	svcB := service.New(service.Config{Runners: 2})
	srvB := httptest.NewServer(downSwitch(&down, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			postsB.Add(1)
		}
		svcB.Handler().ServeHTTP(w, r)
	})))
	t.Cleanup(func() {
		srvB.Close()
		svcB.Close()
	})
	coord, err := New(Config{Nodes: []string{srvA.URL, srvB.URL}, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	admin := httptest.NewServer(coord.AdminHandler())
	t.Cleanup(admin.Close)
	nodeB := func(rep *Report) NodeReport {
		t.Helper()
		for _, n := range rep.Nodes {
			if n.URL == srvB.URL {
				return n
			}
		}
		t.Fatalf("node %s missing from report: %+v", srvB.URL, rep.Nodes)
		return NodeReport{}
	}
	run := func() *Report {
		t.Helper()
		rep, err := coord.Check(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Complete {
			t.Fatalf("run incomplete: %+v", rep)
		}
		requireByteIdentical(t, rep, req)
		return rep
	}

	down.Store(true)
	rep := run()
	if rep.Joined != 0 || rep.Left != 1 || !nodeB(rep).Dead {
		t.Fatalf("check 1: joined=%d left=%d, node B %+v", rep.Joined, rep.Left, nodeB(rep))
	}

	down.Store(false)
	rep = run()
	if rep.Joined != 0 || rep.Left != 0 {
		t.Fatalf("check 2 reported earlier churn: joined=%d left=%d", rep.Joined, rep.Left)
	}
	if b := nodeB(rep); !b.Dead || b.State != NodeRetired || b.Shards != 0 || b.Failures != 0 {
		t.Fatalf("check 2 used the retired node: %+v", b)
	}
	if n := postsB.Load(); n != 0 {
		t.Fatalf("check 2 submitted %d jobs to the retired node", n)
	}

	// The join lands between checks, so check 3 reports no churn either.
	adminPost(t, admin.URL+"/join?node="+srvB.URL)
	rep = run()
	if rep.Joined != 0 || rep.Left != 0 {
		t.Fatalf("check 3: joined=%d left=%d", rep.Joined, rep.Left)
	}
	for _, n := range rep.Nodes {
		if n.Dead || n.Shards == 0 {
			t.Fatalf("check 3 did not dispatch to both nodes: %+v", rep.Nodes)
		}
	}
}

// TestCheckOnDrainedRegistryFailsFast runs a second check on a
// coordinator whose first check retired every node. With no node to spawn
// a loop for, the second check must fail with errNoNodesLeft at once
// rather than wait on a membership change that already happened.
func TestCheckOnDrainedRegistryFailsFast(t *testing.T) {
	req := service.CheckRequest{
		Program: soundProg,
		Policy:  "{2}",
		Domain:  bigDomain(16),
	}
	var down atomic.Bool
	down.Store(true)
	var urls []string
	for range 2 {
		svc := service.New(service.Config{Runners: 1})
		srv := httptest.NewServer(downSwitch(&down, svc.Handler()))
		t.Cleanup(func() {
			srv.Close()
			svc.Close()
		})
		urls = append(urls, srv.URL)
	}
	coord, err := New(Config{Nodes: urls, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Check(context.Background(), req); !errors.Is(err, errNoNodesLeft) {
		t.Fatalf("check 1: err = %v, want %v", err, errNoNodesLeft)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := coord.Check(ctx, req); !errors.Is(err, errNoNodesLeft) {
		t.Fatalf("check 2: err = %v, want %v", err, errNoNodesLeft)
	}
}

// freezeAfterFirstSubmit wraps a node handler so that the node accepts
// one POST /v2/check and then hangs like a stopped process: every later
// request (event stream, status, health probe, cancel) blocks with its
// connection open until the client gives up or release is closed.
func freezeAfterFirstSubmit(inner http.Handler, release <-chan struct{}) http.Handler {
	var frozen atomic.Bool
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if frozen.Load() {
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		}
		inner.ServeHTTP(w, r)
		if r.Method == http.MethodPost && r.URL.Path == "/v2/check" {
			frozen.Store(true)
		}
	})
}

// TestFrozenNodeIsEvictedMidShard freezes a node right after it accepts a
// shard. Its event stream never answers, so only the health probes can
// find it; once they retire it, the eviction must abort the watch on the
// frozen stream and requeue the shard on the live node.
func TestFrozenNodeIsEvictedMidShard(t *testing.T) {
	req := service.CheckRequest{
		Program: soundProg,
		Policy:  "{2}",
		Domain:  bigDomain(128),
	}
	_, live := startNode(t, service.Config{Runners: 2})
	release := make(chan struct{})
	svcF := service.New(service.Config{Runners: 2})
	srvF := httptest.NewServer(freezeAfterFirstSubmit(svcF.Handler(), release))
	t.Cleanup(func() {
		close(release)
		srvF.Close()
		svcF.Close()
	})

	reg := NewRegistry(nil)
	reg.ProbeInterval = 20 * time.Millisecond
	reg.ProbeTimeout = 100 * time.Millisecond
	coord, err := New(Config{Nodes: []string{live.URL, srvF.URL}, Registry: reg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := coord.Check(ctx, req)
	if err != nil {
		t.Fatalf("check did not recover from the frozen node: %v", err)
	}
	if !rep.Complete {
		t.Fatalf("run incomplete: %+v", rep)
	}
	requireByteIdentical(t, rep, req)
	for _, n := range rep.Nodes {
		if n.URL == srvF.URL && (!n.Dead || n.Shards != 0) {
			t.Fatalf("frozen node not retired, or credited with a shard: %+v", n)
		}
	}
}

// TestRepeatCheckOnStoreBackedNode runs one check twice on a node with a
// verdict store. The second run's submissions are store hits answered 200
// with the job already done; each must complete its shard, not retire the
// node.
func TestRepeatCheckOnStoreBackedNode(t *testing.T) {
	req := service.CheckRequest{
		Program: soundProg,
		Policy:  "{2}",
		Domain:  bigDomain(32),
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	svc, srv := startNode(t, service.Config{Runners: 2, Store: st})
	coord, err := New(Config{Nodes: []string{srv.URL}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		rep, err := coord.Check(context.Background(), req)
		if err != nil {
			t.Fatalf("check %d: %v", i, err)
		}
		if !rep.Complete || rep.Nodes[0].Dead || rep.Nodes[0].Shards != 4 {
			t.Fatalf("check %d: %+v", i, rep)
		}
		requireByteIdentical(t, rep, req)
	}
	if hits := svc.Stats().Store.VerdictHits; hits != 4 {
		t.Fatalf("second check made %d verdict-store hits, want 4", hits)
	}
}

// sortedMemberURLs lists every member URL sorted, for stable test output.
func sortedMemberURLs(ms []Member) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.URL
	}
	sort.Strings(out)
	return out
}

func adminPost(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatalf("admin POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin POST %s: status %d", url, resp.StatusCode)
	}
}

// TestRegistryProbeTransitions pins the health state machine: alive →
// suspect on the first probe failure, back to alive on success, retired
// (counted as a leave) after sustained failures.
func TestRegistryProbeTransitions(t *testing.T) {
	g := NewRegistry([]string{"http://a", "http://b"})
	g.probeResult("http://a", false)
	if ms := g.Members(); ms[0].State != NodeSuspect {
		t.Fatalf("one failure: %+v", ms[0])
	}
	g.probeResult("http://a", true)
	if ms := g.Members(); ms[0].State != NodeAlive || ms[0].Failures != 0 {
		t.Fatalf("recovery: %+v", ms[0])
	}
	for i := 0; i < probeRetireAfter; i++ {
		g.probeResult("http://a", false)
	}
	ms := g.Members()
	if ms[0].State != NodeRetired {
		t.Fatalf("sustained failures did not retire: %+v", ms[0])
	}
	if _, left := g.counts(); left != 1 {
		t.Fatalf("probe retirement not counted as a leave: left=%d", left)
	}
	// Retired is sticky against probes but not against an explicit Join.
	g.probeResult("http://a", true)
	if g.Members()[0].State != NodeRetired {
		t.Fatal("probe revived a retired node")
	}
	if !g.Join("http://a") {
		t.Fatal("join did not revive the retired node")
	}
	if g.Members()[0].State != NodeAlive {
		t.Fatalf("revived node not alive: %+v", g.Members()[0])
	}
}

// TestRegistrySyncNodes covers the nodes-file reload path: additions
// join, removals leave, and the registry converges on the file contents.
func TestRegistrySyncNodes(t *testing.T) {
	g := NewRegistry([]string{"http://a", "http://b"})
	joined, left := g.SyncNodes([]string{"http://b", "http://c"})
	if joined != 1 || left != 1 {
		t.Fatalf("sync applied %d joins, %d leaves", joined, left)
	}
	states := map[string]NodeState{}
	for _, m := range g.Members() {
		states[m.URL] = m.State
	}
	want := map[string]NodeState{"http://a": NodeRetired, "http://b": NodeAlive, "http://c": NodeAlive}
	if !reflect.DeepEqual(states, want) {
		t.Fatalf("after sync: %+v", states)
	}
	if got := g.Alive(); len(got) != 2 {
		t.Fatalf("alive after sync: %v", got)
	}
}

// TestAdminHandlerSurface covers the HTTP membership API directly.
func TestAdminHandlerSurface(t *testing.T) {
	cfg := elasticConfig("http://a")
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.AdminHandler())
	t.Cleanup(srv.Close)

	// Bare host:port joins default to http, like the -nodes flag.
	adminPost(t, srv.URL+"/join?node=127.0.0.1:9999")
	resp, err := http.Get(srv.URL + "/nodes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var members []Member
	if err := json.NewDecoder(resp.Body).Decode(&members); err != nil {
		t.Fatal(err)
	}
	if got := sortedMemberURLs(members); len(got) != 2 || got[0] != "http://127.0.0.1:9999" || got[1] != "http://a" {
		t.Fatalf("members after join: %v", got)
	}
	adminPost(t, srv.URL+"/leave?node=127.0.0.1:9999")
	if alive := cfg.Registry.Alive(); len(alive) != 1 || alive[0] != "http://a" {
		t.Fatalf("alive after leave: %v", alive)
	}
	// Missing node parameter is a 400.
	resp2, err := http.Post(srv.URL+"/join", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("join without node: status %d", resp2.StatusCode)
	}
}

// TestElasticProbeRetiresDeadNode lets the health probes — not a dispatch
// failure — discover a dead node mid-check: the probe loop retires it and
// the survivors absorb its shards.
func TestElasticProbeRetiresDeadNode(t *testing.T) {
	req := service.CheckRequest{
		Program: slowSoundProg,
		Policy:  "{2}",
		Raw:     true,
		Domain:  bigDomain(64), // 4,096 tuples × ~15k steps
	}
	_, alive := startNode(t, service.Config{Runners: 2})
	svcB := service.New(service.Config{Runners: 2})
	srvB := httptest.NewServer(svcB.Handler())
	t.Cleanup(svcB.Close)

	cfg := elasticConfig(alive.URL, srvB.URL)
	cfg.Shards = 8
	cfg.Registry.ProbeInterval = 20 * time.Millisecond
	cfg.Registry.ProbeTimeout = 200 * time.Millisecond
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := make(chan struct{})
	var rep *Report
	var checkErr error
	go func() {
		defer close(done)
		rep, checkErr = coord.Check(ctx, req)
	}()
	time.Sleep(100 * time.Millisecond)
	srvB.CloseClientConnections()
	srvB.Close()
	select {
	case <-done:
	case <-time.After(50 * time.Second):
		t.Fatal("elastic check hung after node death")
	}
	if checkErr != nil {
		t.Fatalf("check failed despite a surviving node: %v", checkErr)
	}
	if !rep.Complete {
		t.Fatalf("run incomplete: %+v", rep)
	}
	requireByteIdentical(t, rep, req)
}
