package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"time"
)

// NodeState is a member's health in the registry.
type NodeState string

// The membership states. A node is born Alive, turns Suspect after a
// failed health probe, returns to Alive on the next success, and is
// Retired — removed from the shard pool — after sustained probe failures,
// a fatal dispatch error, or an administrative leave. Retired is sticky:
// only an explicit Join revives the node.
const (
	NodeAlive   NodeState = "alive"
	NodeSuspect NodeState = "suspect"
	NodeRetired NodeState = "retired"
)

// Probe defaults for Registry's zero-valued knobs.
const (
	// DefaultProbeInterval is the cadence of the GET /v2/stats health
	// probes while a check is running.
	DefaultProbeInterval = 500 * time.Millisecond
	// DefaultProbeTimeout bounds one probe request.
	DefaultProbeTimeout = 2 * time.Second
	// probeRetireAfter is how many consecutive probe failures retire a
	// node. The first failure already marks it suspect.
	probeRetireAfter = 4
)

// Member is one node's row in the registry: its base URL and health.
type Member struct {
	URL   string    `json:"url"`
	State NodeState `json:"state"`
	// Failures counts consecutive probe failures; reset on success.
	Failures int `json:"failures,omitempty"`
}

// Registry is the membership table of a cluster: the set of serve nodes a
// coordinator may dispatch shards to, with health states fed by periodic
// probes of each node's GET /v2/stats. Nodes join and leave mid-check —
// the admin surface (Coordinator.AdminHandler, the `spm cluster -admin`
// listener, SIGHUP nodes-file rereads) calls Join and Leave, and a
// running check picks the changes up within one scheduling decision:
// joiners immediately enter the shard pool, leavers have their in-flight
// shard cancelled and requeued.
//
// A Registry is safe for concurrent use and may outlive a single check.
type Registry struct {
	// ProbeInterval is the health-probe cadence; ≤ 0 means
	// DefaultProbeInterval.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request; ≤ 0 means
	// DefaultProbeTimeout.
	ProbeTimeout time.Duration

	mu      sync.Mutex
	members map[string]*Member
	order   []string // join order, for deterministic reports
	joined  int      // Join calls that added or revived a node
	left    int      // Leave calls, probe retirements, dispatch-path deaths
	watch   chan struct{}
}

// NewRegistry builds a registry with the given initial members, all
// alive. Duplicate and empty URLs are dropped.
func NewRegistry(urls []string) *Registry {
	g := &Registry{
		members: make(map[string]*Member),
		watch:   make(chan struct{}, 1),
	}
	for _, u := range urls {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" || g.members[u] != nil {
			continue
		}
		g.members[u] = &Member{URL: u, State: NodeAlive}
		g.order = append(g.order, u)
	}
	return g
}

// Join adds a node (or revives a retired one) as alive, reporting whether
// the registry changed. A joiner enters the shard pool of any running
// check immediately.
func (g *Registry) Join(url string) bool {
	url = strings.TrimRight(strings.TrimSpace(url), "/")
	if url == "" {
		return false
	}
	g.mu.Lock()
	m := g.members[url]
	switch {
	case m == nil:
		g.members[url] = &Member{URL: url, State: NodeAlive}
		g.order = append(g.order, url)
	case m.State == NodeRetired:
		m.State = NodeAlive
		m.Failures = 0
	default:
		g.mu.Unlock()
		return false
	}
	g.joined++
	g.mu.Unlock()
	g.notify()
	return true
}

// Leave retires a node administratively, reporting whether the registry
// changed. A running check cancels and requeues the node's in-flight
// shard.
func (g *Registry) Leave(url string) bool {
	return g.retire(strings.TrimRight(strings.TrimSpace(url), "/"))
}

// retire marks a node retired — on a Leave, or when the dispatch path
// sees it die mid-shard — reporting whether the registry changed. A death
// counts as a leave, since the node is gone whether or not it said
// goodbye, so the probe loop, the shard pool, and the report all agree on
// who is usable. Already-retired nodes are a no-op, so a death seen by
// both the probe loop and the dispatch path is counted once.
func (g *Registry) retire(url string) bool {
	g.mu.Lock()
	m := g.members[url]
	if m == nil || m.State == NodeRetired {
		g.mu.Unlock()
		return false
	}
	m.State = NodeRetired
	g.left++
	g.mu.Unlock()
	g.notify()
	return true
}

// Members snapshots the registry in join order.
func (g *Registry) Members() []Member {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Member, 0, len(g.order))
	for _, u := range g.order {
		out = append(out, *g.members[u])
	}
	return out
}

// Alive returns the URLs currently usable for dispatch (alive or suspect
// — a suspect node keeps its shard until probes retire it).
func (g *Registry) Alive() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.order))
	for _, u := range g.order {
		if g.members[u].State != NodeRetired {
			out = append(out, u)
		}
	}
	return out
}

// usable reports whether the node may hold a shard.
func (g *Registry) usable(url string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.members[url]
	return m != nil && m.State != NodeRetired
}

// counts returns the join/leave tallies accumulated so far.
func (g *Registry) counts() (joined, left int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.joined, g.left
}

// Watch returns a channel that receives (coalesced) a token after every
// membership change. One channel serves all consumers; the running
// check is the intended single reader.
func (g *Registry) Watch() <-chan struct{} { return g.watch }

func (g *Registry) notify() {
	select {
	case g.watch <- struct{}{}:
	default:
	}
}

// probeResult applies one health-probe outcome: success restores a
// suspect node to alive; failure marks alive nodes suspect and retires a
// node after probeRetireAfter consecutive failures (counted as a leave —
// the node is gone whether or not it said goodbye).
func (g *Registry) probeResult(url string, ok bool) {
	changed := false
	g.mu.Lock()
	m := g.members[url]
	if m == nil || m.State == NodeRetired {
		g.mu.Unlock()
		return
	}
	if ok {
		if m.State != NodeAlive {
			m.State = NodeAlive
			changed = true
		}
		m.Failures = 0
	} else {
		m.Failures++
		if m.State == NodeAlive {
			m.State = NodeSuspect
			changed = true
		}
		if m.Failures >= probeRetireAfter {
			m.State = NodeRetired
			g.left++
			changed = true
		}
	}
	g.mu.Unlock()
	if changed {
		g.notify()
	}
}

// probeLoop probes every non-retired member's GET /v2/stats once per
// interval until ctx is cancelled. The coordinator runs it for the
// duration of each check.
func (g *Registry) probeLoop(ctx context.Context, client *http.Client) {
	interval := g.ProbeInterval
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	timeout := g.ProbeTimeout
	if timeout <= 0 {
		timeout = DefaultProbeTimeout
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		for _, url := range g.Alive() {
			g.probeResult(url, probeOnce(ctx, client, url, timeout))
		}
	}
}

// probeOnce reports whether one GET /v2/stats round-trip succeeded.
func probeOnce(ctx context.Context, client *http.Client, url string, timeout time.Duration) bool {
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, url+"/v2/stats", nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// SyncNodes reconciles the registry against a full desired node list (the
// `spm cluster -nodes-file` SIGHUP path): URLs not yet present join, and
// current members absent from the list leave. It returns how many joins
// and leaves were applied.
func (g *Registry) SyncNodes(urls []string) (joined, left int) {
	want := make(map[string]bool, len(urls))
	for _, u := range urls {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		want[u] = true
		if g.Join(u) {
			joined++
		}
	}
	for _, m := range g.Members() {
		if !want[m.URL] && m.State != NodeRetired {
			if g.Leave(m.URL) {
				left++
			}
		}
	}
	return joined, left
}

// AdminHandler is the coordinator's membership surface, served by
// `spm cluster -admin`:
//
//	GET  /nodes        the registry snapshot (JSON array of members)
//	POST /join?node=U  add (or revive) node U
//	POST /leave?node=U retire node U; its in-flight shard is requeued
//	GET  /metrics      coordinator counters, Prometheus text exposition
//
// Responses are JSON (exposition text for /metrics); unknown routes are
// 404.
func (c *Coordinator) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /nodes", func(w http.ResponseWriter, r *http.Request) {
		writeAdminJSON(w, http.StatusOK, c.registry.Members())
	})
	mux.Handle("GET /metrics", c.metrics.reg)
	mux.HandleFunc("POST /join", func(w http.ResponseWriter, r *http.Request) {
		c.adminChange(w, r, c.registry.Join)
	})
	mux.HandleFunc("POST /leave", func(w http.ResponseWriter, r *http.Request) {
		c.adminChange(w, r, c.registry.Leave)
	})
	return mux
}

// adminChange applies one join/leave request. The node is taken from the
// "node" query parameter or a JSON body {"node": "..."}; bare host:port
// values default to http, matching the -nodes flag.
func (c *Coordinator) adminChange(w http.ResponseWriter, r *http.Request, apply func(string) bool) {
	node := r.URL.Query().Get("node")
	if node == "" {
		var body struct {
			Node string `json:"node"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&body); err == nil {
			node = body.Node
		}
	}
	if node = strings.TrimSpace(node); node == "" {
		writeAdminJSON(w, http.StatusBadRequest, map[string]string{"error": "missing node"})
		return
	}
	if !strings.Contains(node, "://") {
		node = "http://" + node
	}
	writeAdminJSON(w, http.StatusOK, map[string]any{
		"node":    strings.TrimRight(node, "/"),
		"changed": apply(node),
	})
}

func writeAdminJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
