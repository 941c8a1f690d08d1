package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// TenantConfig enables per-tenant admission control: a token-bucket
// quota in tuples (the unit every admission bound in the service is
// measured in) plus a run-queue backlog per tenant (bounded by
// Config.QueueCap), popped deficit-round-robin. The zero value disables
// tenancy; Burst > 0 enables it.
type TenantConfig struct {
	// Rate refills each tenant's bucket, in tuples per second; ≤ 0 with
	// Burst > 0 means DefaultTenantRate.
	Rate float64
	// Burst is each tenant's bucket capacity in tuples; > 0 enables
	// admission control. A single job larger than Burst is charged the
	// full bucket rather than rejected forever.
	Burst int64
	// Quantum is the deficit-round-robin increment in tuples per visit;
	// ≤ 0 means DefaultTenantQuantum. Smaller quanta interleave tenants
	// more finely at the cost of more rounds per pop.
	Quantum int64
	// Now overrides the bucket clock, for tests.
	Now func() time.Time
}

// Tenant admission defaults.
const (
	DefaultTenantRate    = float64(1 << 20) // tuples refilled per second
	DefaultTenantQuantum = 1 << 16
)

// ErrOverQuota is the sentinel inside every QuotaError; HTTP maps it
// to 429.
var ErrOverQuota = errors.New("service: tenant over quota")

// QuotaError reports a submission rejected by its tenant's token
// bucket, and when the bucket will have refilled enough to admit it
// (the Retry-After header).
type QuotaError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("%v: tenant %q, retry after %s", ErrOverQuota, e.Tenant, e.RetryAfter.Round(time.Millisecond))
}

func (e *QuotaError) Unwrap() error { return ErrOverQuota }

// TenantStats is one tenant's admission record in Stats.Tenants.
type TenantStats struct {
	Tenant string `json:"tenant"`
	// Admitted and Rejected count submissions past / stopped by the
	// token bucket; TuplesAdmitted is the admitted tuple volume (the
	// quantity the bucket actually meters).
	Admitted       int64 `json:"admitted"`
	Rejected       int64 `json:"rejected"`
	TuplesAdmitted int64 `json:"tuples_admitted"`
	// Queued is the length of the tenant's run-queue backlog: jobs
	// admitted but not yet popped by a runner.
	Queued int `json:"queued"`
}

// tenantState is one tenant's bucket and counters.
type tenantState struct {
	tokens float64
	last   time.Time

	admitted, rejected, tuples int64
}

// tenantGate is admission control: with tenancy enabled it charges each
// submission to its tenant's token bucket; disabled, every request
// passes. Where an admitted job then waits is the run queue's business.
type tenantGate struct {
	cfg     TenantConfig
	enabled bool

	mu      sync.Mutex
	tenants map[string]*tenantState
}

func newTenantGate(cfg TenantConfig) *tenantGate {
	g := &tenantGate{cfg: cfg, enabled: cfg.Burst > 0}
	if !g.enabled {
		return g
	}
	if g.cfg.Rate <= 0 {
		g.cfg.Rate = DefaultTenantRate
	}
	if g.cfg.Quantum <= 0 {
		g.cfg.Quantum = DefaultTenantQuantum
	}
	if g.cfg.Now == nil {
		g.cfg.Now = time.Now
	}
	g.tenants = make(map[string]*tenantState)
	return g
}

// state returns (creating if needed) the tenant's state. Callers hold g.mu.
func (g *tenantGate) state(tenant string) *tenantState {
	t, ok := g.tenants[tenant]
	if !ok {
		t = &tenantState{tokens: float64(g.cfg.Burst), last: g.cfg.Now()}
		g.tenants[tenant] = t
	}
	return t
}

// admit charges the tenant's bucket for a job of total tuples, rejecting
// with a QuotaError when the bucket cannot cover it. Resumed jobs
// (id != "") were admitted before the restart and pass free, though
// their tenant still gets a row in stats; with tenancy disabled every
// request passes.
func (g *tenantGate) admit(tenant, id string, total int64) error {
	if !g.enabled {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	t := g.state(tenant)
	if id != "" {
		return nil
	}
	now := g.cfg.Now()
	t.tokens += g.cfg.Rate * now.Sub(t.last).Seconds()
	if t.tokens > float64(g.cfg.Burst) {
		t.tokens = float64(g.cfg.Burst)
	}
	t.last = now
	charge := total
	if charge > g.cfg.Burst {
		// Larger than the bucket: admittable only against a full bucket,
		// at the cost of draining it — never rejected forever.
		charge = g.cfg.Burst
	}
	if float64(charge) > t.tokens {
		t.rejected++
		need := float64(charge) - t.tokens
		retry := time.Duration(need / g.cfg.Rate * float64(time.Second))
		if retry < time.Millisecond {
			retry = time.Millisecond
		}
		return &QuotaError{Tenant: tenant, RetryAfter: retry}
	}
	t.tokens -= float64(charge)
	t.admitted++
	t.tuples += total
	return nil
}

// stats snapshots every tenant's counters, with its backlog length in q,
// sorted by name; nil with tenancy disabled.
func (g *tenantGate) stats(q *runQueue) []TenantStats {
	if !g.enabled {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	names := make([]string, 0, len(g.tenants))
	for name := range g.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]TenantStats, 0, len(names))
	for _, name := range names {
		t := g.tenants[name]
		out = append(out, TenantStats{
			Tenant:         name,
			Admitted:       t.admitted,
			Rejected:       t.rejected,
			TuplesAdmitted: t.tuples,
			Queued:         q.queued(name),
		})
	}
	return out
}
