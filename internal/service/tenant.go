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
// measured in) plus deficit-round-robin dispatch across backlogged
// tenants, ahead of the join-the-shortest-queue fleet. The zero value
// disables tenancy; Burst > 0 enables it.
type TenantConfig struct {
	// Rate refills each tenant's bucket, in tuples per second; ≤ 0 with
	// Burst > 0 means DefaultTenantRate.
	Rate float64
	// Burst is each tenant's bucket capacity in tuples; > 0 enables
	// admission control. A single job larger than Burst is charged the
	// full bucket rather than rejected forever.
	Burst int64
	// QueueCap bounds each tenant's dispatch backlog in jobs; ≤ 0 means
	// DefaultTenantQueueCap. A full backlog rejects with ErrBusy.
	QueueCap int
	// Quantum is the deficit-round-robin increment in tuples per visit;
	// ≤ 0 means DefaultTenantQuantum. Smaller quanta interleave tenants
	// more finely at the cost of more rounds per dispatch.
	Quantum int64
	// Now overrides the bucket clock, for tests.
	Now func() time.Time
}

// Tenant admission defaults.
const (
	DefaultTenantRate     = float64(1 << 20) // tuples refilled per second
	DefaultTenantQueueCap = 64
	DefaultTenantQuantum  = 1 << 16
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
	// Queued is the tenant's current DRR backlog, jobs admitted but not
	// yet handed to the worker fleet.
	Queued int `json:"queued"`
}

// tenantState is one tenant's bucket, backlog, and counters.
type tenantState struct {
	tokens  float64
	last    time.Time
	deficit int64
	queue   []*Job

	admitted, rejected, tuples int64
}

// tenantGate sits between request validation and the scheduler. With
// tenancy disabled it is a transparent pass-through (dispatch goes
// straight to the scheduler on the caller's goroutine, exactly the
// pre-tenancy behavior). Enabled, admission charges the tenant's token
// bucket and dispatch runs through per-tenant queues drained
// deficit-round-robin by a single pump goroutine, so tenants with
// backlogs share the fleet in proportion to rounds, not arrival rate.
type tenantGate struct {
	cfg     TenantConfig
	svc     *Service
	enabled bool

	wakeCh  chan struct{}
	closeCh chan struct{}
	doneCh  chan struct{} // closed when the pump goroutine has exited
	closing sync.Once

	mu      sync.Mutex
	tenants map[string]*tenantState
	ring    []string // visit order; grows as tenants appear
	rr      int      // next ring position the DRR scan starts from
}

func newTenantGate(cfg TenantConfig, svc *Service) *tenantGate {
	g := &tenantGate{cfg: cfg, svc: svc, enabled: cfg.Burst > 0}
	if !g.enabled {
		return g
	}
	if g.cfg.Rate <= 0 {
		g.cfg.Rate = DefaultTenantRate
	}
	if g.cfg.QueueCap <= 0 {
		g.cfg.QueueCap = DefaultTenantQueueCap
	}
	if g.cfg.Quantum <= 0 {
		g.cfg.Quantum = DefaultTenantQuantum
	}
	if g.cfg.Now == nil {
		g.cfg.Now = time.Now
	}
	g.tenants = make(map[string]*tenantState)
	g.wakeCh = make(chan struct{}, 1)
	g.closeCh = make(chan struct{})
	g.doneCh = make(chan struct{})
	go g.pump()
	return g
}

// close stops the pump and waits for it to exit, so the scheduler can be
// closed afterwards without a dispatch racing in.
func (g *tenantGate) close() {
	if !g.enabled {
		return
	}
	g.closing.Do(func() { close(g.closeCh) })
	<-g.doneCh
}

// wake nudges the pump: fleet capacity freed or work arrived. Safe (and
// a no-op) with tenancy disabled.
func (g *tenantGate) wake() {
	if !g.enabled {
		return
	}
	select {
	case g.wakeCh <- struct{}{}:
	default:
	}
}

// state returns (creating if needed) the tenant's state. Callers hold g.mu.
func (g *tenantGate) state(tenant string) *tenantState {
	t, ok := g.tenants[tenant]
	if !ok {
		t = &tenantState{tokens: float64(g.cfg.Burst), last: g.cfg.Now()}
		g.tenants[tenant] = t
		g.ring = append(g.ring, tenant)
	}
	return t
}

// admit charges the tenant's bucket for a job of total tuples, rejecting
// with a QuotaError when the bucket cannot cover it. Resumed jobs
// (id != "") were admitted before the restart and pass free; with
// tenancy disabled every request passes.
func (g *tenantGate) admit(tenant, id string, total int64) error {
	if !g.enabled || id != "" {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	t := g.state(tenant)
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

// dispatch hands an admitted job towards the fleet: directly with
// tenancy disabled, through the tenant's DRR backlog otherwise. A full
// backlog returns the scheduler's ErrBusy.
func (g *tenantGate) dispatch(j *Job) error {
	if !g.enabled {
		_, err := g.svc.sched.Submit(j)
		return err
	}
	g.mu.Lock()
	t := g.state(j.tenant)
	if len(t.queue) >= g.cfg.QueueCap {
		g.mu.Unlock()
		return fmt.Errorf("%w: tenant %q backlog full (%d jobs)", ErrBusy, j.tenant, g.cfg.QueueCap)
	}
	t.queue = append(t.queue, j)
	g.mu.Unlock()
	g.wake()
	return nil
}

// pump drains the tenant backlogs deficit-round-robin into the
// scheduler, pausing whenever the fleet is full until a completion (or
// new work) wakes it.
func (g *tenantGate) pump() {
	defer close(g.doneCh)
	for {
		select {
		case <-g.closeCh:
			return
		case <-g.wakeCh:
		}
		for {
			select {
			case <-g.closeCh:
				return
			default:
			}
			j := g.next()
			if j == nil {
				break
			}
			if _, err := g.svc.sched.Submit(j); err != nil {
				// Fleet saturated: restore the job at the head of its
				// backlog and wait for a slot to free.
				g.requeue(j)
				break
			}
		}
	}
}

// next picks the next job to dispatch: a deficit-round-robin scan over
// the tenant ring, skipping jobs cancelled while backlogged. Each visit
// to a backlogged tenant grows its deficit by one quantum; the head job
// dispatches once the deficit covers its tuple total, so big jobs wait
// proportionally more rounds and light tenants slip between them.
func (g *tenantGate) next() *Job {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		backlogged := false
		for range g.ring {
			name := g.ring[g.rr]
			g.rr = (g.rr + 1) % len(g.ring)
			t := g.tenants[name]
			for len(t.queue) > 0 && t.queue[0].stateNow() != StateQueued {
				t.queue = t.queue[1:] // cancelled while backlogged
			}
			if len(t.queue) == 0 {
				t.deficit = 0
				continue
			}
			backlogged = true
			j := t.queue[0]
			if t.deficit < j.Total {
				t.deficit += g.cfg.Quantum
			}
			if t.deficit >= j.Total {
				t.queue = t.queue[1:]
				t.deficit -= j.Total
				if len(t.queue) == 0 {
					t.deficit = 0
				}
				return j
			}
		}
		if !backlogged {
			return nil
		}
	}
}

// requeue restores a job the scheduler refused to the head of its
// tenant's backlog, with its deficit, and hands the tenant back the turn
// next consumed, so the DRR order is unchanged: without that, the scan
// that bounced one tenant's job would start past it and let the tenant
// before it in the ring take every freed slot.
func (g *tenantGate) requeue(j *Job) {
	g.mu.Lock()
	defer g.mu.Unlock()
	t := g.state(j.tenant)
	t.queue = append([]*Job{j}, t.queue...)
	t.deficit += j.Total
	for i, name := range g.ring {
		if name == j.tenant {
			g.rr = i
			break
		}
	}
}

// stats snapshots every tenant's counters, sorted by name; nil with
// tenancy disabled.
func (g *tenantGate) stats() []TenantStats {
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
			Queued:         len(t.queue),
		})
	}
	return out
}
