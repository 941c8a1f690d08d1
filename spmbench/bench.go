package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	"spm/internal/service"
)

// warmup is the first verdict of every set-up: a small fixed check, the
// same for every workload and seed.
var warmup = service.CheckRequest{
	Program: "program warmup\ninputs x1 x2\n    r := x1\n    r := 0\n    if x2 == 0 goto Zero else NonZero\n" +
		"Zero:    y := r\n         halt\nNonZero: y := x1\n         halt\n",
	Policy: "{2}",
	Domain: []int64{0, 1, 2, 3},
}

const (
	minRounds   = 3   // rounds per run, for a median
	minSetups   = 101 // set-ups per run, for a median
	minVerdicts = 100 // verdicts per run, so p90 has ten samples beyond it
)

type bench struct {
	wl   *Workload
	refs map[string]*reference
	dir  string

	attempted, failed int
	firstFailure      error
}

// newBench decides every reference verdict. None of this is timed.
func newBench(ctx context.Context, wl *Workload, dir string) (*bench, error) {
	refs, err := references(ctx, append([]service.CheckRequest{warmup}, wl.Jobs...))
	if err != nil {
		return nil, err
	}
	return &bench{wl: wl, refs: refs, dir: dir}, nil
}

// timing is a wall-clock interval and the share of the CPU time demanded
// over it that the hypervisor withheld (see stealShare).
type timing struct {
	wall  time.Duration
	steal float64
}

// net scales d, measured within the interval, to the time it would have
// taken on CPUs the host did not take away.
func (t timing) net(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (1 - t.steal))
}

// round is one pass of the job list through a fresh fleet.
type round struct {
	setup  time.Duration
	run    timing // the measured phase: the whole list, set-up excluded
	cpu    time.Duration
	heapMB float64
	lat    []time.Duration
	jobs   int
	outs   []*outcome      // in list order; kept on traced rounds
	stats  []service.Stats // every node's, at the end of a traced round
}

// rate is the round's verdicts per second, net of steal.
func (r *round) rate() float64 { return float64(r.jobs) / r.run.net(r.run.wall).Seconds() }

// setUp starts a fleet and waits for its first correct verdict, which
// ends the set-up.
func (b *bench) setUp(ctx context.Context) (*fleet, time.Duration, error) {
	start := time.Now()
	f, err := startFleet(b.wl)
	if err != nil {
		return nil, 0, err
	}
	out, err := f.do(ctx, warmup, nil, 0)
	if err == nil {
		err = b.verify(f, warmup, out)
	}
	if err != nil {
		f.stop()
		return nil, 0, fmt.Errorf("warm-up verdict: %w", err)
	}
	return f, time.Since(start), nil
}

// verify checks a job's outcome against its reference.
func (b *bench) verify(f *fleet, req service.CheckRequest, out *outcome) error {
	ref := b.refs[refKey(req)]
	if out.report != nil {
		return ref.checkReport(out.report)
	}
	st := out.status
	if st.State != service.StateDone {
		return fmt.Errorf("%w: job %s %s: %s", errWrong, st.ID, st.State, st.Error)
	}
	return ref.checkResult(st.Result, f.nodes[0].svc.Config().SweepWorkers)
}

// runRound sets up a fleet, drives the whole job list through it with one
// closed-loop client, and tears it down. With a tracer, each
// job's calls are recorded as spans and its outcome is kept.
func (b *bench) runRound(ctx context.Context, tr *tracer) (*round, error) {
	runtime.GC()
	base := heapAlloc()
	f, setup, err := b.setUp(ctx)
	if err != nil {
		return nil, err
	}
	r := &round{setup: setup, jobs: len(b.wl.Jobs), lat: make([]time.Duration, len(b.wl.Jobs))}
	if tr != nil {
		r.outs = make([]*outcome, len(b.wl.Jobs))
		f.shardQueueWaits() // the warm-up's, not the round's
	}
	failed := 0
	var first error
	cpu0, counters, start := cpuTime(), readCPUCounters(), time.Now()
	for i, req := range b.wl.Jobs {
		root := tr.root("bench.job", fmt.Sprint(i))
		t := time.Now()
		out, err := f.do(ctx, req, tr, root)
		r.lat[i] = time.Since(t)
		tr.end(root)
		if err == nil {
			err = b.verify(f, req, out)
		}
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("job %d: %w", i, err)
			}
			continue
		}
		if tr != nil {
			// The client is the fleet's only one, so every shard job
			// since the last check is this check's.
			if out.report != nil {
				out.queueWaits = f.shardQueueWaits()
			} else if d, ok := dispatchWait(f.nodes[0], out.id); ok {
				out.queueWaits = []time.Duration{d}
			}
			r.outs[i] = out
		}
	}
	r.run, r.cpu = timing{time.Since(start), counters.stealShare()}, cpuTime()-cpu0
	runtime.GC()
	r.heapMB = float64(heapAlloc()-base) / (1 << 20)
	if tr != nil {
		for _, n := range f.nodes {
			r.stats = append(r.stats, n.svc.Stats())
		}
	}
	b.attempted += len(b.wl.Jobs)
	b.failed += failed
	if first != nil && b.firstFailure == nil {
		b.firstFailure = first
		fmt.Fprintln(os.Stderr, "spmbench: first failed verdict:", first)
	}
	return r, f.stop()
}

// rounds runs one untimed warm-up round — the process grows its heap and
// faults its pages in once, as a long-running server does at start — then
// repeats the job list until the budget is spent, at least minRounds
// times and until minVerdicts verdicts have been seen.
func (b *bench) rounds(ctx context.Context, budget time.Duration) ([]*round, error) {
	if _, err := b.runRound(ctx, nil); err != nil {
		return nil, err
	}
	var rs []*round
	start, verdicts := time.Now(), 0
	for {
		r, err := b.runRound(ctx, nil)
		if err != nil {
			return nil, err
		}
		rs = append(rs, r)
		verdicts += r.jobs
		fmt.Printf("round %d: setup %.1fms, %d jobs in %.3fs (%.2f jobs/s) with %.1f%% of the CPU demand stolen, %.2f jobs/s net; cpu %.1fms/job, heap %.1fMB\n",
			len(rs), ms(r.setup), r.jobs, r.run.wall.Seconds(), float64(r.jobs)/r.run.wall.Seconds(),
			100*r.run.steal, r.rate(), ms(r.cpu)/float64(r.jobs), r.heapMB)
		elapsed := time.Since(start)
		if len(rs) >= minRounds && verdicts >= minVerdicts && elapsed+r.run.wall/2 >= budget {
			return rs, nil
		}
	}
}

// measure is the untraced run: the end-to-end metrics.
func (b *bench) measure(ctx context.Context, budget time.Duration) (map[string]metric, error) {
	counters := readCPUCounters()
	rs, err := b.rounds(ctx, budget)
	if err != nil {
		return nil, err
	}
	// Latency and throughput are net of steal, each round's by its own
	// stolen share. A set-up lasts a few clock ticks, so steal either hits
	// it or not: the median of many raw set-ups is the set-up of a CPU the
	// host left alone as long as fewer than half are hit, while scaling by
	// the share would shrink the unhit ones too.
	var setups []float64
	var lat, net []time.Duration
	var rate, rawRate, cpu, heap []float64
	for _, r := range rs {
		setups = append(setups, r.setup.Seconds())
		lat = append(lat, r.lat...)
		for _, d := range r.lat {
			net = append(net, r.run.net(d))
		}
		rate = append(rate, r.rate())
		rawRate = append(rawRate, float64(r.jobs)/r.run.wall.Seconds())
		cpu = append(cpu, ms(r.cpu)/float64(r.jobs))
		heap = append(heap, r.heapMB)
	}
	// More set-ups than rounds: set-up alone is cheap and noisy.
	for len(setups) < minSetups {
		f, t, err := b.setUp(ctx)
		if err != nil {
			return nil, err
		}
		if err := f.stop(); err != nil {
			return nil, err
		}
		setups = append(setups, t.Seconds())
	}
	stolen := counters.stealShare()
	slices.Sort(lat)
	slices.Sort(net)
	fmt.Printf("samples: %d verdicts over %d rounds of %d, %d set-ups; %.1f%% of the run's CPU demand stolen\n",
		len(lat), len(rs), len(b.wl.Jobs), len(setups), 100*stolen)
	// The figures before the steal correction, and the share it removed,
	// so that two runs made under different host load can be told apart.
	raw, err := json.Marshal(map[string]float64{
		"stolen_share":   stolen,
		"verdict_p50_ms": ms(quantile(lat, 0.50)),
		"verdict_p90_ms": ms(quantile(lat, 0.90)),
		"jobs_per_s":     median(rawRate),
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("raw %s\n", raw)
	return map[string]metric{
		"setup_s":          {median(setups), "s"},
		"verdict_p50_ms":   {ms(quantile(net, 0.50)), "ms"},
		"verdict_p90_ms":   {ms(quantile(net, 0.90)), "ms"},
		"jobs_per_s":       {median(rate), "1/s"},
		"cpu_ms_per_job":   {median(cpu), "ms"},
		"heap_retained_mb": {median(heap), "MB"},
	}, nil
}

// dispatchWait reads a node job's recorded timeline (Service.JobTrace)
// for its dispatch span: how long it queued for a pool worker.
func dispatchWait(n *node, id string) (time.Duration, bool) {
	td, _ := n.svc.JobTrace(id)
	for _, e := range td.Events {
		if e.Name == "dispatch" {
			return e.Dur, true
		}
	}
	return 0, false
}

// shardQueueWaits returns the dispatch spans of every node job created
// since the last call: the shard jobs of the cluster checks in between.
// Node job IDs are "job-1", "job-2", … in submission order.
func (f *fleet) shardQueueWaits() []time.Duration {
	var waits []time.Duration
	for _, n := range f.nodes {
		for {
			id := fmt.Sprintf("job-%d", n.traced+1)
			if _, ok := n.svc.JobTrace(id); !ok {
				break
			}
			n.traced++
			if d, ok := dispatchWait(n, id); ok {
				waits = append(waits, d)
			}
		}
	}
	return waits
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur is the median of durations.
func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
