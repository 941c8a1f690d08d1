package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"spm/internal/check"
	"spm/internal/cluster"
	"spm/internal/core"
	"spm/internal/flowchart"
	"spm/internal/service"
	"spm/internal/store"
	"spm/internal/sweep"
)

// The traced run probes the first jobs of the list layer by layer, and
// sends the first clusterProbeJobs of those through a cluster coordinator.
var probeJobs = map[string]int{"bulk": 12, "cluster": 3}

const clusterProbeJobs = 3

// layers are the repository's modules, the unit of the per-layer split.
var layers = []string{"flowchart", "surveillance", "core", "sweep", "check", "service", "store", "cluster"}

// probed accumulates what the layer probes measured.
type probed struct {
	parse, compile, instrument []time.Duration // one per job
	checkRun, enum, runner     time.Duration   // summed over jobs
	jobs                       int
	visits                     int64 // tuples visited, over every pass
	mallocs                    uint64
	exec                       core.ExecCounts
	merge                      []time.Duration
	shards                     map[int][]time.Duration // direct shard runs, by sample index
	put, get                   []time.Duration
	open                       time.Duration
	openRecords                int
	overhead                   []time.Duration
	retries, checks            int
}

// traced is the traced run: after a warm-up round, one untraced and one
// traced round of the job list, for the tracing overhead and the
// service-level counts, then direct probes of each layer's public
// functions on a sample of the jobs. The spans are written to path.
func (b *bench) traced(ctx context.Context, path string) (map[string]metric, error) {
	if _, err := b.runRound(ctx, nil); err != nil {
		return nil, err
	}
	plain, err := b.runRound(ctx, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	round, err := b.runRound(ctx, tr)
	if err != nil {
		return nil, err
	}
	plainRate, rate := plain.rate(), round.rate()
	fmt.Printf("tracing overhead: %.2f jobs/s traced vs %.2f untraced, net of steal (%+.1f%%)\n", rate, plainRate, 100*(plainRate/rate-1))

	// The nodes' own counters: compile-cache lookups (the warm-up's
	// included) and submissions the verdict store answered.
	var hits, lookups, verdictHits int64
	for _, st := range round.stats {
		hits += st.Cache.Hits
		lookups += st.Cache.Hits + st.Cache.Misses
		if st.Store != nil {
			verdictHits += st.Store.VerdictHits
		}
	}
	var subs, busy int
	var waits []time.Duration
	p := &probed{shards: map[int][]time.Duration{}}
	for _, o := range round.outs {
		if o == nil {
			continue // failed; counted by runRound
		}
		subs++
		busy += o.busy
		waits = append(waits, o.queueWaits...)
		if o.report != nil {
			p.retries += o.report.Retries
			p.checks++
		}
	}
	slices.Sort(waits)
	if err := b.probe(ctx, tr, p); err != nil {
		return nil, err
	}
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans written to %s\n", path)

	self := tr.selfTimes()
	fmt.Println("self time per layer over the traced run (ms):")
	for _, l := range append([]string{"bench"}, layers...) {
		fmt.Printf("  %-12s %10.1f\n", l, ms(self[l]))
	}
	fold := p.checkRun - p.enum - p.runner
	fmt.Printf("check.Run accounting over %d jobs (%d tuple visits): %.1fms = enumerate %.1fms + runner %.1fms + fold %.1fms (fold is the remainder; %.1f%% of the total)\n",
		p.jobs, p.visits, ms(p.checkRun), ms(p.enum), ms(p.runner), ms(fold), 100*float64(fold)/float64(p.checkRun))

	visits := float64(p.visits)
	e := p.exec
	answered := e.StackReplays + e.StackConstants + e.StackRowHits
	m := map[string]metric{
		"flowchart.parse_us":           {us(medianDur(p.parse)), "us"},
		"flowchart.compile_us":         {us(medianDur(p.compile)), "us"},
		"surveillance.instrument_us":   {us(medianDur(p.instrument)), "us"},
		"service.cache_hit_ratio":      {float64(hits) / float64(max(lookups, 1)), "ratio"},
		"service.cache_hits":           {float64(hits), "count"},
		"service.cache_lookups":        {float64(lookups), "count"},
		"service.submissions":          {float64(subs), "count"},
		"service.http_submit_us":       {us(medianDur(tr.durations("service.http_submit"))), "us"},
		"service.queue_wait_ms_p50":    {ms(quantile(waits, 0.50)), "ms"},
		"service.queue_wait_ms_p90":    {ms(quantile(waits, 0.90)), "ms"},
		"service.queue_wait_samples":   {float64(len(waits)), "count"},
		"service.busy_retries_per_job": {ratio(busy, subs), "1/job"},
		"store.open_us_per_record":     {us(p.open) / float64(max(p.openRecords, 1)), "us"},
		"store.records":                {float64(p.openRecords), "count"},
		"store.put_us":                 {us(medianDur(p.put)), "us"},
		"store.get_us":                 {us(medianDur(p.get)), "us"},
		"store.verdict_hit_ratio":      {float64(verdictHits) / float64(max(subs, 1)), "ratio"},
		"store.verdict_hits":           {float64(verdictHits), "count"},
		"check.run_ms":                 {ms(p.checkRun) / float64(p.jobs), "ms"},
		"check.probed_jobs":            {float64(p.jobs), "count"},
		"sweep.enumerate_ns_per_tuple": {float64(p.enum) / visits, "ns"},
		"core.runner_ns_per_tuple":     {float64(p.runner) / visits, "ns"},
		"core.fold_ns_per_tuple":       {float64(fold) / visits, "ns"},
		"core.tuples":                  {visits, "count"},
		"core.allocs_per_tuple":        {float64(p.mallocs) / visits, "count"},
		"core.stack_answered_ratio":    {float64(answered) / visits, "ratio"},
		"core.stack_answered":          {float64(answered), "count"},
		"core.batch_lane_util":         {float64(e.BatchLanes) / float64(max(e.BatchStrides*service.DefaultSweepBatch, 1)), "ratio"},
		"core.batch_strides":           {float64(e.BatchStrides), "count"},
		"core.batch_lanes":             {float64(e.BatchLanes), "count"},
		"core.batch_divergence_ratio":  {float64(e.BatchDiverged) / float64(max(e.BatchLanes, 1)), "ratio"},
		"core.batch_diverged":          {float64(e.BatchDiverged), "count"},
		"check.merge_ms":               {ms(medianDur(p.merge)), "ms"},
		"cluster.coord_overhead_ms":    {ms(medianDur(p.overhead)), "ms"},
		"cluster.retries_per_check":    {ratio(p.retries, p.checks), "1/check"},
		"cluster.checks":               {float64(p.checks), "count"},
		"trace.jobs_per_s":             {rate, "1/s"},
		"trace.untraced_jobs_per_s":    {plainRate, "1/s"},
	}
	for _, l := range layers {
		m[l+".self_ms"] = metric{ms(self[l]), "ms"}
	}
	return m, nil
}

// probe times each layer's public functions on the sampled jobs.
func (b *bench) probe(ctx context.Context, tr *tracer, p *probed) error {
	workers := defaultSweepWorkers()
	width := service.DefaultSweepBatch
	opts := []check.Option{check.WithWorkers(workers), check.WithBatch(width)}
	var sample []service.CheckRequest
	seen := map[string]bool{}
	for _, req := range b.wl.Jobs[:min(probeJobs[b.wl.Name], len(b.wl.Jobs))] {
		if k := refKey(req); !seen[k] {
			seen[k] = true
			sample = append(sample, req)
		}
	}
	type stored struct {
		key  store.Key
		data []byte
	}
	var toStore []stored
	for i, req := range sample {
		root := tr.root("bench.probe", fmt.Sprint(i))
		s, t, err := resolve(tr, root, req)
		if err != nil {
			return err
		}
		p.parse = append(p.parse, t.parse)
		p.compile = append(p.compile, t.compile)
		if !req.Raw {
			p.instrument = append(p.instrument, t.instrument)
		}
		tally := &core.ExecTally{}
		m0 := mallocs()
		var sound check.Verdict
		var max *check.Verdict
		p.checkRun += tr.timed("check.run", root, func() {
			sound, max, err = s.run(ctx, check.Shard{}, append(opts, check.WithExecTally(tally))...)
		})
		p.mallocs += mallocs() - m0
		if err != nil {
			return err
		}
		b.attempted++
		if werr := b.refs[refKey(req)].sameBits(sound, max); werr != nil {
			b.probeFailed(fmt.Errorf("probe %d check.Run: %w", i, werr))
		}
		addCounts(&p.exec, tally.Counts())
		p.jobs++
		enum, runner, visits, err := decompose(ctx, tr, root, s, workers, width)
		if err != nil {
			return err
		}
		p.enum += enum
		p.runner += runner
		p.visits += visits

		merged, durs, merge, err := shardAndMerge(ctx, tr, root, s, opts)
		if err != nil {
			return err
		}
		p.shards[i] = durs
		p.merge = append(p.merge, merge)
		b.attempted++
		if werr := b.refs[refKey(req)].sameBits(merged.sound, merged.max); werr != nil {
			b.probeFailed(fmt.Errorf("probe %d check.Merge: %w", i, werr))
		}

		data, err := json.Marshal(struct {
			Sound check.Verdict  `json:"sound"`
			Max   *check.Verdict `json:"max,omitempty"`
		}{sound, max})
		if err != nil {
			return err
		}
		toStore = append(toStore, stored{store.Key{
			Fingerprint: flowchart.Fingerprint(s.prog),
			Policy:      req.Policy,
			Variant:     fmt.Sprintf("raw=%v max=%v", req.Raw, req.Maximal),
			Domain:      fmt.Sprint(req.Domain),
		}, data})
		tr.end(root)
	}

	// Store: appends and lookups of the probed verdicts in a fresh store,
	// then a replay of its log.
	root := tr.root("bench.store", "store")
	dir := filepath.Join(b.dir, "probe-store")
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	for _, s := range toStore {
		var perr error
		p.put = append(p.put, tr.timed("store.put", root, func() { perr = st.PutVerdict(s.key, s.data) }))
		if perr != nil {
			st.Close()
			return perr
		}
		var got json.RawMessage
		var ok bool
		p.get = append(p.get, tr.timed("store.get", root, func() { got, ok = st.Verdict(s.key) }))
		if !ok || !bytes.Equal(got, s.data) {
			st.Close()
			return fmt.Errorf("store probe: verdict read back differs")
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	p.open = tr.timed("store.open", root, func() { st, err = store.Open(dir) })
	if err != nil {
		return err
	}
	p.openRecords = st.Stats().Verdicts
	if err := st.Close(); err != nil {
		return err
	}
	tr.end(root)
	return b.probeCluster(ctx, tr, sample, p)
}

// decompose repeats check.Run's enumeration passes twice: once with a
// no-op callback (the sweep engine alone) and once driving the
// mechanisms' runners with their outcomes discarded. The runner time is
// the second minus the first. A soundness check is one pass over the
// mechanism; maximality adds a pass over the bare program and one over
// both.
func decompose(ctx context.Context, tr *tracer, root int, s *spec, workers, width int) (enum, runner time.Duration, visits int64, err error) {
	passes := [][]core.Mechanism{{s.mech}}
	if s.maximal {
		passes = append(passes, []core.Mechanism{s.bare}, []core.Mechanism{s.bare, s.mech})
	}
	cfg := sweep.Config{Workers: workers}
	size := int64(sweep.Size(s.dom))
	for _, mechs := range passes {
		factories := make([]func() core.BatchRunFunc, len(mechs))
		for i, m := range mechs {
			factories[i] = m.(*core.CompiledMechanism).BatchRunners(width, true, true, nil)
			if factories[i] == nil {
				return 0, 0, 0, fmt.Errorf("mechanism %s has no batch tier", m.Name())
			}
		}
		e := tr.timed("sweep.enumerate", root, func() {
			err = sweep.RunBatchContext(ctx, s.dom, cfg, width, func(int, []int64, []int64, int) error { return nil })
		})
		if err != nil {
			return 0, 0, 0, err
		}
		runs := make([][]core.BatchRunFunc, workers)
		outs := make([][]core.Outcome, workers)
		for w := range runs {
			for _, f := range factories {
				runs[w] = append(runs[w], f())
			}
			outs[w] = make([]core.Outcome, width)
		}
		r := tr.timed("core.runner", root, func() {
			err = sweep.RunBatchContext(ctx, s.dom, cfg, width, func(w int, input, last []int64, carry int) error {
				for _, run := range runs[w] {
					if err := run(input, last, carry, outs[w][:len(last)]); err != nil {
						return err
					}
				}
				return nil
			})
		})
		if err != nil {
			return 0, 0, 0, err
		}
		enum += e
		runner += r - e
		visits += size
	}
	return enum, runner, visits, nil
}

type verdicts struct {
	sound check.Verdict
	max   *check.Verdict
}

// clusterShards is how many shards the coordinator's default
// configuration splits a check into.
const clusterShards = cluster.DefaultShardsPerNode * clusterNodes

// shardAndMerge runs the spec as the cluster coordinator splits it, with a
// direct sharded check.Run per shard, then folds the parts with
// check.Merge.
func shardAndMerge(ctx context.Context, tr *tracer, root int, s *spec, opts []check.Option) (verdicts, []time.Duration, time.Duration, error) {
	var sounds, maxes []check.Verdict
	var durs []time.Duration
	for _, sh := range splitIndexSpace(sweep.Size(s.dom), clusterShards) {
		var v verdicts
		var err error
		durs = append(durs, tr.timed("check.shard_run", root, func() { v.sound, v.max, err = s.run(ctx, sh, opts...) }))
		if err != nil {
			return verdicts{}, nil, 0, err
		}
		sounds = append(sounds, v.sound)
		if v.max != nil {
			maxes = append(maxes, *v.max)
		}
	}
	var out verdicts
	var err error
	d := tr.timed("check.merge", root, func() {
		if out.sound, err = check.Merge(sounds...); err != nil || len(maxes) == 0 {
			return
		}
		var mv check.Verdict
		mv, err = check.Merge(maxes...)
		out.max = &mv
	})
	return out, durs, d, err
}

// splitIndexSpace cuts [0, size) into n contiguous shards the way the
// cluster coordinator does: equal counts, the remainder spread over the
// first shards, and never more shards than tuples.
func splitIndexSpace(size, n int) []check.Shard {
	n = min(n, size)
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

// probeCluster sends the first sampled jobs through Coordinator.Check over
// two nodes. The coordinator's overhead is its wall time minus the
// critical path of the job's shards: the direct shard runs, placed in
// order on whichever of the two nodes frees first, as the fixed-fleet
// coordinator places them. On the cluster workload, whose submissions
// the coordinator makes, the shards also go to one node over HTTP so the
// POST /v2/check round trip is measured.
func (b *bench) probeCluster(ctx context.Context, tr *tracer, sample []service.CheckRequest, p *probed) error {
	f, err := startFleet(&Workload{Cluster: true})
	if err != nil {
		return err
	}
	defer f.stop()
	for i, req := range sample[:min(clusterProbeJobs, len(sample))] {
		root := tr.root("bench.cluster", fmt.Sprint(i))
		start := time.Now()
		out, err := f.do(ctx, req, tr, root)
		wall := time.Since(start)
		tr.end(root)
		if err != nil {
			return err
		}
		b.attempted++
		if err := b.refs[refKey(req)].checkReport(out.report); err != nil {
			b.probeFailed(fmt.Errorf("probe %d Coordinator.Check: %w", i, err))
		}
		p.retries += out.report.Retries
		p.checks++
		p.overhead = append(p.overhead, wall-criticalPath(p.shards[i], clusterNodes))
	}
	if !b.wl.Cluster {
		return nil
	}
	single, err := startFleet(&Workload{})
	if err != nil {
		return err
	}
	defer single.stop()
	for i, req := range sample {
		root := tr.root("bench.shards", fmt.Sprint(i))
		prog, err := flowchart.Parse(req.Program)
		if err != nil {
			return err
		}
		for _, sh := range splitIndexSpace(sweep.Size(core.Grid(prog.Arity(), req.Domain...)), clusterShards) {
			part := req
			part.Offset, part.Count = sh.Offset, sh.Count
			out, err := single.do(ctx, part, tr, root)
			if err != nil {
				return err
			}
			if out.status.State != service.StateDone {
				return fmt.Errorf("shard job %s: %s %s", out.id, out.status.State, out.status.Error)
			}
		}
		tr.end(root)
	}
	return nil
}

// criticalPath is the finish time of shards placed in order, each on the
// node that frees first.
func criticalPath(shards []time.Duration, nodes int) time.Duration {
	free := make([]time.Duration, nodes)
	for _, d := range shards {
		i := slices.Index(free, slices.Min(free))
		free[i] += d
	}
	return slices.Max(free)
}

// sameBits compares the verdict bits and counts of a direct check with
// the reference; witnesses of sharded and merged runs may legitimately
// differ.
func (r *reference) sameBits(sound check.Verdict, max *check.Verdict) error {
	if sound.Sound != r.sound.Sound || sound.Checked != r.sound.Checked {
		return fmt.Errorf("%w: sound=%v checked=%d, want sound=%v checked=%d", errWrong, sound.Sound, sound.Checked, r.sound.Sound, r.sound.Checked)
	}
	if (max != nil) != (r.max != nil) || (max != nil && (max.Maximal != r.max.Maximal || max.Reason != r.max.Reason)) {
		return fmt.Errorf("%w: maximality differs", errWrong)
	}
	return nil
}

func (b *bench) probeFailed(err error) {
	b.failed++
	if b.firstFailure == nil {
		b.firstFailure = err
		fmt.Fprintln(os.Stderr, "spmbench: first failed verdict:", err)
	}
}

// defaultSweepWorkers is the per-job sweep parallelism of a default
// service on this machine.
func defaultSweepWorkers() int {
	svc := service.New(service.Config{})
	defer svc.Close()
	return svc.Config().SweepWorkers
}

func addCounts(sum *core.ExecCounts, c core.ExecCounts) {
	sum.MemoCaptures += c.MemoCaptures
	sum.MemoReplays += c.MemoReplays
	sum.MemoInvalid += c.MemoInvalid
	sum.BatchStrides += c.BatchStrides
	sum.BatchLanes += c.BatchLanes
	sum.BatchDiverged += c.BatchDiverged
	sum.StackFull += c.StackFull
	sum.StackReplays += c.StackReplays
	sum.StackConstants += c.StackConstants
	sum.StackRowHits += c.StackRowHits
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func ratio(a, b int) float64 { return float64(a) / float64(max(b, 1)) }
