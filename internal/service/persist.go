package service

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"spm/internal/check"
	"spm/internal/core"
	"spm/internal/store"
)

// jobCheckpoint is the service's serialized resume state, stored as the
// opaque checkpoint bytes of a store.Pending record. A job is at most two
// checkpointed sweeps — soundness, then (if requested) the maximality
// evidence pass — so the phase tag plus the engine checkpoint pins
// exactly where the crash hit.
type jobCheckpoint struct {
	// Phase is the sweep the checkpoint belongs to: "sound" or "max".
	Phase string `json:"phase"`
	// Cursor and Partial are the engine checkpoint of the current phase
	// (see check.Checkpoint).
	Cursor  int64          `json:"cursor"`
	Partial *check.Verdict `json:"partial,omitempty"`
	// Sound carries the finished soundness verdict once Phase is "max",
	// so resuming the maximality pass never re-sweeps soundness.
	Sound *check.Verdict `json:"sound,omitempty"`
}

// storeKey content-addresses the verdict a request decides: canonical
// program fingerprint, normalized policy and variant, the domain value
// list, and the shard. Raw, timed, and maximal all change the verdict, so
// they fold into the variant tag.
func storeKey(entry *compiled, req CheckRequest) store.Key {
	return store.Key{
		Fingerprint: entry.fingerprint,
		Policy:      entry.polName,
		Variant:     variantTag(entry, req),
		Domain:      domainString(req.Domain),
		Offset:      req.Offset,
		Count:       req.Count,
	}
}

func variantTag(entry *compiled, req CheckRequest) string {
	tag := entry.variantName
	if req.Raw {
		tag += "+raw"
	}
	if req.Timed {
		tag += "+timed"
	}
	if req.Maximal {
		tag += "+max"
	}
	return tag
}

func domainString(values []int64) string {
	parts := make([]string, len(values))
	for i, v := range values {
		parts[i] = strconv.FormatInt(v, 10)
	}
	return strings.Join(parts, ",")
}

// StoreStats is the persistence section of Stats, present when the
// service runs with a verdict store.
type StoreStats struct {
	// Verdicts and Pending are current index occupancy.
	Verdicts int `json:"verdicts"`
	Pending  int `json:"pending"`
	// VerdictHits counts submissions answered straight from the store
	// without dispatching a sweep.
	VerdictHits int64 `json:"verdict_hits"`
	// Lookups counts store probes (hits + misses).
	Lookups int64 `json:"lookups"`
	// ResumedJobs counts jobs re-enqueued from a pending checkpoint at
	// startup.
	ResumedJobs int64 `json:"resumed_jobs"`
	// BytesAppended counts log bytes persisted since the store opened.
	BytesAppended int64 `json:"bytes_appended"`
	// Compacted reports whether opening the store rewrote its log.
	Compacted bool `json:"compacted"`
}

func (s *Service) storeStats() *StoreStats {
	if s.store == nil {
		return nil
	}
	st := s.store.Stats()
	return &StoreStats{
		Verdicts:      st.Verdicts,
		Pending:       st.Pending,
		VerdictHits:   s.nVerdictHits.Load(),
		Lookups:       st.Hits + st.Misses,
		ResumedJobs:   s.nResumed.Load(),
		BytesAppended: st.BytesAppended,
		Compacted:     st.Compacted,
	}
}

// resumePending re-admits every job the store recorded as unfinished:
// same ID, same request, sweeping only past the last checkpoint. Jobs
// whose payload no longer admits (or that cannot be decoded) are cleared
// rather than wedged. Called from New before the service accepts traffic.
func (s *Service) resumePending() {
	jobs := s.store.PendingJobs()
	// New jobs must not collide with resumed IDs.
	var max uint64
	for _, p := range jobs {
		if n, ok := strings.CutPrefix(p.ID, "job-"); ok {
			if v, err := strconv.ParseUint(n, 10, 64); err == nil && v > max {
				max = v
			}
		}
	}
	if max > s.seq.Load() {
		s.seq.Store(max)
	}
	for _, p := range jobs {
		var req CheckRequest
		if err := json.Unmarshal(p.Payload, &req); err != nil {
			s.store.ClearPending(p.ID)
			continue
		}
		var resume *jobCheckpoint
		if len(p.Checkpoint) > 0 {
			var ck jobCheckpoint
			if err := json.Unmarshal(p.Checkpoint, &ck); err == nil {
				resume = &ck
			}
		}
		if _, err := s.submit(req, p.ID, resume, ""); err != nil {
			s.store.ClearPending(p.ID)
			continue
		}
		s.nResumed.Add(1)
	}
}

// cachedJob materializes a store verdict hit as an already-done job: the
// client sees the normal job lifecycle, fast-forwarded to its terminal
// state, with CachedVerdict set and CacheHit reporting the compile-cache
// lookup the submission made (hit).
func (s *Service) cachedJob(req CheckRequest, entry *compiled, hit bool, total int64, raw json.RawMessage) (*Job, error) {
	var res Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("service: stored verdict corrupt: %w", err)
	}
	// The stored timings describe the run that computed the verdict, not
	// this lookup; report the lookup as (effectively) instant.
	res.ElapsedSeconds = 0
	res.InputsPerSec = 0
	j := newJob(fmt.Sprintf("job-%d", s.seq.Add(1)), req, entry, hit, total)
	j.CachedVerdict = true
	j.progress.Store(total)
	j.trace = s.metrics.tracer.Begin(j.ID)
	j.trace.Event("submit", fmt.Sprintf("total=%d", total))
	j.trace.Event("store-hit", "verdict served from store; no sweep")
	j.finish(&res, nil)

	s.mu.Lock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.evictLocked()
	s.mu.Unlock()
	s.nDone.Add(1)
	s.nVerdictHits.Add(1)
	return j, nil
}

// checkStore is the persistent variant of check: the same verdicts, but
// swept through check.RunCheckpointed with the job's fold persisted to
// the store after every segment, plus a fine chunk-level cursor between
// checkpoints. A job interrupted by a crash resumes from the last
// checkpoint that reached disk; the resumed verdict is byte-identical to
// the uninterrupted one at any sweep worker count (see
// check.RunCheckpointed).
func (s *Service) checkStore(ctx context.Context, j *Job) (*Result, error) {
	entry := j.entry
	pol := core.NewAllowSet(entry.prog.Arity(), entry.allowed)
	dom := core.Grid(entry.prog.Arity(), j.Req.Domain...)
	obs := core.ObserveValue
	if j.Req.Timed {
		obs = core.ObserveValueAndTime
	}
	span := j.span
	every := s.cfg.CheckpointEvery

	// The fine cursor is job-relative: the maximality pass continues
	// where the soundness pass ended, so the persisted cursor (and the
	// progress bar it feeds after a resume) is monotone across phases.
	phaseBase := int64(0)
	commit := check.WithCommit(func(done int64) {
		s.store.Cursor(j.ID, phaseBase+done)
	})
	opts := []check.Option{
		check.WithWorkers(s.cfg.SweepWorkers),
		check.WithBatch(s.cfg.SweepBatch),
		check.WithProgress(&j.progress),
		check.WithThrottle(s.cfg.Throttle),
		check.WithObserver(&jobObserver{m: s.metrics, tr: j.trace}),
		check.WithExecTally(s.metrics.exec),
		commit,
	}
	shard := check.Shard{Offset: j.Req.Offset, Count: j.Req.Count}

	var soundV check.Verdict
	resume := j.resume
	start := time.Now()
	if resume != nil && resume.Phase == "max" && resume.Sound != nil {
		// The soundness pass finished before the crash; don't redo it.
		soundV = *resume.Sound
		j.progress.Store(span)
	} else {
		var from *check.Checkpoint
		if resume != nil && resume.Phase == "sound" {
			from = &check.Checkpoint{Cursor: resume.Cursor, Partial: resume.Partial}
			j.progress.Store(resume.Cursor)
		}
		j.trace.Event("sweep", "phase=sound")
		v, err := check.RunCheckpointed(ctx, check.Spec{
			Kind:        check.Soundness,
			Mechanism:   entry.mech,
			Policy:      pol,
			Domain:      dom,
			Observation: obs,
			Shard:       shard,
		}, from, every, func(ck check.Checkpoint) error {
			return s.saveCheckpoint(j, jobCheckpoint{Phase: "sound", Cursor: ck.Cursor, Partial: ck.Partial}, ck.Cursor)
		}, opts...)
		if err != nil {
			return nil, err
		}
		j.trace.Span("sound", fmt.Sprintf("checked=%d", v.Checked), time.Since(start))
		soundV = v
	}

	res := &Result{
		Mechanism:   soundV.Mechanism,
		Policy:      soundV.Policy,
		Observation: soundV.Observation,
		Sound:       soundV.Sound,
		Checked:     soundV.Checked,
		WitnessA:    soundV.WitnessA,
		WitnessB:    soundV.WitnessB,
		ObsA:        soundV.ObsA,
		ObsB:        soundV.ObsB,
		Offset:      j.Req.Offset,
		Count:       j.Req.Count,
		Views:       soundV.Views,
	}
	if j.Req.Maximal {
		phaseBase = span
		var from *check.Checkpoint
		if resume != nil && resume.Phase == "max" {
			from = &check.Checkpoint{Cursor: resume.Cursor, Partial: resume.Partial}
			j.progress.Store(span + resume.Cursor)
		}
		mstart := time.Now()
		j.trace.Event("sweep", "phase=max")
		mv, err := check.RunCheckpointed(ctx, check.Spec{
			Kind:        check.Maximality,
			Mechanism:   entry.mech,
			Program:     entry.bare,
			Policy:      pol,
			Domain:      dom,
			Observation: obs,
			Shard:       shard,
		}, from, every, func(ck check.Checkpoint) error {
			return s.saveCheckpoint(j, jobCheckpoint{Phase: "max", Cursor: ck.Cursor, Partial: ck.Partial, Sound: &soundV}, span+ck.Cursor)
		}, opts...)
		if err != nil {
			return nil, err
		}
		j.trace.Span("max", fmt.Sprintf("checked=%d", mv.Checked), time.Since(mstart))
		maximal := mv.Maximal
		res.Program = mv.Program
		res.Maximal = &maximal
		res.MaximalWitness = mv.Witness
		res.MaximalReason = mv.Reason
		res.Classes = mv.Classes
	}
	j.trace.Event("merge", "assembling result")
	elapsed := time.Since(start)
	res.ElapsedSeconds = elapsed.Seconds()
	if elapsed > 0 {
		res.InputsPerSec = float64(j.Progress()) / elapsed.Seconds()
	}
	return res, nil
}

func (s *Service) saveCheckpoint(j *Job, ck jobCheckpoint, cursor int64) error {
	data, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	j.trace.Event("segment", fmt.Sprintf("phase=%s cursor=%d", ck.Phase, cursor))
	return s.store.Checkpoint(j.ID, data, cursor)
}

// settleStore finishes a job's store bookkeeping after its run: a
// successful verdict is durably recorded under the job's key, and the
// pending record is cleared in every terminal case (done, failed,
// cancelled) — only a crash leaves a job pending.
func (s *Service) settleStore(j *Job, res *Result, err error) {
	if err == nil && res != nil {
		if data, merr := json.Marshal(res); merr == nil {
			s.store.PutVerdict(j.storeKey, data)
		}
	}
	s.store.ClearPending(j.ID)
}
