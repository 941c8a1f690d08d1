package service

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"spm/internal/check"
	"spm/internal/store"
)

// jobCheckpoint is the service's serialized resume state, stored as the
// opaque checkpoint bytes of a store.Pending record: the engine checkpoint
// of the job's one checkpointed sweep, which for a maximal job decides
// soundness and maximality together.
//
// Phase tags the format. Records of the older two-phase format, tagged
// "sound" (the soundness pass) or "max" (the maximality pass, with the
// finished soundness verdict beside it), are not resumed from their
// cursor: their job restarts its one pass from cursor 0, which is exact
// by construction, where folding a maximality-only prefix would leave a
// soundness verdict that covers only the suffix.
type jobCheckpoint struct {
	Phase string `json:"phase"`
	// Cursor and Partial are the engine checkpoint (see check.Checkpoint).
	Cursor  int64          `json:"cursor"`
	Partial *check.Verdict `json:"partial,omitempty"`
}

// checkpointPhase is the Phase of every checkpoint the service writes.
const checkpointPhase = "one-pass"

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
			if err := json.Unmarshal(p.Checkpoint, &ck); err == nil && ck.Phase == checkpointPhase {
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

// checkStore is check's sweep on a store-backed service: the same
// verdict, but swept through check.RunCheckpointed with the job's fold
// persisted to the store after every segment. A job interrupted by a
// crash resumes from the last checkpoint in the log; the resumed verdict
// is byte-identical to the uninterrupted one at any sweep worker count
// (see check.RunCheckpointed).
func (s *Service) checkStore(ctx context.Context, j *Job, spec check.Spec, opts []check.Option) (check.Verdict, error) {
	var from *check.Checkpoint
	if r := j.resume; r != nil {
		from = &check.Checkpoint{Cursor: r.Cursor, Partial: r.Partial}
	}
	return check.RunCheckpointed(ctx, spec, from, s.cfg.CheckpointEvery, func(ck check.Checkpoint) error {
		data, err := json.Marshal(jobCheckpoint{Phase: checkpointPhase, Cursor: ck.Cursor, Partial: ck.Partial})
		if err != nil {
			return err
		}
		j.trace.Event("segment", fmt.Sprintf("cursor=%d", ck.Cursor))
		return s.store.Checkpoint(j.ID, data)
	}, opts...)
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
