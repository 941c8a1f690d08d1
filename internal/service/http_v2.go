package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// maxBatchSpecs bounds one POST /v2/check batch. The run queue bounds
// admission anyway (overflow items come back busy), but a hard cap keeps a
// single request from holding the submission path for long.
const maxBatchSpecs = 256

// defaultEventInterval is the progress-event cadence of
// GET /v2/jobs/{id}/events when the request does not set interval_ms.
const defaultEventInterval = 250 * time.Millisecond

// BatchItem is one entry of a batch submission's response: the submit
// echo for an accepted spec (ID non-empty; Cached/Total carry the
// same fields a single-spec SubmitResponse reports), or the rejection for a
// refused one (Error non-empty, the submit fields zero).
type BatchItem struct {
	ID            string `json:"id,omitempty"`
	State         State  `json:"state,omitempty"`
	Cached        bool   `json:"cached"`
	CachedVerdict bool   `json:"cached_verdict,omitempty"`
	Total         int64  `json:"total"`
	Error         string `json:"error,omitempty"`
	// Code is the ErrorBody code of a refused spec ("" when accepted).
	Code string `json:"code,omitempty"`
	// Busy marks specs refused because the run queue was full; the client
	// should resubmit just those.
	Busy bool `json:"busy,omitempty"`
}

// BatchResponse is the wire form of a batch POST /v2/check.
type BatchResponse struct {
	Jobs     []BatchItem `json:"jobs"`
	Accepted int         `json:"accepted"`
}

// CancelResponse is the wire form of DELETE /v2/jobs/{id}. State is the
// job's state observed immediately after the cancel request: a job caught
// while queued reports "cancelled" at once; a running job may still report
// "running" until the sweep observes the cancellation, within one chunk.
type CancelResponse struct {
	ID    string `json:"id"`
	State State  `json:"state"`
}

// handleCheckV2 is POST /v2/check: a single CheckRequest object, or a JSON
// array of them submitted as a batch. Batch responses report per-spec
// outcomes; the status is 202 when at least one spec was accepted and 400
// when none were.
func (s *Service) handleCheckV2(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	if trimmed := bytes.TrimLeft(body, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '[' {
		s.handleBatch(w, trimmed, r.Header.Get(TenantHeader))
		return
	}
	s.handleCheckBody(w, body, r.Header.Get(TenantHeader))
}

// handleCheckBody submits a single decoded spec. A submission
// answered from the verdict store is 200 (not 202): the job is already
// done and pollable.
func (s *Service) handleCheckBody(w http.ResponseWriter, body []byte, tenant string) {
	var req CheckRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding request: "+err.Error())
		return
	}
	j, err := s.SubmitTenant(req, tenant)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	status := http.StatusAccepted
	if j.CachedVerdict {
		status = http.StatusOK
	}
	writeJSON(w, status, SubmitResponse{
		ID:            j.ID,
		State:         j.stateNow(),
		Cached:        j.CacheHit,
		CachedVerdict: j.CachedVerdict,
		Total:         j.Total,
	})
}

// errorCode maps a Submit error to its stable ErrorBody code.
func errorCode(err error) string {
	switch {
	case errors.Is(err, ErrBadRequest):
		return CodeBadRequest
	case errors.Is(err, ErrOverQuota):
		return CodeOverQuota
	case errors.Is(err, ErrBusy):
		return CodeBusy
	default:
		return CodeInternal
	}
}

func (s *Service) handleBatch(w http.ResponseWriter, body []byte, tenant string) {
	var reqs []CheckRequest
	if err := json.Unmarshal(body, &reqs); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding batch: "+err.Error())
		return
	}
	if len(reqs) == 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "empty batch")
		return
	}
	if len(reqs) > maxBatchSpecs {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("batch has %d specs, limit %d", len(reqs), maxBatchSpecs))
		return
	}
	resp := BatchResponse{Jobs: make([]BatchItem, len(reqs))}
	anyBusy := false
	for i, req := range reqs {
		j, err := s.SubmitTenant(req, tenant)
		if err != nil {
			busy := errors.Is(err, ErrBusy)
			anyBusy = anyBusy || busy
			resp.Jobs[i] = BatchItem{Error: err.Error(), Code: errorCode(err), Busy: busy}
			continue
		}
		resp.Jobs[i] = BatchItem{
			ID: j.ID, State: j.stateNow(),
			Cached: j.CacheHit, CachedVerdict: j.CachedVerdict,
			Total: j.Total,
		}
		resp.Accepted++
	}
	status := http.StatusAccepted
	if resp.Accepted == 0 {
		// Nothing admitted: a transiently full queue keeps the single-spec
		// retryable 503 contract; pure validation failures are a permanent
		// 400.
		if anyBusy {
			w.Header().Set("Retry-After", "1")
			status = http.StatusServiceUnavailable
		} else {
			status = http.StatusBadRequest
		}
	}
	writeJSON(w, status, resp)
}

// handleCancel is DELETE /v2/jobs/{id}: 200 with the observed state when
// the cancel took (or the job was already cancelled), 404 for unknown IDs,
// 409 when the job already finished.
func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrUnknownJob):
		writeError(w, http.StatusNotFound, CodeNotFound, err.Error())
		return
	case errors.Is(err, ErrJobTerminal):
		writeError(w, http.StatusConflict, CodeConflict, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, CancelResponse{ID: j.ID, State: j.stateNow()})
}

// handleEvents is GET /v2/jobs/{id}/events: a server-sent-event stream of
// the job's status. One "progress" event is sent immediately, then one
// every interval (interval_ms query parameter, default 250), sourced from
// the job's progress counter; a final "done" event carries the
// terminal status — result included — and closes the stream. Disconnecting
// the request ends the stream without affecting the job.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, CodeNotFound, err.Error())
		return
	}
	interval := defaultEventInterval
	if ms := r.URL.Query().Get("interval_ms"); ms != "" {
		n, err := strconv.Atoi(ms)
		if err != nil || n < 10 || n > 60_000 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "interval_ms must be an integer in [10, 60000]")
			return
		}
		interval = time.Duration(n) * time.Millisecond
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, CodeInternal, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func(event string) bool {
		data, err := json.Marshal(j.Status())
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if !emit("progress") {
		return
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-j.Done():
			emit("done")
			return
		case <-ticker.C:
			if !emit("progress") {
				return
			}
		}
	}
}
