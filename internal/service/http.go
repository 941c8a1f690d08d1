package service

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
)

// maxBodyBytes bounds a submission body; programs are small DSL texts.
const maxBodyBytes = 1 << 20

// TenantHeader attributes a submission to a tenant for quota and
// fairness accounting (Config.Tenant). Absent means the anonymous
// tenant "".
const TenantHeader = "X-SPM-Tenant"

// SubmitResponse is the wire form of POST /v2/check.
type SubmitResponse struct {
	ID string `json:"id"`
	// State is the job's state at response time: "queued" normally,
	// "done" when the verdict came straight from the persistent store.
	State State `json:"state"`
	// Cached reports a compile-cache hit: the parse/instrument/Compile
	// phases were skipped and the job runs the cached compiled form.
	Cached bool `json:"cached"`
	// CachedVerdict reports a verdict-store hit: the whole sweep was
	// skipped, and GET /v2/jobs/{id} already has the result.
	CachedVerdict bool  `json:"cached_verdict,omitempty"`
	Total         int64 `json:"total"`
}

// ErrorBody is the unified error envelope of every non-2xx response:
//
//	{"error": {"code": "busy", "message": "..."}}
//
// Code is a stable machine-readable discriminator; Message is for
// humans and not part of the API contract.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorResponse struct {
	Error ErrorBody `json:"error"`
}

// Stable error codes of the ErrorBody envelope.
const (
	CodeBadRequest = "bad_request" // 400: invalid program, policy, domain, or body
	CodeTooLarge   = "too_large"   // 413: request body over the size bound
	CodeNotFound   = "not_found"   // 404: unknown job ID
	CodeConflict   = "conflict"    // 409: cancel of an already-finished job
	CodeOverQuota  = "over_quota"  // 429: tenant token bucket exhausted; Retry-After set
	CodeBusy       = "busy"        // 503: run queue full; Retry-After set
	CodeInternal   = "internal"    // 500: unexpected failure
)

// Handler returns the service's HTTP API, the v2 surface — submit,
// batch, poll, cancel, stream, stats; tenant-aware via the X-SPM-Tenant
// header:
//
//	POST   /v2/check            submit one spec (JSON object) or a batch
//	                            (JSON array); 202 with job ID(s), or 200
//	                            with state "done" on a verdict-store hit
//	GET    /v2/jobs/{id}        poll lifecycle state, progress, and verdict
//	DELETE /v2/jobs/{id}        cancel a queued or running job
//	GET    /v2/jobs/{id}/events stream progress as server-sent events
//	GET    /v2/jobs/{id}/trace  the job's recorded event timeline
//	GET    /v2/stats            run-queue depth, cache and verdict-store
//	                            counters, per-tenant admission tallies
//	GET    /v2/metrics          Prometheus text exposition of every
//	                            service counter and histogram
//
// Every non-2xx response carries the ErrorBody envelope. Submissions
// rejected by a tenant quota are 429 with Retry-After; a full run
// queue is 503 with Retry-After.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/check", s.handleCheckV2)
	mux.HandleFunc("GET /v2/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v2/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v2/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v2/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v2/stats", s.handleStats)
	mux.Handle("GET /v2/metrics", s.metrics.reg)
	return mux
}

// readBody reads a bounded request body, writing the error response itself
// when the body is unreadable or oversized.
func (s *Service) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "reading body: "+err.Error())
		return nil, false
	}
	if len(body) > maxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge, CodeTooLarge, "request body exceeds 1 MiB")
		return nil, false
	}
	return body, true
}

// writeSubmitError maps a Submit error to its status code.
func writeSubmitError(w http.ResponseWriter, err error) {
	var qe *QuotaError
	switch {
	case errors.Is(err, ErrBadRequest):
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
	case errors.As(err, &qe):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(qe)))
		writeError(w, http.StatusTooManyRequests, CodeOverQuota, err.Error())
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, CodeBusy, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}

// retryAfterSeconds renders a quota rejection's refill time as the
// whole-second Retry-After header, rounded up so retrying on schedule
// actually succeeds.
func retryAfterSeconds(qe *QuotaError) int {
	secs := int(math.Ceil(qe.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, CodeNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorResponse{Error: ErrorBody{Code: code, Message: msg}})
}
