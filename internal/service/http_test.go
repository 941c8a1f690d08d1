package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { srv.Close(); svc.Close() })
	return svc, srv
}

func doJSON(t *testing.T, srv *httptest.Server, method, path, body string, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
	}
	return resp
}

func marshalReq(t *testing.T, req CheckRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// pollDone polls GET /v2/jobs/{id} until the job is terminal.
func pollDone(t *testing.T, srv *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st JobStatus
		resp := doJSON(t, srv, http.MethodGet, "/v2/jobs/"+id, "", &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: status %d", id, resp.StatusCode)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHTTPSubmitErrors(t *testing.T) {
	_, srv := newTestServer(t, Config{Runners: 1, MaxTuples: 1000})
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
		wantErrSub string
	}{
		{
			name:   "malformed program is 400",
			method: http.MethodPost, path: "/v2/check",
			body:       marshalReq(t, CheckRequest{Program: "program broken\ninputs x1\n    y := \n"}),
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
			wantErrSub: "program",
		},
		{
			name:   "invalid JSON is 400",
			method: http.MethodPost, path: "/v2/check",
			body:       "{not json",
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
			wantErrSub: "decoding",
		},
		{
			name:   "bad policy is 400",
			method: http.MethodPost, path: "/v2/check",
			body:       marshalReq(t, CheckRequest{Program: testProg, Policy: "{nope}"}),
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
			wantErrSub: "policy",
		},
		{
			name:   "bad variant is 400",
			method: http.MethodPost, path: "/v2/check",
			body:       marshalReq(t, CheckRequest{Program: testProg, Variant: "warp"}),
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
			wantErrSub: "variant",
		},
		{
			name:   "oversized domain is 400",
			method: http.MethodPost, path: "/v2/check",
			body: marshalReq(t, CheckRequest{Program: testProg,
				Domain: []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32}}),
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
			wantErrSub: "tuples",
		},
		{
			name:   "oversized body is 413",
			method: http.MethodPost, path: "/v2/check",
			body:       `{"program": "` + strings.Repeat("x", maxBodyBytes) + `"}`,
			wantStatus: http.StatusRequestEntityTooLarge,
			wantCode:   CodeTooLarge,
			wantErrSub: "body",
		},
		{
			name:   "unknown job is 404",
			method: http.MethodGet, path: "/v2/jobs/not-a-job-id",
			wantStatus: http.StatusNotFound,
			wantCode:   CodeNotFound,
			wantErrSub: "unknown job",
		},
		{
			name:   "unknown v2 job is 404",
			method: http.MethodGet, path: "/v2/jobs/job-424242",
			wantStatus: http.StatusNotFound,
			wantCode:   CodeNotFound,
			wantErrSub: "unknown job",
		},
		{
			name:   "cancel of unknown job is 404",
			method: http.MethodDelete, path: "/v2/jobs/job-424242",
			wantStatus: http.StatusNotFound,
			wantCode:   CodeNotFound,
			wantErrSub: "unknown job",
		},
		{
			name:   "events of unknown job is 404",
			method: http.MethodGet, path: "/v2/jobs/job-424242/events",
			wantStatus: http.StatusNotFound,
			wantCode:   CodeNotFound,
			wantErrSub: "unknown job",
		},
		{
			name:   "empty batch is 400",
			method: http.MethodPost, path: "/v2/check",
			body:       "[]",
			wantStatus: http.StatusBadRequest,
			wantCode:   CodeBadRequest,
			wantErrSub: "empty batch",
		},
		{
			name:   "GET on check is method not allowed",
			method: http.MethodGet, path: "/v2/check",
			wantStatus: http.StatusMethodNotAllowed,
		},
		{
			name:   "POST on stats is method not allowed",
			method: http.MethodPost, path: "/v2/stats",
			wantStatus: http.StatusMethodNotAllowed,
		},
		{
			name:   "v1 check is gone",
			method: http.MethodPost, path: "/v1/check",
			body:       marshalReq(t, CheckRequest{Program: testProg}),
			wantStatus: http.StatusNotFound,
		},
		{
			name:   "unknown path is 404",
			method: http.MethodGet, path: "/v2/other",
			wantStatus: http.StatusNotFound,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if tc.wantErrSub != "" {
				var e errorResponse
				if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
					t.Fatalf("decoding error body: %v", err)
				}
				if e.Error.Code != tc.wantCode {
					t.Errorf("error code = %q, want %q", e.Error.Code, tc.wantCode)
				}
				if !strings.Contains(e.Error.Message, tc.wantErrSub) {
					t.Errorf("error %q does not mention %q", e.Error.Message, tc.wantErrSub)
				}
			}
		})
	}
}

func TestHTTPSubmitPollStats(t *testing.T) {
	_, srv := newTestServer(t, Config{Runners: 2})
	body := marshalReq(t, CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1, 2}})

	var sub SubmitResponse
	resp := doJSON(t, srv, http.MethodPost, "/v2/check", body, &sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if sub.ID == "" || sub.Cached {
		t.Fatalf("submit response = %+v, want fresh job with ID", sub)
	}
	if sub.Total != 9 {
		t.Errorf("total = %d, want 9", sub.Total)
	}

	st := pollDone(t, srv, sub.ID)
	if st.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", st.State, st.Error)
	}
	if st.Result == nil || !st.Result.Sound || st.Result.Checked != 9 {
		t.Fatalf("result = %+v, want sound over 9 inputs", st.Result)
	}
	if st.Progress.Done != 9 || st.Progress.Total != 9 {
		t.Errorf("progress = %+v, want 9/9", st.Progress)
	}

	var stats Stats
	resp = doJSON(t, srv, http.MethodGet, "/v2/stats", "", &stats)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	if stats.Queue.Runners != 2 || stats.Queue.Depth != 0 || stats.Queue.Peak < 1 {
		t.Fatalf("stats.Queue = %+v, want 2 runners, depth 0, peak ≥ 1", stats.Queue)
	}
	if stats.Jobs.Done != 1 {
		t.Errorf("stats.Jobs = %+v, want 1 done", stats.Jobs)
	}
}

// TestHTTPCacheHitOnSecondSubmission is the acceptance case: an identical
// second submission must report cached: true, skip the compile phase, and
// produce an equal verdict.
func TestHTTPCacheHitOnSecondSubmission(t *testing.T) {
	svc, srv := newTestServer(t, Config{Runners: 1})
	body := marshalReq(t, CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1, 2}})

	var first SubmitResponse
	doJSON(t, srv, http.MethodPost, "/v2/check", body, &first)
	if first.Cached {
		t.Fatal("first submission claims a cache hit")
	}
	firstStatus := pollDone(t, srv, first.ID)

	var second SubmitResponse
	doJSON(t, srv, http.MethodPost, "/v2/check", body, &second)
	if !second.Cached {
		t.Fatal("second identical submission did not report cached: true")
	}
	secondStatus := pollDone(t, srv, second.ID)

	if firstStatus.Result.Sound != secondStatus.Result.Sound ||
		firstStatus.Result.Checked != secondStatus.Result.Checked {
		t.Errorf("cached verdict differs: %+v vs %+v", firstStatus.Result, secondStatus.Result)
	}
	if !secondStatus.Cached {
		t.Error("job status lost the cached flag")
	}
	if misses := svc.cache.Stats().Misses; misses != 1 {
		t.Errorf("compile-cache misses = %d, want 1 (compile phase must be skipped)", misses)
	}
}

func TestHTTPMaximalVerdict(t *testing.T) {
	_, srv := newTestServer(t, Config{Runners: 1})
	body := marshalReq(t, CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1, 2}, Maximal: true})
	var sub SubmitResponse
	doJSON(t, srv, http.MethodPost, "/v2/check", body, &sub)
	st := pollDone(t, srv, sub.ID)
	if st.State != StateDone {
		t.Fatalf("state = %s, want done", st.State)
	}
	if st.Result.Maximal == nil {
		t.Fatal("maximal verdict missing from result")
	}
}
