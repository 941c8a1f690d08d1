package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestV2SingleSubmitAndPoll(t *testing.T) {
	_, srv := newTestServer(t, Config{Runners: 1})
	var sub SubmitResponse
	resp := doJSON(t, srv, http.MethodPost, "/v2/check",
		marshalReq(t, CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1, 2}}), &sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v2/check: status %d, want 202", resp.StatusCode)
	}
	var st JobStatus
	if resp := doJSON(t, srv, http.MethodGet, "/v2/jobs/"+sub.ID, "", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v2/jobs/%s: status %d", sub.ID, resp.StatusCode)
	}
	if st := pollDone(t, srv, sub.ID); st.State != StateDone {
		t.Fatalf("state %q, want done", st.State)
	}
}

func TestV2BatchSubmit(t *testing.T) {
	_, srv := newTestServer(t, Config{Runners: 2})
	good := marshalReq(t, CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1, 2}})
	bad := marshalReq(t, CheckRequest{Program: "program broken\ninputs x1\n    y := \n"})
	var batch BatchResponse
	resp := doJSON(t, srv, http.MethodPost, "/v2/check", "["+good+","+bad+","+good+"]", &batch)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d, want 202", resp.StatusCode)
	}
	if batch.Accepted != 2 || len(batch.Jobs) != 3 {
		t.Fatalf("batch = %+v, want 2 of 3 accepted", batch)
	}
	if batch.Jobs[0].ID == "" || batch.Jobs[2].ID == "" {
		t.Error("accepted batch items missing job IDs")
	}
	if batch.Jobs[1].Error == "" || batch.Jobs[1].ID != "" {
		t.Errorf("rejected item = %+v, want an error and no ID", batch.Jobs[1])
	}
	for _, it := range []BatchItem{batch.Jobs[0], batch.Jobs[2]} {
		if st := pollDone(t, srv, it.ID); st.State != StateDone {
			t.Errorf("batch job %s ended %q", it.ID, st.State)
		}
	}
}

func TestV2BatchAllRejected(t *testing.T) {
	_, srv := newTestServer(t, Config{Runners: 1})
	bad := marshalReq(t, CheckRequest{Program: "nonsense"})
	var batch BatchResponse
	if resp := doJSON(t, srv, http.MethodPost, "/v2/check", "["+bad+"]", &batch); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("all-rejected batch status %d, want 400", resp.StatusCode)
	}
}

func TestV2CancelOverHTTP(t *testing.T) {
	_, srv := newTestServer(t, Config{Runners: 1, SweepWorkers: 1})
	var sub SubmitResponse
	if resp := doJSON(t, srv, http.MethodPost, "/v2/check", marshalReq(t, slowRequest()), &sub); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var cr CancelResponse
	if resp := doJSON(t, srv, http.MethodDelete, "/v2/jobs/"+sub.ID, "", &cr); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d, want 200", resp.StatusCode)
	}
	// Cancellation is asynchronous for running jobs: poll until the
	// terminal cancelled state is visible.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st JobStatus
		doJSON(t, srv, http.MethodGet, "/v2/jobs/"+sub.ID, "", &st)
		if st.State == StateCancelled {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("GET /v2/jobs/%s: terminal state %q, want cancelled", sub.ID, st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET /v2/jobs/%s: still %q at deadline", sub.ID, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestV2CancelErrors(t *testing.T) {
	_, srv := newTestServer(t, Config{Runners: 1})
	if resp := doJSON(t, srv, http.MethodDelete, "/v2/jobs/job-404", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown: status %d, want 404", resp.StatusCode)
	}
	var sub SubmitResponse
	doJSON(t, srv, http.MethodPost, "/v2/check",
		marshalReq(t, CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1}}), &sub)
	pollDone(t, srv, sub.ID)
	if resp := doJSON(t, srv, http.MethodDelete, "/v2/jobs/"+sub.ID, "", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("DELETE finished: status %d, want 409", resp.StatusCode)
	}
}

// readEvents consumes an SSE stream until an event named terminal arrives
// (or the deadline), returning the event names seen in order.
func readEvents(t *testing.T, srv *httptest.Server, path, terminal string) []string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	client := srv.Client()
	client.Timeout = 30 * time.Second
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("GET %s: content type %q", path, ct)
	}
	var events []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			events = append(events, name)
			if name == terminal {
				return events
			}
		} else if !strings.HasPrefix(line, "data: ") && line != "" {
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	t.Fatalf("stream ended without a %q event (saw %v; scan err %v)", terminal, events, sc.Err())
	return nil
}

func TestV2EventsStreamProgressAndDone(t *testing.T) {
	_, srv := newTestServer(t, Config{Runners: 1, SweepWorkers: 1})
	var sub SubmitResponse
	doJSON(t, srv, http.MethodPost, "/v2/check", marshalReq(t, slowRequest()), &sub)
	events := readEvents(t, srv, "/v2/jobs/"+sub.ID+"/events?interval_ms=10", "done")
	if events[0] != "progress" {
		t.Errorf("first event %q, want progress", events[0])
	}
	if events[len(events)-1] != "done" {
		t.Errorf("last event %q, want done", events[len(events)-1])
	}
}

func TestV2EventsOnFinishedJob(t *testing.T) {
	_, srv := newTestServer(t, Config{Runners: 1})
	var sub SubmitResponse
	doJSON(t, srv, http.MethodPost, "/v2/check",
		marshalReq(t, CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1}}), &sub)
	pollDone(t, srv, sub.ID)
	// A stream opened after completion still delivers the initial
	// progress snapshot and the terminal done event, then closes.
	events := readEvents(t, srv, "/v2/jobs/"+sub.ID+"/events", "done")
	if len(events) < 2 {
		t.Errorf("events = %v, want at least progress then done", events)
	}
}

// TestV2VerdictStoreHitOverHTTP pins the verdict-cache wire contract: a
// repeat submission of a stored check answers 200 (not 202) with state
// done and cached_verdict set, and GET /v2/stats reports the hit.
func TestV2VerdictStoreHitOverHTTP(t *testing.T) {
	st := openStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	_, srv := newTestServer(t, Config{Runners: 1, Store: st})
	body := marshalReq(t, CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1, 2}})

	var first SubmitResponse
	if resp := doJSON(t, srv, http.MethodPost, "/v2/check", body, &first); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cold submit: status %d, want 202", resp.StatusCode)
	}
	pollDone(t, srv, first.ID)

	var second SubmitResponse
	resp := doJSON(t, srv, http.MethodPost, "/v2/check", body, &second)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verdict-hit submit: status %d, want 200", resp.StatusCode)
	}
	if !second.CachedVerdict || second.State != StateDone {
		t.Fatalf("verdict-hit response = %+v, want state done with cached_verdict", second)
	}
	var jst JobStatus
	doJSON(t, srv, http.MethodGet, "/v2/jobs/"+second.ID, "", &jst)
	if !jst.CachedVerdict || jst.Result == nil {
		t.Errorf("job status = %+v, want a stored result with cached_verdict", jst)
	}

	var stats Stats
	if resp := doJSON(t, srv, http.MethodGet, "/v2/stats", "", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v2/stats: status %d", resp.StatusCode)
	}
	if stats.Store == nil || stats.Store.VerdictHits != 1 || stats.Store.Verdicts != 1 {
		t.Errorf("stats.Store = %+v, want one verdict and one hit", stats.Store)
	}
}

// TestV2TenantQuotaOverHTTP pins the tenant wire contract: X-SPM-Tenant
// attributes submissions, an exhausted bucket answers 429 with the
// over_quota code and a whole-second Retry-After, and the tenant's
// tallies surface in GET /v2/stats.
func TestV2TenantQuotaOverHTTP(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	_, srv := newTestServer(t, Config{Runners: 1, Tenant: TenantConfig{Rate: 100, Burst: 10, Now: clk.Now}})
	body := marshalReq(t, CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1, 2}})

	post := func(tenant string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v2/check", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-SPM-Tenant", tenant)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post("acme")
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", resp.StatusCode)
	}
	pollDone(t, srv, sub.ID)

	resp = post("acme")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive whole-second value", resp.Header.Get("Retry-After"))
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != CodeOverQuota || !strings.Contains(e.Error.Message, "acme") {
		t.Errorf("429 body = %+v, want code over_quota naming the tenant", e.Error)
	}

	var stats Stats
	doJSON(t, srv, http.MethodGet, "/v2/stats", "", &stats)
	if len(stats.Tenants) != 1 || stats.Tenants[0].Tenant != "acme" ||
		stats.Tenants[0].Admitted != 1 || stats.Tenants[0].Rejected != 1 {
		t.Errorf("stats.Tenants = %+v, want acme with 1 admitted / 1 rejected", stats.Tenants)
	}
}

// TestV2BatchRejectionCodes pins per-item error codes in a mixed batch.
func TestV2BatchRejectionCodes(t *testing.T) {
	_, srv := newTestServer(t, Config{Runners: 1})
	good := marshalReq(t, CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1}})
	bad := marshalReq(t, CheckRequest{Program: "nonsense"})
	var batch BatchResponse
	doJSON(t, srv, http.MethodPost, "/v2/check", "["+good+","+bad+"]", &batch)
	if batch.Jobs[0].Code != "" || batch.Jobs[0].State != StateQueued && batch.Jobs[0].State != StateRunning && batch.Jobs[0].State != StateDone {
		t.Errorf("accepted item = %+v, want no code and a live state", batch.Jobs[0])
	}
	if batch.Jobs[1].Code != CodeBadRequest {
		t.Errorf("rejected item code = %q, want %q", batch.Jobs[1].Code, CodeBadRequest)
	}
	pollDone(t, srv, batch.Jobs[0].ID)
}

func TestV2EventsBadInterval(t *testing.T) {
	_, srv := newTestServer(t, Config{Runners: 1})
	var sub SubmitResponse
	doJSON(t, srv, http.MethodPost, "/v2/check",
		marshalReq(t, CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1}}), &sub)
	if resp := doJSON(t, srv, http.MethodGet, "/v2/jobs/"+sub.ID+"/events?interval_ms=nope", "", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad interval: status %d, want 400", resp.StatusCode)
	}
	if resp := doJSON(t, srv, http.MethodGet, "/v2/jobs/job-404/events", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job events: status %d, want 404", resp.StatusCode)
	}
}

// TestV2SubmitRejectsTooManyInputs pins that a program with more inputs
// than an index set can name is a bad request under every policy spec,
// not a panic in the compile cache.
func TestV2SubmitRejectsTooManyInputs(t *testing.T) {
	_, srv := newTestServer(t, Config{Runners: 1})
	var prog strings.Builder
	prog.WriteString("program wide\ninputs")
	for i := 1; i <= 64; i++ {
		prog.WriteString(" x" + strconv.Itoa(i))
	}
	prog.WriteString("\n    y := x1\n    halt\n")
	for _, policy := range []string{"all", "{1}", ""} {
		var e errorResponse
		resp := doJSON(t, srv, http.MethodPost, "/v2/check",
			marshalReq(t, CheckRequest{Program: prog.String(), Policy: policy, Domain: []int64{0}}), &e)
		if resp.StatusCode != http.StatusBadRequest || e.Error.Code != CodeBadRequest {
			t.Errorf("policy %q: status %d, code %q, want 400 %s", policy, resp.StatusCode, e.Error.Code, CodeBadRequest)
		}
	}
}
