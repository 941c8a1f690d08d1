package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// waitDone polls a job to a terminal state.
func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s did not finish", j.ID)
	}
}

func TestSubmitShardedJob(t *testing.T) {
	svc := New(Config{Runners: 1})
	defer svc.Close()

	// 8 values × arity 2 = 64 tuples; the shard covers [16, 48).
	req := CheckRequest{
		Program: testProg,
		Policy:  "{2}",
		Domain:  []int64{0, 1, 2, 3, 4, 5, 6, 7},
		Offset:  16,
		Count:   32,
	}
	j, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if j.Total != 32 {
		t.Fatalf("sharded job total = %d, want 32 (the shard span)", j.Total)
	}
	waitDone(t, j)
	st := j.Status()
	if st.State != StateDone || st.Result == nil {
		t.Fatalf("job did not finish cleanly: %+v", st)
	}
	res := st.Result
	if res.Checked != 32 {
		t.Fatalf("sharded result checked = %d, want 32", res.Checked)
	}
	if res.Offset != 16 || res.Count != 32 {
		t.Fatalf("shard echo wrong: offset=%d count=%d", res.Offset, res.Count)
	}
	if len(res.Views) == 0 {
		t.Fatalf("sharded result carries no views table")
	}
	if res.Mechanism == "" || res.Policy == "" || res.Observation == "" {
		t.Fatalf("sharded result lacks artifact names: %+v", res)
	}
}

func TestSubmitShardedMaximalJob(t *testing.T) {
	svc := New(Config{Runners: 1})
	defer svc.Close()
	req := CheckRequest{
		Program: testProg,
		Policy:  "{2}",
		Domain:  []int64{0, 1, 2, 3},
		Maximal: true,
		Offset:  0,
		Count:   8,
	}
	j, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// Sharded maximality is a single evidence pass over the 8 tuples,
	// deciding soundness and maximality together.
	if j.Total != 8 {
		t.Fatalf("sharded maximal job total = %d, want 8", j.Total)
	}
	waitDone(t, j)
	res := j.Status().Result
	if res == nil || res.Maximal == nil {
		t.Fatalf("no maximality verdict: %+v", j.Status())
	}
	if len(res.Classes) == 0 {
		t.Fatalf("sharded maximal result carries no classes table")
	}
	if res.Program == "" {
		t.Fatalf("sharded maximal result lacks the reference program name")
	}
}

func TestSubmitRejectsNegativeShard(t *testing.T) {
	svc := New(Config{Runners: 1})
	defer svc.Close()
	for _, req := range []CheckRequest{
		{Program: testProg, Offset: -1},
		{Program: testProg, Count: -1},
	} {
		if _, err := svc.Submit(req); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("offset=%d count=%d: err = %v, want ErrBadRequest", req.Offset, req.Count, err)
		}
	}
}

func TestShardAdmissionBoundsSpanNotProduct(t *testing.T) {
	// With MaxTuples 100, a 32^2 = 1024-tuple whole-domain submission is
	// rejected while a 64-tuple shard of the same domain is admitted —
	// sharding is how a fleet takes on domains one node refuses.
	svc := New(Config{Runners: 1, MaxTuples: 100})
	defer svc.Close()
	dom := make([]int64, 32)
	for i := range dom {
		dom[i] = int64(i)
	}
	whole := CheckRequest{Program: testProg, Policy: "{2}", Domain: dom}
	if _, err := svc.Submit(whole); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("whole domain: err = %v, want ErrBadRequest", err)
	}
	shard := whole
	shard.Offset = 512
	shard.Count = 64
	j, err := svc.Submit(shard)
	if err != nil {
		t.Fatalf("shard within bounds rejected: %v", err)
	}
	waitDone(t, j)
	if res := j.Status().Result; res == nil || res.Checked != 64 {
		t.Fatalf("shard result: %+v", j.Status())
	}
}

func TestV2ShardRoundTrip(t *testing.T) {
	svc := New(Config{Runners: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body, _ := json.Marshal(CheckRequest{
		Program: testProg,
		Policy:  "{2}",
		Domain:  []int64{0, 1, 2, 3},
		Offset:  4,
		Count:   8,
	})
	resp, err := http.Post(srv.URL+"/v2/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if sub.Total != 8 {
		t.Fatalf("total = %d, want the 8-tuple shard span", sub.Total)
	}

	deadline := time.Now().Add(10 * time.Second)
	var st JobStatus
	for {
		r2, err := http.Get(srv.URL + "/v2/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(r2.Body).Decode(&st)
		r2.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != StateDone || st.Result == nil {
		t.Fatalf("terminal status: %+v", st)
	}
	if st.Result.Offset != 4 || st.Result.Count != 8 || st.Result.Checked != 8 {
		t.Fatalf("wire result shard fields wrong: %+v", st.Result)
	}
	if len(st.Result.Views) == 0 {
		t.Fatalf("wire result lost the views table")
	}
}
