package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"spm/internal/service"
)

// The service client flow: stand up the policy-checking service, submit a
// check over HTTP, poll the job to completion, and read the verdict. The
// same flow works against a real `spm serve` node; the v2 surface adds
// batch submit (POST /v2/check with a JSON array), cancellation
// (DELETE /v2/jobs/{id}), and SSE progress (GET /v2/jobs/{id}/events).
func Example_clientFlow() {
	srv := httptest.NewServer(service.New(service.Config{Runners: 1, SweepWorkers: 1}).Handler())
	defer srv.Close()

	// Submit: the JSON fields mirror the `spm check` flags. offset/count
	// (not set here) would restrict the job to a shard of the domain's
	// index space, as the cluster coordinator does.
	body, _ := json.Marshal(service.CheckRequest{
		Program: "program demo\ninputs x1 x2\n    y := x2\n    halt\n",
		Policy:  "{2}",
		Raw:     true,
		Domain:  []int64{0, 1, 2},
	})
	resp, err := http.Post(srv.URL+"/v2/check", "application/json", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	var submitted struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		panic(err)
	}
	resp.Body.Close()
	fmt.Printf("submitted id=%s cached=%v\n", submitted.ID, submitted.Cached)

	// Poll until the lifecycle reaches a terminal state
	// (queued → running → done/failed/cancelled).
	var status service.JobStatus
	for {
		resp, err := http.Get(srv.URL + "/v2/jobs/" + submitted.ID)
		if err != nil {
			panic(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
			panic(err)
		}
		resp.Body.Close()
		if status.State.Terminal() {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	fmt.Printf("state=%s sound=%v checked=%d\n", status.State, status.Result.Sound, status.Result.Checked)
	// Output:
	// submitted id=job-1 cached=false
	// state=done sound=true checked=9
}
