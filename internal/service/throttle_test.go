package service

import (
	"reflect"
	"testing"
	"time"
)

// TestThrottlePreservesEnumeration pins the straggler hook's contract:
// Config.Throttle slows a job's sweep down but never changes its verdict
// — the throttled job is the unthrottled one, late — at one sweep worker
// and at several.
func TestThrottlePreservesEnumeration(t *testing.T) {
	req := CheckRequest{Program: testProg, Policy: "{2}", Raw: true, Maximal: true, Domain: []int64{0, 1, 2, 3, 4, 5}}
	for _, workers := range []int{1, 4} {
		var results []Result
		for _, throttle := range []time.Duration{0, 100 * time.Microsecond} {
			s := newTestService(t, Config{Runners: 1, SweepWorkers: workers, Throttle: throttle})
			j, err := s.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			st := waitJob(t, j)
			if st.State != StateDone || st.Progress.Done != j.Total {
				t.Fatalf("workers=%d throttle=%v: %+v", workers, throttle, st)
			}
			results = append(results, stripTiming(st.Result))
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Errorf("workers=%d: throttled verdict differs:\n  %+v\nvs\n  %+v", workers, results[1], results[0])
		}
	}
}

// TestThrottleObservesCancellation requires a throttled job to stop
// mid-nap when it is cancelled — the elastic coordinator's steal path
// cancels straggler jobs and must not wait out their throttle naps.
func TestThrottleObservesCancellation(t *testing.T) {
	// Closed only on success: Close waits for the running job, which a
	// failure leaves napping.
	s := New(Config{Runners: 1, SweepWorkers: 1, Throttle: time.Hour})
	j, err := s.Submit(CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1, 2, 3, 4, 5, 6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for j.Progress() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first chunk never completed")
		}
		time.Sleep(time.Millisecond)
	}
	// The worker now naps for an hour after its first chunk.
	if _, err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation waited out the throttle")
	}
	st := j.Status()
	if st.State != StateCancelled || st.Progress.Done >= j.Total {
		t.Fatalf("cancelled throttled job: %+v", st)
	}
	s.Close()
}

// TestThrottleFinalChunkFree pins the completion rule: the chunk that
// completes a job takes no nap, so a throttled job whose sweep is one
// chunk is done at once, not an hour later.
func TestThrottleFinalChunkFree(t *testing.T) {
	// Closed only on success, as above.
	s := New(Config{Runners: 1, SweepWorkers: 1, Throttle: time.Hour})
	j, err := s.Submit(CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("the final chunk napped")
	}
	if st := j.Status(); st.State != StateDone || st.Progress.Done != 1 {
		t.Fatalf("one-tuple throttled job: %+v", st)
	}
	s.Close()
}
