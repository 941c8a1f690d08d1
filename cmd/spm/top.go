package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"spm/internal/obs"
	"spm/internal/service"
)

// cmdTop is a live dashboard over a running `spm serve` node: it polls
// GET /v2/metrics (parsed and validated by obs.ParseExposition, so a
// malformed exposition is an error, not a blank panel) and GET /v2/stats,
// and renders job lifecycle tallies, sweep throughput, cache and store
// counters, and the run queue's depth and latency quantiles. With -once
// it prints a single snapshot and exits — the CI metrics smoke runs it
// that way, making the exposition parser part of the test.
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8135", "server base URL")
	interval := fs.Duration("interval", 2*time.Second, "refresh cadence")
	once := fs.Bool("once", false, "print one snapshot and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("top: unexpected arguments %v", fs.Args())
	}
	base := strings.TrimRight(*addr, "/")
	client := &http.Client{Timeout: 10 * time.Second}

	var prev topSnapshot
	render := func(clear bool) error {
		snap, err := fetchTop(client, base)
		if err != nil {
			return err
		}
		out := renderTop(base, snap, prev)
		prev = snap
		if clear {
			fmt.Print("\x1b[H\x1b[2J")
		}
		fmt.Print(out)
		return nil
	}
	if *once {
		return render(false)
	}
	ctx := interruptContext()
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	for {
		if err := render(true); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			fmt.Println()
			return nil
		case <-ticker.C:
		}
	}
}

// topSnapshot is one poll of the two observability surfaces.
type topSnapshot struct {
	at    time.Time
	fams  map[string]*obs.Family
	stats service.Stats
}

func fetchTop(client *http.Client, base string) (topSnapshot, error) {
	snap := topSnapshot{at: time.Now()}
	resp, err := client.Get(base + "/v2/metrics")
	if err != nil {
		return snap, fmt.Errorf("top: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("top: GET /v2/metrics: %s", resp.Status)
	}
	if snap.fams, err = obs.ParseExposition(resp.Body); err != nil {
		return snap, fmt.Errorf("top: %w", err)
	}
	sresp, err := client.Get(base + "/v2/stats")
	if err != nil {
		return snap, fmt.Errorf("top: %w", err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("top: GET /v2/stats: %s", sresp.Status)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&snap.stats); err != nil {
		return snap, fmt.Errorf("top: decoding /v2/stats: %w", err)
	}
	return snap, nil
}

// renderTop formats one frame. prev (zero-valued on the first frame)
// supplies the previous tuple counter for the throughput estimate.
func renderTop(base string, snap, prev topSnapshot) string {
	var b strings.Builder
	val := func(name string) float64 {
		if f := snap.fams[name]; f != nil {
			if v, ok := f.Get(nil); ok {
				return v
			}
		}
		return 0
	}
	j := snap.stats.Jobs
	fmt.Fprintf(&b, "spm top — %s @ %s\n\n", base, snap.at.Format("15:04:05"))
	fmt.Fprintf(&b, "jobs    queued %d  running %d  done %d  failed %d  cancelled %d\n",
		j.Queued, j.Running, j.Done, j.Failed, j.Cancelled)
	fmt.Fprintf(&b, "cache   hits %.0f  misses %.0f  entries %.0f\n",
		val("spm_compile_cache_hits_total"),
		val("spm_compile_cache_misses_total"),
		val("spm_compile_cache_entries"))

	tuples := val("spm_sweep_tuples_total")
	rate := ""
	if !prev.at.IsZero() {
		if dt := snap.at.Sub(prev.at).Seconds(); dt > 0 {
			prevTuples := 0.0
			if f := prev.fams["spm_sweep_tuples_total"]; f != nil {
				prevTuples, _ = f.Get(nil)
			}
			rate = fmt.Sprintf("  (%.0f tuples/s)", (tuples-prevTuples)/dt)
		}
	}
	fmt.Fprintf(&b, "sweep   chunks %.0f  tuples %.0f%s\n",
		val("spm_sweep_chunks_total"), tuples, rate)
	fmt.Fprintf(&b, "stack   full %.0f  replays %.0f  constants %.0f\n",
		val("spm_stack_full_total"), val("spm_stack_replays_total"),
		val("spm_stack_constants_total"))
	fmt.Fprintf(&b, "batch   strides %.0f  lanes %.0f  diverged %.0f\n",
		val("spm_batch_strides_total"), val("spm_batch_lanes_total"),
		val("spm_batch_diverged_total"))
	if st := snap.stats.Store; st != nil {
		fmt.Fprintf(&b, "store   verdicts %d  pending %d  hits %d  lookups %d  resumed %d\n",
			st.Verdicts, st.Pending, st.VerdictHits, st.Lookups, st.ResumedJobs)
	}

	q := snap.stats.Queue
	fmt.Fprintf(&b, "\nqueue   depth %d  peak %d  runners %d  wait p50/p90/p99 %s  run p50/p90/p99 %s\n",
		q.Depth, q.Peak, q.Runners,
		quantiles(snap.fams["spm_job_queue_wait_seconds"]),
		quantiles(snap.fams["spm_job_run_seconds"]))

	if ts := snap.stats.Tenants; len(ts) > 0 {
		sort.Slice(ts, func(i, k int) bool { return ts[i].Tenant < ts[k].Tenant })
		fmt.Fprintf(&b, "\ntenant            queued  admitted  rejected  tuples\n")
		for _, t := range ts {
			fmt.Fprintf(&b, "%-17s %-7d %-9d %-9d %d\n",
				t.Tenant, t.Queued, t.Admitted, t.Rejected, t.TuplesAdmitted)
		}
	}
	return b.String()
}

// quantiles renders an unlabelled histogram's p50/p90/p99 estimates, or
// "-" while it has no observations.
func quantiles(f *obs.Family) string {
	if f == nil {
		return "-"
	}
	bkts := f.Buckets(nil)
	p50 := obs.Quantile(0.50, bkts)
	if math.IsNaN(p50) {
		return "-"
	}
	return fmt.Sprintf("%s/%s/%s",
		fmtSeconds(p50), fmtSeconds(obs.Quantile(0.90, bkts)), fmtSeconds(obs.Quantile(0.99, bkts)))
}

// fmtSeconds renders a float seconds estimate at duration-style
// precision.
func fmtSeconds(s float64) string {
	if math.IsNaN(s) {
		return "-"
	}
	d := time.Duration(s * float64(time.Second))
	switch {
	case d < time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d < time.Second:
		return d.Round(100 * time.Microsecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}

// cmdTrace fetches and renders one job's recorded timeline from
// GET /v2/jobs/{id}/trace: every event with its offset from submission,
// span durations where recorded, and the detail string.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8135", "server base URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("trace: need exactly one job ID")
	}
	id := fs.Arg(0)
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(strings.TrimRight(*addr, "/") + "/v2/jobs/" + id + "/trace")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("trace: GET /v2/jobs/%s/trace: %s: %s",
			id, resp.Status, strings.TrimSpace(string(body)))
	}
	var td obs.TraceData
	if err := json.NewDecoder(resp.Body).Decode(&td); err != nil {
		return fmt.Errorf("trace: decoding response: %w", err)
	}
	printTrace(os.Stdout, td)
	return nil
}

func printTrace(w io.Writer, td obs.TraceData) {
	fmt.Fprintf(w, "job %s  started %s", td.ID, td.Start.Format(time.RFC3339Nano))
	if td.Dropped > 0 {
		fmt.Fprintf(w, "  (%d events dropped mid-timeline)", td.Dropped)
	}
	fmt.Fprintln(w)
	for _, e := range td.Events {
		dur := ""
		if e.Dur > 0 {
			dur = " [" + e.Dur.Round(time.Microsecond).String() + "]"
		}
		fmt.Fprintf(w, "  %12s  %-10s%s  %s\n",
			"+"+e.At.Round(time.Microsecond).String(), e.Name, dur, e.Detail)
	}
}
