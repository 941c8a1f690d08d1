package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"spm/internal/service"
	"spm/internal/store"
)

// withPprof mounts the net/http/pprof handlers under /debug/pprof/ in
// front of h. The serve and cluster-admin listeners use it behind their
// -pprof flags; the explicit registrations are needed because neither
// listener uses http.DefaultServeMux, which is all importing the package
// wires up on its own.
func withPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// defaultLoadgenProg is the program loadgen submits when no -program file
// is given: sound under allow(2) once instrumented, unsound raw.
const defaultLoadgenProg = `program loadgen
inputs x1 x2
    r := x1
    r := 0
    if x2 == 0 goto Zero else NonZero
Zero:    y := r
         halt
NonZero: y := x1
         halt
`

// cmdServe runs the policy-checking service: one run queue popped by a
// fixed set of runners, with a content-addressed compile cache, behind a
// JSON API. With -store it also persists verdicts and job checkpoints, so
// repeated submissions answer from disk and jobs interrupted by a crash
// resume on restart.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8135", "listen address")
	runners := fs.Int("runners", 0, "jobs run at once (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "run-queue bound in jobs, per tenant with tenant quotas on (0 = default)")
	sweepWorkers := fs.Int("sweep-workers", 0, "sweep workers per job (0 = lend idle CPUs: a job adds workers while the process has a CPU free)")
	cacheCap := fs.Int("cache", 0, "compile-cache entries (0 = default)")
	maxTuples := fs.Int64("max-tuples", 0, "reject domains larger than this (0 = default)")
	storeDir := fs.String("store", "", "verdict-store directory; enables persistence and crash resume")
	ckptEvery := fs.Int64("checkpoint-every", 0, "tuples between job checkpoints (0 = default; needs -store)")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant token refill, tuples/s (0 = default; needs -tenant-burst)")
	tenantBurst := fs.Int64("tenant-burst", 0, "per-tenant bucket capacity in tuples; > 0 enables tenant quotas")
	throttleD := fs.Duration("throttle", 0, "test hook: pause every sweep worker this long per chunk (makes this node a deterministic straggler)")
	pprofOn := fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve: unexpected arguments %v", fs.Args())
	}
	cfg := service.Config{
		Runners:         *runners,
		QueueCap:        *queue,
		SweepWorkers:    *sweepWorkers,
		CacheCap:        *cacheCap,
		MaxTuples:       *maxTuples,
		CheckpointEvery: *ckptEvery,
		Tenant: service.TenantConfig{
			Rate:  *tenantRate,
			Burst: *tenantBurst,
		},
		Throttle: *throttleD,
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			return fmt.Errorf("serve: opening store: %w", err)
		}
		defer st.Close()
		cfg.Store = st
	}
	svc := service.New(cfg)
	defer svc.Close()
	cfg = svc.Config()
	workers := fmt.Sprintf("%d sweep workers/job", cfg.SweepWorkers)
	if *sweepWorkers <= 0 {
		workers = "lending idle CPUs to running jobs"
	}
	fmt.Fprintf(os.Stderr, "spm serve: listening on %s (%d runners, queue %d, %s)\n",
		*addr, cfg.Runners, cfg.QueueCap, workers)
	if *storeDir != "" {
		st := svc.Stats().Store
		fmt.Fprintf(os.Stderr, "spm serve: store %s (%d verdicts, %d jobs resumed)\n",
			*storeDir, st.Verdicts, st.ResumedJobs)
	}
	handler := svc.Handler()
	if *pprofOn {
		handler = withPprof(handler)
		fmt.Fprintln(os.Stderr, "spm serve: pprof on /debug/pprof/")
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return srv.ListenAndServe()
}

// cmdLoadgen fires a closed-loop stream of check jobs at a running
// `spm serve` and reports latency percentiles; CI uses it as the service
// smoke test.
func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8135", "server base URL")
	jobs := fs.Int("n", 256, "total jobs")
	concurrency := fs.Int("c", 64, "concurrent closed-loop clients")
	maximalEvery := fs.Int("maximal-every", 4, "every k-th job also checks maximality (0 = never)")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job deadline; late jobs are cancelled server-side (0 = default 60s)")
	program := fs.String("program", "", "flowchart file to submit (default: built-in demo)")
	policy := fs.String("policy", "{2}", "allowed input indices, e.g. {1,3} or all")
	variant := fs.String("variant", "untimed", "untimed, timed, or highwater")
	domain := fs.String("domain", "0,1,2,3,4,5,6,7", "comma-separated values every input ranges over")
	timed := fs.Bool("time", false, "observe running time as well as the value")
	raw := fs.Bool("raw", false, "check the bare program instead of instrumenting")
	tenant := fs.String("tenant", "", "X-SPM-Tenant header value; 429 rejections are retried after Retry-After")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("loadgen: unexpected arguments %v", fs.Args())
	}
	src := defaultLoadgenProg
	if *program != "" {
		data, err := os.ReadFile(*program)
		if err != nil {
			return err
		}
		src = string(data)
	}
	values, err := parseDomain(*domain)
	if err != nil {
		return err
	}
	rep, err := service.Loadgen(service.LoadgenConfig{
		BaseURL:      *addr,
		Jobs:         *jobs,
		Concurrency:  *concurrency,
		MaximalEvery: *maximalEvery,
		JobTimeout:   *jobTimeout,
		Tenant:       *tenant,
		Request: service.CheckRequest{
			Program: src,
			Policy:  *policy,
			Variant: *variant,
			Domain:  values,
			Timed:   *timed,
			Raw:     *raw,
		},
	})
	if err != nil {
		return err
	}
	fmt.Println(rep)
	if rep.Failed > 0 {
		return fmt.Errorf("loadgen: %d of %d jobs failed", rep.Failed, rep.Jobs)
	}
	return nil
}
