package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"spm/internal/cluster"
	"spm/internal/service"
)

// cmdCluster distributes one check across a fleet of running `spm serve`
// nodes: the coordinator shards the domain's index space, dispatches the
// shards over the v2 API with retry/reassignment on node failure, and
// prints the merged verdict in exactly the format `spm check` uses —
// followed by one line of cluster accounting.
//
// The nodes form the coordinator's membership registry: health probes
// retire dead nodes, and membership may change mid-check via -admin's
// POST /join and /leave or a SIGHUP reread of -nodes-file. With
// -steal-threshold stragglers have the back half of their remaining
// range stolen onto idle nodes, and with -speculate the last in-flight
// shards are duplicated so the fastest copy wins. The merged verdict is
// byte-identical either way.
func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	nodes := fs.String("nodes", "", "comma-separated worker base URLs, e.g. 127.0.0.1:8135,127.0.0.1:8136")
	nodesFile := fs.String("nodes-file", "", "file with one worker base URL per line; SIGHUP rereads it mid-check (joins additions, retires removals)")
	shards := fs.Int("shards", 0, "contiguous index-space shards (0 = 4 per node)")
	retries := fs.Int("retries", 0, "per-shard re-dispatch budget after node failures (0 = default)")
	stealThreshold := fs.Float64("steal-threshold", 0, "steal a straggler's remaining back half when its projected finish exceeds this multiple of the median (0 = off; try 2)")
	speculate := fs.Bool("speculate", false, "duplicate the last in-flight shards on idle nodes; first result wins")
	stealInterval := fs.Duration("steal-interval", 0, "straggler-supervisor cadence (0 = default)")
	admin := fs.String("admin", "", "listen address for the membership admin API (GET /nodes, GET /metrics, POST /join, POST /leave)")
	pprofOn := fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the admin listener (needs -admin)")
	policy := fs.String("policy", "{}", "allowed input indices, e.g. {1,3} or all")
	variant := fs.String("variant", "untimed", "untimed, timed, or highwater")
	domain := fs.String("domain", "0,1,2", "comma-separated values every input ranges over")
	timed := fs.Bool("time", false, "observe running time as well as the value")
	raw := fs.Bool("raw", false, "check the bare program instead of instrumenting")
	maximal := fs.Bool("maximal", false, "also check maximality against the bare program")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("cluster: need exactly one program file")
	}
	if *nodes == "" && *nodesFile == "" {
		return fmt.Errorf("cluster: -nodes or -nodes-file is required")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	values, err := parseDomain(*domain)
	if err != nil {
		return err
	}
	nodeList := parseNodes(*nodes)
	if *nodesFile != "" {
		fromFile, err := readNodesFile(*nodesFile)
		if err != nil {
			return err
		}
		nodeList = append(nodeList, fromFile...)
	}
	registry := cluster.NewRegistry(nodeList)
	coord, err := cluster.New(cluster.Config{
		Registry:       registry,
		Shards:         *shards,
		Retries:        *retries,
		StealThreshold: *stealThreshold,
		Speculate:      *speculate,
		StealInterval:  *stealInterval,
	})
	if err != nil {
		return err
	}
	if *pprofOn && *admin == "" {
		return fmt.Errorf("cluster: -pprof needs -admin")
	}
	if *admin != "" {
		handler := coord.AdminHandler()
		if *pprofOn {
			handler = withPprof(handler)
		}
		srv := &http.Server{
			Addr:              *admin,
			Handler:           handler,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "spm cluster: admin listener: %v\n", err)
			}
		}()
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "spm cluster: admin API on %s\n", *admin)
	}
	if *nodesFile != "" {
		stopHUP := watchNodesFile(*nodesFile, registry)
		defer stopHUP()
	}
	rep, err := coord.Check(interruptContext(), service.CheckRequest{
		Program: string(src),
		Policy:  *policy,
		Variant: *variant,
		Domain:  values,
		Timed:   *timed,
		Raw:     *raw,
		Maximal: *maximal,
	})
	if err != nil {
		return err
	}
	fmt.Println(rep)
	return nil
}

// parseNodes splits the -nodes list, defaulting bare host:port entries to
// http.
func parseNodes(spec string) []string {
	var out []string
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.Contains(part, "://") {
			part = "http://" + part
		}
		out = append(out, strings.TrimRight(part, "/"))
	}
	return out
}

// readNodesFile parses a nodes file: one URL per line, blank lines and
// #-comments ignored, bare host:port defaulting to http.
func readNodesFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: nodes file: %w", err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, parseNodes(line)...)
	}
	return out, nil
}

// watchNodesFile rereads the nodes file on SIGHUP and reconciles the
// registry against it: new URLs join the running check, missing ones are
// retired. Returns a stop function for shutdown.
func watchNodesFile(path string, reg *cluster.Registry) func() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGHUP)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			case <-ch:
				urls, err := readNodesFile(path)
				if err != nil {
					fmt.Fprintf(os.Stderr, "spm cluster: %v\n", err)
					continue
				}
				joined, left := reg.SyncNodes(urls)
				fmt.Fprintf(os.Stderr, "spm cluster: nodes file reloaded (%d joined, %d left)\n", joined, left)
			}
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}
