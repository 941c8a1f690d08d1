package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"spm/internal/cluster"
	"spm/internal/service"
)

// node is one in-process `spm serve`: a service with the default
// configuration behind its HTTP handler on a loopback listener.
type node struct {
	svc    *service.Service
	srv    *http.Server
	url    string
	served chan error
	traced int // jobs whose trace shardQueueWaits has read
}

// startNode starts a node on a fresh loopback port.
func startNode() (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{served: make(chan error, 1), svc: service.New(service.Config{})}
	n.url = "http://" + ln.Addr().String()
	n.srv = &http.Server{Handler: n.svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { n.served <- n.srv.Serve(ln) }()
	return n, nil
}

// stop closes the listener and its connections, waits for the serve loop
// and drains the service.
func (n *node) stop() error {
	err := n.srv.Close()
	if serr := <-n.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	n.svc.Close()
	return err
}

// clusterNodes is the size of a cluster fleet; the coordinator's default
// configuration splits each check into cluster.DefaultShardsPerNode shards
// per node.
const clusterNodes = 2

// fleet is what one round drives: a single node reached over HTTP, or two
// nodes behind a cluster coordinator with `spm cluster`'s default
// (fixed-fleet) configuration.
type fleet struct {
	nodes []*node
	hc    *http.Client
	coord *cluster.Coordinator
}

func startFleet(wl *Workload) (*fleet, error) {
	f := &fleet{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 16,
		DisableCompression:  true,
	}}}
	count := 1
	if wl.Cluster {
		count = clusterNodes
	}
	for i := 0; i < count; i++ {
		n, err := startNode()
		if err != nil {
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
	}
	if wl.Cluster {
		var urls []string
		for _, n := range f.nodes {
			urls = append(urls, n.url)
		}
		coord, err := cluster.New(cluster.Config{Nodes: urls})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.coord = coord
	}
	return f, nil
}

func (f *fleet) stop() error {
	var err error
	for _, n := range f.nodes {
		if nerr := n.stop(); err == nil {
			err = nerr
		}
	}
	f.hc.CloseIdleConnections()
	return err
}

// outcome is what the client learned about one job.
type outcome struct {
	id         string
	busy       int // 503 responses before the job was admitted
	status     *service.JobStatus
	report     *cluster.Report
	queueWaits []time.Duration // dispatch spans, read on traced rounds
}

// do runs one job to its verdict: POST /v2/check, then the job's event
// stream until its done event — or, on a cluster fleet, Coordinator.Check.
// tr, when non-nil, records a span around each call.
func (f *fleet) do(ctx context.Context, req service.CheckRequest, tr *tracer, parent int) (*outcome, error) {
	if f.coord != nil {
		sp := tr.start("cluster.check", parent)
		rep, err := f.coord.Check(ctx, req)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		return &outcome{report: rep}, nil
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	base := f.nodes[0].url
	out := &outcome{}
	for {
		sp := tr.start("service.http_submit", parent)
		resp, err := f.submit(ctx, base, body)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if resp == nil { // 503: every queue full
			out.busy++
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Millisecond):
			}
			continue
		}
		out.id = resp.ID
		break
	}
	sp := tr.start("service.await_done", parent)
	out.status, err = f.await(ctx, base, out.id)
	tr.end(sp)
	return out, err
}

// submit posts one spec; a nil response means the fleet was busy.
func (f *fleet) submit(ctx context.Context, base string, body []byte) (*service.SubmitResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v2/check", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := f.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		var sr service.SubmitResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			return nil, fmt.Errorf("decoding submit response: %w", err)
		}
		return &sr, nil
	case http.StatusServiceUnavailable:
		return nil, nil
	}
	return nil, fmt.Errorf("POST /v2/check: %s: %s", resp.Status, strings.TrimSpace(string(data)))
}

// await follows GET /v2/jobs/{id}/events until the done event and returns
// the terminal status it carries. The progress interval is set to the
// maximum, so the stream carries the opening progress event and the done
// event only.
func (f *fleet) await(ctx context.Context, base, id string) (*service.JobStatus, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v2/jobs/"+id+"/events?interval_ms=60000", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body) // best effort: the status already says it failed
		return nil, fmt.Errorf("GET events of %s: %s: %s", id, resp.Status, strings.TrimSpace(string(data)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			var st service.JobStatus
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return nil, fmt.Errorf("decoding done event of %s: %w", id, err)
			}
			// Drain the closed stream so the connection is reused.
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return nil, err
			}
			return &st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("events of %s ended without a done event", id)
}
