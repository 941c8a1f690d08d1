package main

import (
	"net"
	"strings"
	"testing"
	"time"
)

// TestServeAndLoadgenEndToEnd boots `spm serve` on a free port and drives
// it with `spm loadgen`, the same pairing the CI smoke step uses.
func TestServeAndLoadgenEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	serveErr := make(chan error, 1)
	go func() {
		serveErr <- run([]string{"serve", "-addr", addr, "-runners", "2", "-sweep-workers", "1"})
	}()

	// Wait for the listener to come up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err == nil {
			conn.Close()
			break
		}
		select {
		case err := <-serveErr:
			t.Fatalf("serve exited early: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server at %s never came up", addr)
		}
		time.Sleep(20 * time.Millisecond)
	}

	out, err := capture(t, func() error {
		return run([]string{"loadgen", "-addr", "http://" + addr, "-n", "16", "-c", "4"})
	})
	if err != nil {
		t.Fatalf("loadgen: %v\n%s", err, out)
	}
	if !strings.Contains(out, "16 jobs") || !strings.Contains(out, "failed 0") {
		t.Errorf("loadgen output = %q", out)
	}
	if !strings.Contains(out, "cache hits 15/16") {
		t.Errorf("loadgen output reports unexpected cache hits: %q", out)
	}
}
