package main

import (
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"spm/internal/service"
)

func TestCmdClusterEndToEnd(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		svc := service.New(service.Config{Runners: 1})
		srv := httptest.NewServer(svc.Handler())
		t.Cleanup(func() {
			srv.Close()
			svc.Close()
		})
		urls = append(urls, srv.URL)
	}
	path := writeProg(t, testProg)

	// The merged verdict line must byte-match what `spm check` prints for
	// the same program, policy, and domain.
	checkOut, err := capture(t, func() error {
		return cmdCheck([]string{"-policy", "{2}", "-domain", "0,1,2,3,4,5,6,7", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	clusterOut, err := capture(t, func() error {
		return cmdCluster([]string{"-nodes", strings.Join(urls, ","), "-shards", "4",
			"-policy", "{2}", "-domain", "0,1,2,3,4,5,6,7", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	clusterLines := strings.Split(strings.TrimSpace(clusterOut), "\n")
	if clusterLines[0] != strings.TrimSpace(checkOut) {
		t.Fatalf("cluster verdict line %q != spm check verdict %q", clusterLines[0], strings.TrimSpace(checkOut))
	}
	last := clusterLines[len(clusterLines)-1]
	if !strings.Contains(last, "cluster: 4/4 shards on 2 nodes") {
		t.Fatalf("missing cluster accounting line: %q", last)
	}
}

func TestCmdClusterErrors(t *testing.T) {
	path := writeProg(t, testProg)
	for name, args := range map[string][]string{
		"no nodes":     {path},
		"no file":      {"-nodes", "127.0.0.1:1"},
		"bad domain":   {"-nodes", "127.0.0.1:1", "-domain", "zero", path},
		"unreachable":  {"-nodes", "http://127.0.0.1:1", "-retries", "1", path},
		"bad program":  {"-nodes", "127.0.0.1:1", writeProg(t, "not a program")},
		"extra args":   {"-nodes", "127.0.0.1:1", path, "extra"},
		"bad policy 2": {"-nodes", "127.0.0.1:1", "-policy", "{9}", path},
	} {
		if err := cmdCluster(args); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

func TestParseNodes(t *testing.T) {
	got := parseNodes(" 127.0.0.1:8135, http://h:1/ ,, https://x ")
	want := []string{"http://127.0.0.1:8135", "http://h:1", "https://x"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseNodes = %v, want %v", got, want)
	}
}
