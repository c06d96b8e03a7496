package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// freePorts grabs n distinct ephemeral ports (listen + close; a small
// race window is acceptable in tests).
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = ln.Addr().(*net.TCPAddr).Port
		ln.Close()
	}
	return ports
}

func writeDeployment(t *testing.T, n, tByz int, ports []int, edges [][2]uint32) string {
	t.Helper()
	dep := map[string]any{
		"n": n, "t": tByz, "key_seed": 7, "scheme": "ed25519", "round_ms": 120,
		"edges": edges,
	}
	var nodes []map[string]any
	for i := 0; i < n; i++ {
		nodes = append(nodes, map[string]any{
			"id": i, "addr": fmt.Sprintf("127.0.0.1:%d", ports[i]),
		})
	}
	dep["nodes"] = nodes
	raw, err := json.Marshal(dep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestThreeNodeClusterOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP run skipped in -short mode")
	}
	ports := freePorts(t, 3)
	cfg := writeDeployment(t, 3, 1, ports, [][2]uint32{{0, 1}, {1, 2}, {2, 0}})
	// The -start-at contract is RFC3339 (second precision): aim two
	// seconds out so all three processes finish connecting in time.
	start := time.Now().Add(2 * time.Second).Truncate(time.Second).Format(time.RFC3339)

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = run([]string{
				"-config", cfg,
				"-id", fmt.Sprintf("%d", i),
				"-start-at", start,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("node %d: %v", i, err)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing -config accepted")
	}
	if err := run([]string{"-config", "/nonexistent.json"}); err == nil {
		t.Error("unreadable config accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", bad}); err == nil {
		t.Error("malformed config accepted")
	}
	// Bad -start-at format.
	ports := freePorts(t, 2)
	cfg := writeDeployment(t, 2, 0, ports, [][2]uint32{{0, 1}})
	if err := run([]string{"-config", cfg, "-id", "0", "-start-at", "yesterday"}); err == nil {
		t.Error("bad start-at accepted")
	}
	// A hostile deployment file is an error, not a panic.
	ports = freePorts(t, 3)
	for _, tc := range []struct {
		name  string
		n     int
		id    string
		edges [][2]uint32
	}{
		{"no nodes", 0, "0", nil},
		{"id out of range", 3, "9", [][2]uint32{{0, 1}, {1, 2}}},
		{"edge endpoint out of range", 3, "0", [][2]uint32{{0, 1}, {2, 5}}},
		{"self-loop", 3, "0", [][2]uint32{{0, 1}, {2, 2}}},
	} {
		cfg := writeDeployment(t, tc.n, 1, ports[:tc.n], tc.edges)
		if err := run([]string{"-config", cfg, "-id", tc.id, "-start-in", "0s"}); err == nil {
			t.Errorf("%s: deployment accepted", tc.name)
		}
	}
}
