// Command servesmoke is the end-to-end gate behind `make serve-smoke`:
// it builds the phantom and phantom-server binaries, boots the server
// on an ephemeral port, and drives the serving contract from the
// outside — the parts an httptest-based unit test cannot see (process
// startup, the -addr-file handshake, real sockets, SIGTERM drain).
//
// Checks, in order:
//
//  1. /healthz and /readyz answer 200; /v1/arches lists the catalog.
//  2. A single POST evaluates cold, and its "output" field is
//     byte-identical to the phantom CLI's stdout for the same flags.
//  3. Repeating the POST is served from the cache, byte-identical.
//  4. A batch POST returns per-item results in order.
//  5. Eight concurrent identical requests collapse to one simulation
//     (verified via the serve_simulations counter on /metrics).
//  6. SIGTERM drains: the process exits 0.
//
// It is a plain Go program (not a shell script) so the smoke test has
// no dependency on curl/jq and runs identically in CI and locally.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The smoke request is small enough to simulate in milliseconds but
// goes through the full pipeline. CLI flags and JSON body must describe
// the same evaluation for the parity check.
const (
	smokeJSON = `{"experiment":"table1","archs":["zen2"],"trials":2}`
	batchJSON = `[{"experiment":"table1","archs":["zen2"],"trials":2},` +
		`{"experiment":"sls","archs":["zen1"]}]`
	// The coalescing probe uses a key no earlier step has warmed.
	coalesceJSON = `{"experiment":"mds","archs":["zen2"],"runs":1,"bytes":64}`
)

var smokeArgs = []string{"table1", "-arch", "zen2", "-trials", "2"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("servesmoke: PASS")
}

// buildBinaries compiles the phantom CLI and phantom-server into dir
// and returns their paths.
func buildBinaries(dir string) (cliBin, serverBin string, err error) {
	cliBin = filepath.Join(dir, "phantom")
	serverBin = filepath.Join(dir, "phantom-server")
	for _, b := range []struct{ bin, pkg string }{
		{cliBin, "./cmd/phantom"},
		{serverBin, "./cmd/phantom-server"},
	} {
		build := exec.Command("go", "build", "-o", b.bin, b.pkg)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return "", "", fmt.Errorf("go build %s: %w", b.pkg, err)
		}
	}
	return cliBin, serverBin, nil
}

func run() error {
	dir, err := os.MkdirTemp("", "servesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cliBin, serverBin, err := buildBinaries(dir)
	if err != nil {
		return err
	}

	addrFile := filepath.Join(dir, "addr")
	server := exec.Command(serverBin, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-workers", "2")
	server.Stderr = os.Stderr
	if err := server.Start(); err != nil {
		return fmt.Errorf("start server: %w", err)
	}
	// The SIGTERM check below is the intended shutdown; the deferred kill
	// only fires when an earlier check fails.
	exited := false
	defer func() {
		if !exited {
			server.Process.Kill()
			server.Wait()
		}
	}()

	base, err := awaitAddr(addrFile, server)
	if err != nil {
		return err
	}
	fmt.Println("servesmoke: server up at", base)

	if err := checkEndpoints(base); err != nil {
		return err
	}
	if err := checkParityAndCache(base, cliBin); err != nil {
		return err
	}
	if err := checkBatch(base); err != nil {
		return err
	}
	if err := checkCoalescing(base); err != nil {
		return err
	}

	// SIGTERM drain: the server must flip readiness, finish, and exit 0.
	if err := server.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- server.Wait() }()
	select {
	case err := <-done:
		exited = true
		if err != nil {
			return fmt.Errorf("server exited non-zero after SIGTERM: %w", err)
		}
	case <-time.After(30 * time.Second):
		return fmt.Errorf("server did not exit within 30s of SIGTERM")
	}
	fmt.Println("servesmoke: SIGTERM drain clean")
	return nil
}

// awaitAddr polls the -addr-file handshake, bailing out early if the
// server process dies during startup.
func awaitAddr(addrFile string, server *exec.Cmd) (string, error) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if server.ProcessState != nil {
			return "", fmt.Errorf("server exited during startup")
		}
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			return "http://" + strings.TrimSpace(string(data)), nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return "", fmt.Errorf("server never wrote %s", addrFile)
}

func checkEndpoints(base string) error {
	for _, path := range []string{"/healthz", "/readyz"} {
		status, _, err := get(base + path)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("GET %s = %d, want 200", path, status)
		}
	}
	status, body, err := get(base + "/v1/arches")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET /v1/arches = %d: %s", status, body)
	}
	var arches struct {
		Experiments []string `json:"experiments"`
		Arches      []string `json:"arches"`
	}
	if err := json.Unmarshal(body, &arches); err != nil {
		return fmt.Errorf("/v1/arches: %w", err)
	}
	if len(arches.Experiments) == 0 || len(arches.Arches) != 8 {
		return fmt.Errorf("/v1/arches catalog looks wrong: %d experiments, %d arches",
			len(arches.Experiments), len(arches.Arches))
	}
	fmt.Println("servesmoke: health/ready/arches ok")
	return nil
}

type result struct {
	ID        string `json:"id"`
	Output    string `json:"output"`
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced"`
	Error     string `json:"error"`
}

func checkParityAndCache(base, cliBin string) error {
	status, body, err := post(base, smokeJSON)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("single POST = %d: %s", status, body)
	}
	var cold result
	if err := json.Unmarshal(body, &cold); err != nil {
		return err
	}
	if cold.Cached {
		return fmt.Errorf("first request reported cached")
	}

	var cliOut bytes.Buffer
	cli := exec.Command(cliBin, smokeArgs...)
	cli.Stdout = &cliOut
	cli.Stderr = os.Stderr
	if err := cli.Run(); err != nil {
		return fmt.Errorf("phantom %v: %w", smokeArgs, err)
	}
	if cold.Output != cliOut.String() {
		return fmt.Errorf("served output differs from CLI stdout\nserved: %q\ncli:    %q",
			cold.Output, cliOut.String())
	}
	fmt.Println("servesmoke: served output byte-identical to CLI")

	status, body, err = post(base, smokeJSON)
	if err != nil {
		return err
	}
	var warm result
	if err := json.Unmarshal(body, &warm); err != nil {
		return err
	}
	if status != http.StatusOK || !warm.Cached {
		return fmt.Errorf("repeat POST = %d cached=%v, want 200 from cache", status, warm.Cached)
	}
	if warm.Output != cold.Output || warm.ID != cold.ID {
		return fmt.Errorf("cache hit returned a different result")
	}
	// The content address is stable, so the result endpoint must agree.
	status, body, err = get(base + "/v1/results/" + cold.ID)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET /v1/results/%s = %d: %s", cold.ID, status, body)
	}
	fmt.Println("servesmoke: cache hit byte-identical, result re-fetch ok")
	return nil
}

func checkBatch(base string) error {
	status, body, err := post(base, batchJSON)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("batch POST = %d: %s", status, body)
	}
	var batch struct {
		Results []result `json:"results"`
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		return fmt.Errorf("batch response: %w", err)
	}
	items := batch.Results
	if len(items) != 2 {
		return fmt.Errorf("batch returned %d items, want 2", len(items))
	}
	for i, it := range items {
		if it.Error != "" || it.Output == "" {
			return fmt.Errorf("batch item %d: %+v", i, it)
		}
	}
	if !items[0].Cached {
		return fmt.Errorf("batch item 0 repeats an earlier request but was not cached")
	}
	fmt.Println("servesmoke: batch ok")
	return nil
}

// checkCoalescing fires 8 concurrent identical requests at a cold key
// and verifies via the metrics counter that exactly one simulation ran.
func checkCoalescing(base string) error {
	before, err := simulations(base)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	outs := make([]result, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body, err := post(base, coalesceJSON)
			if err != nil {
				errs[i] = err
				return
			}
			if status != http.StatusOK {
				errs[i] = fmt.Errorf("concurrent POST = %d: %s", status, body)
				return
			}
			errs[i] = json.Unmarshal(body, &outs[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i := 1; i < len(outs); i++ {
		if outs[i].ID != outs[0].ID || outs[i].Output != outs[0].Output {
			return fmt.Errorf("concurrent identical requests returned different results")
		}
	}
	after, err := simulations(base)
	if err != nil {
		return err
	}
	if got := after - before; got != 1 {
		return fmt.Errorf("8 concurrent identical requests ran %d simulations, want 1", got)
	}
	fmt.Println("servesmoke: 8 concurrent requests coalesced to 1 simulation")
	return nil
}

func simulations(base string) (uint64, error) {
	return counterValue(base, "serve_simulations")
}

// counterValue reads one counter from a node's /metrics snapshot; a
// counter the server never touched reads as 0.
func counterValue(base, name string) (uint64, error) {
	status, body, err := get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics = %d", status)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return 0, fmt.Errorf("/metrics: %w", err)
	}
	return snap.Counters[name], nil
}

func get(url string) (int, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func post(base, reqBody string) (int, []byte, error) {
	resp, err := http.Post(base+"/v1/experiments", "application/json", strings.NewReader(reqBody))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}
