package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestServerLifecycle boots the real binary entry point on an
// ephemeral port, exercises the API, then cancels the context (the
// SIGTERM path) and expects a clean drain: exit code 0 and a
// summary-terminated -metrics run log.
func TestServerLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real server")
	}
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	logPath := filepath.Join(dir, "run.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	exited := make(chan int, 1)
	go func() {
		exited <- realMain(ctx, []string{
			"-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-workers", "2", "-metrics", logPath,
		}, io.Discard)
	}()

	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			addr = strings.TrimSpace(string(data))
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("server never wrote its address file")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/v1/experiments", "application/json",
		strings.NewReader(`{"experiment":"chain","archs":["zen2"]}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST = %d: %s", resp.StatusCode, body)
	}
	var res struct {
		ID     string `json:"id"`
		Output string `json:"output"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.ID == "" || !strings.Contains(res.Output, "Full exploit chain") {
		t.Errorf("served result = %+v", res)
	}

	// /metrics is part of the API: the always-on hub must be counting.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "serve_requests") {
		t.Errorf("metrics snapshot missing serve_requests: %s", metrics)
	}

	cancel()
	select {
	case code := <-exited:
		if code != 0 {
			t.Errorf("drained server exited %d, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not exit after context cancellation")
	}
	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatalf("run log: %v", err)
	}
	if !strings.Contains(string(log), `"type":"summary"`) {
		t.Error("server shutdown did not flush a summary record to the run log")
	}
}

// TestUsageErrors pins the exit-code convention shared with the other
// binaries.
func TestUsageErrors(t *testing.T) {
	ctx := context.Background()
	if code := realMain(ctx, []string{"-definitely-not-a-flag"}, io.Discard); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if code := realMain(ctx, []string{"stray-arg"}, io.Discard); code != 2 {
		t.Errorf("stray argument: exit %d, want 2", code)
	}
	if code := realMain(ctx, []string{"-addr", "256.0.0.1:99999"}, io.Discard); code != 1 {
		t.Errorf("unbindable address: exit %d, want 1", code)
	}
	if code := realMain(ctx, []string{"-h"}, io.Discard); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
	if code := realMain(ctx, []string{"-store-budget", "-1"}, io.Discard); code != 2 {
		t.Errorf("negative -store-budget: exit %d, want 2", code)
	}
}

// TestStoreDirPersistsAcrossRestart boots the server twice on the same
// -store-dir: the second boot must answer a request the first computed
// straight from the durable store, without re-simulating.
func TestStoreDirPersistsAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real server twice")
	}
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "results")
	const reqBody = `{"experiment":"chain","archs":["zen2"]}`

	run := func(gen int) (output string, metrics string) {
		t.Helper()
		addrFile := filepath.Join(dir, fmt.Sprintf("addr-%d", gen))
		ctx, cancel := context.WithCancel(context.Background())
		exited := make(chan int, 1)
		go func() {
			exited <- realMain(ctx, []string{
				"-addr", "127.0.0.1:0", "-addr-file", addrFile,
				"-workers", "2", "-store-dir", storeDir,
			}, io.Discard)
		}()
		var addr string
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
				addr = strings.TrimSpace(string(data))
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if addr == "" {
			t.Fatal("server never wrote its address file")
		}
		base := "http://" + addr
		resp, err := http.Post(base+"/v1/experiments", "application/json", strings.NewReader(reqBody))
		if err != nil {
			t.Fatalf("gen %d POST: %v", gen, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("gen %d POST = %d: %s", gen, resp.StatusCode, body)
		}
		var res struct {
			Output string `json:"output"`
		}
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		mresp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatalf("gen %d metrics: %v", gen, err)
		}
		mbody, _ := io.ReadAll(mresp.Body)
		mresp.Body.Close()
		cancel()
		select {
		case code := <-exited:
			if code != 0 {
				t.Fatalf("gen %d exited %d, want 0", gen, code)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("gen %d did not exit", gen)
		}
		return res.Output, string(mbody)
	}

	out1, _ := run(1)
	out2, metrics2 := run(2)
	if out1 != out2 {
		t.Error("restarted server's answer diverged from the original")
	}
	if !strings.Contains(metrics2, "serve_store_hits") {
		t.Errorf("second boot metrics missing serve_store_hits:\n%s", metrics2)
	}
	if strings.Contains(metrics2, "serve_simulations") {
		t.Errorf("second boot simulated despite a warm store:\n%s", metrics2)
	}
}
