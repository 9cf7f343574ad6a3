package service

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"phantom/internal/store"
)

// TestStoreReadBeforeCompute is the restart-persistence contract at
// the service layer: results written through to the store survive a
// full server teardown, and a fresh server with a cold cache answers
// from the store without a simulation, byte-identically.
func TestStoreReadBeforeCompute(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stub1 := &stubExec{}
	s1 := newTestServer(Config{Workers: 2, Store: st1}, stub1)
	res1, aerr := s1.do(context.Background(), Request{Experiment: "kaslr", Seed: 42})
	if aerr != nil {
		t.Fatal(aerr)
	}
	if got := s1.Stats().StoreFills.Load(); got != 1 {
		t.Errorf("StoreFills = %d, want 1", got)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": new store handle on the same dir, new server, cold
	// cache, a stub that fails the test if it ever runs.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	stub2 := &stubExec{}
	s2 := newTestServer(Config{Workers: 2, Store: st2}, stub2)
	res2, aerr := s2.do(context.Background(), Request{Experiment: "kaslr", Seed: 42})
	if aerr != nil {
		t.Fatal(aerr)
	}
	if stub2.started.Load() != 0 {
		t.Errorf("restarted server re-simulated a stored result")
	}
	if got := s2.Stats().StoreHits.Load(); got != 1 {
		t.Errorf("StoreHits = %d, want 1", got)
	}
	if !res2.Cached {
		t.Error("store-served result not marked cached")
	}
	if res2.Output != res1.Output || res2.ID != res1.ID {
		t.Errorf("store round-trip diverged: %q vs %q", res2.Output, res1.Output)
	}
	if s2.Stats().Simulations.Load() != 0 {
		t.Error("restarted server counted a simulation")
	}

	// The store hit promoted the result into the memory cache: a repeat
	// is a cache hit, not a second disk read.
	if _, aerr := s2.do(context.Background(), Request{Experiment: "kaslr", Seed: 42}); aerr != nil {
		t.Fatal(aerr)
	}
	if got := s2.Stats().CacheHits.Load(); got != 1 {
		t.Errorf("repeat after store hit: CacheHits = %d, want 1", got)
	}
	if got := s2.Stats().StoreHits.Load(); got != 1 {
		t.Errorf("repeat read the store again: StoreHits = %d", got)
	}
}

// TestStoreCorruptValueIsAMiss: a stored record that passes its CRC
// but does not decode as a Result (schema drift) falls back to
// recomputation instead of failing the request.
func TestStoreCorruptValueIsAMiss(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	norm, err := Request{Experiment: "kaslr", Seed: 7}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(norm.Key(), []byte("not json")); err != nil {
		t.Fatal(err)
	}
	stub := &stubExec{}
	s := newTestServer(Config{Workers: 2, Store: st}, stub)
	res, aerr := s.do(context.Background(), Request{Experiment: "kaslr", Seed: 7})
	if aerr != nil {
		t.Fatal(aerr)
	}
	if res.Cached || stub.started.Load() != 1 {
		t.Errorf("undecodable store value: cached=%v evals=%d, want recompute", res.Cached, stub.started.Load())
	}
	if got := s.Stats().StoreHits.Load(); got != 0 {
		t.Errorf("StoreHits = %d, want 0", got)
	}
}

// TestStoreOpenFailureSurfaces ensures a second Open of a locked dir
// keeps failing loudly at the service-config level rather than two
// servers silently sharing segments. (The store's own tests pin the
// flock; this pins that the service layer does not swallow it.)
func TestStoreOpenFailureSurfaces(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := store.Open(dir, store.Options{}); err == nil {
		t.Fatal("second Open of a locked store dir succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, "lock")); err != nil {
		t.Errorf("lock file missing: %v", err)
	}
}
