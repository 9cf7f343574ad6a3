package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"phantom/internal/service"
	"phantom/internal/store"
)

// Serving parameters, fixed once from measurements of the commit that
// defined the benchmark on a 2-CPU host, where serve_max_rps measured
// 4500-7800 req/s: the low rate is about 20% of it and the high rate
// stays below its slowest runs, so that the fixed-rate steps of a
// healthy server never fail; the p99 limit is several times the
// cold-miss cost (a two-run KASLR break under load).
const (
	lowRate    = 1000.0 // requests/s
	highRate   = 3000.0 // requests/s
	p99LimitMS = 250.0  // latency limit on p99 from due time
	// The ladder starts where a probe of a few seconds still holds the
	// ~1000 samples a supported p99 needs.
	ladderBase = 1000.0 // rung 0, requests/s
	ladderStep = 1.05   // ratio between adjacent rungs
	ladderN    = 57     // rungs: 1000 .. ~15400 requests/s, twice the fastest run
	maxProbes  = 8      // climbing probes per run
	climbStep  = 8      // first climbing step, in rungs (about +48%)
	stepDrain  = 3 * time.Second
	probeDrain = time.Second
)

// rung is the arrival rate of ladder rung i.
func rung(i int) float64 { return ladderBase * math.Pow(ladderStep, float64(i)) }

// h2c is HTTP/2 over plain TCP: many concurrent requests share at most
// nproc connections, so a slow cold miss does not block the connection
// a hit would use.
func h2c() *http.Protocols {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	return &p
}

// served is one running serve-zipf target: a service.Server with a
// durable store, on a loopback listener.
type served struct {
	dir     string
	st      *store.Store
	hs      *http.Server
	url     string
	serving chan error
	keys    []service.Request // the hot and warm sets
	records [][]byte          // their store records
}

// startServed builds the serve-zipf target in dir: it fills a fresh
// store with the hot and warm sets through a first server's
// write-through, restarts on that store with a cache budget that holds
// the hot set, and pre-warms the hot set over HTTP (store hits promoted
// into the cache).
func startServed(ctx context.Context, dir string, gen *keyGen, nproc int, client *http.Client) (*served, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	keys := append(append([]service.Request(nil), gen.hot...), gen.warm...)
	s := &served{dir: dir, st: st, keys: keys, records: make([][]byte, len(keys))}
	fill := service.NewServer(service.Config{Workers: nproc, Store: st, CacheBytes: -1})
	err = parallel(ctx, nproc, len(keys), func(i int) error {
		body, _ := json.Marshal(keys[i])
		rec := httptest.NewRecorder()
		req := httptest.NewRequestWithContext(ctx, http.MethodPost, "/v1/experiments", bytes.NewReader(body))
		fill.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("fill %s: HTTP %d: %s", keys[i].Experiment, rec.Code, rec.Body.String())
		}
		s.records[i] = rec.Body.Bytes()
		return nil
	})
	if err != nil {
		s.close()
		return nil, err
	}
	var budget int64
	for _, rec := range s.records[:len(gen.hot)] {
		var res service.Result
		if err := json.Unmarshal(rec, &res); err != nil {
			s.close()
			return nil, err
		}
		budget += int64(len(res.Output)+len(res.ID)) + 256
	}
	// One simulation at a time, on one sweep worker: the load generator
	// shares this process, and the other CPU is left to it and to the
	// HTTP path, as a remote client's CPU would be. The queue is deep
	// enough that the p99 limit, not random 429s, bounds the ladder.
	srv := service.NewServer(service.Config{Workers: 1, Jobs: 1, QueueDepth: 8, Store: st, CacheBytes: budget + budget/8})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.hs = &http.Server{
		Handler:   srv.Handler(),
		Protocols: h2c(),
		HTTP2:     &http.HTTP2Config{MaxConcurrentStreams: maxOutstanding},
	}
	s.url = "http://" + ln.Addr().String()
	s.serving = make(chan error, 1)
	go func() { s.serving <- s.hs.Serve(ln) }()
	lg := &loadgen{url: s.url, client: client}
	for _, r := range gen.hot {
		if rep := lg.send(ctx, r, hot, time.Now(), 0); rep.err != nil || rep.status != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("pre-warm %s: status %d: %v", r.Experiment, rep.status, rep.err)
		}
	}
	return s, nil
}

// close stops the listener, waits for the serve loop, closes the store
// and removes its directory.
func (s *served) close() error {
	var errs []error
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		errs = append(errs, s.hs.Shutdown(ctx))
		if err := <-s.serving; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	errs = append(errs, s.st.Close(), os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// parallel runs fn(0..n-1) on at most workers goroutines and returns
// the first error.
func parallel(ctx context.Context, workers, n int, fn func(i int) error) error {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
		errs []error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := i >= n || len(errs) > 0 || ctx.Err() != nil
				mu.Unlock()
				if stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		return errs[0]
	}
	return ctx.Err()
}
