package service

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrDraining is returned by acquire once Drain has begun: the server
// finishes what it admitted but admits nothing new (HTTP 503).
var ErrDraining = errors.New("server is draining")

// BusyError is the backpressure signal: the scheduler's queue is full
// and the request was shed rather than queued unboundedly (HTTP 429).
// RetryAfter estimates when a slot is likely to free up, derived from
// the exponentially-weighted average simulation time and the current
// backlog.
type BusyError struct {
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("server busy, retry after %s", e.RetryAfter.Round(time.Millisecond))
}

// scheduler bounds concurrent evaluations: at most workers run at once
// and at most queueDepth more may wait for a slot. Anything beyond that
// is rejected immediately with a BusyError — in a serving system the
// honest answer to overload is "try later", not a queue whose wait
// exceeds every client's patience.
type scheduler struct {
	workers    int
	maxPending int64
	slots      chan struct{}

	// pending counts admitted evaluations (running + queued); it is the
	// queue-depth signal for backpressure, /readyz, and the telemetry
	// gauge.
	pending  atomic.Int64
	draining atomic.Bool

	// ewmaNS is the smoothed evaluation latency in nanoseconds, the
	// basis of the Retry-After estimate. Seeded lazily by the first
	// completed evaluation.
	ewmaNS atomic.Int64
}

func newScheduler(workers, queueDepth int) *scheduler {
	return &scheduler{
		workers:    workers,
		maxPending: int64(workers + queueDepth),
		slots:      make(chan struct{}, workers),
	}
}

// acquire admits one evaluation, blocking until a worker slot frees or
// ctx ends. It fails fast with ErrDraining during shutdown and with a
// BusyError when the backlog is full. On success the caller owns a slot
// and must call the returned release exactly once, after the evaluation
// finishes.
func (s *scheduler) acquire(ctx context.Context) (release func(), err error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	if n := s.pending.Add(1); n > s.maxPending {
		s.pending.Add(-1)
		return nil, &BusyError{RetryAfter: s.retryAfter()}
	}
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		s.pending.Add(-1)
		return nil, ctx.Err()
	}
	start := time.Now()
	released := atomic.Bool{}
	return func() {
		if released.Swap(true) {
			return
		}
		s.observe(time.Since(start))
		<-s.slots
		s.pending.Add(-1)
	}, nil
}

// observe folds one evaluation latency into the EWMA (α = 1/4, integer
// arithmetic: new = old + (sample-old)/4).
func (s *scheduler) observe(d time.Duration) {
	for {
		old := s.ewmaNS.Load()
		next := int64(d)
		if old != 0 {
			next = old + (int64(d)-old)/4
		}
		if s.ewmaNS.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfter estimates how long until a rejected client plausibly gets
// a slot: the backlog ahead of it, spread over the workers, times the
// average evaluation latency — floored at one second so clients never
// busy-loop on a sub-second hint.
func (s *scheduler) retryAfter() time.Duration {
	avg := time.Duration(s.ewmaNS.Load())
	if avg <= 0 {
		return time.Second
	}
	waves := (s.pending.Load() + int64(s.workers) - 1) / int64(s.workers)
	est := avg * time.Duration(waves)
	if est < time.Second {
		return time.Second
	}
	return est
}

// Pending reports the admitted (running + queued) evaluation count.
func (s *scheduler) Pending() int64 { return s.pending.Load() }

// StartDrain stops admitting new evaluations. Idempotent.
func (s *scheduler) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *scheduler) Draining() bool { return s.draining.Load() }

// AwaitIdle blocks until every admitted evaluation has released its
// slot, or ctx ends. Call StartDrain first or new work keeps arriving.
func (s *scheduler) AwaitIdle(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.pending.Load() == 0 {
			return nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
