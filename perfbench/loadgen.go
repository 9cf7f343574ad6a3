package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"phantom/internal/service"
)

// maxOutstanding caps the requests the open-loop generator keeps in
// flight. A request due while the cap is reached is not sent and counts
// as missing the latency limit: the server has fallen that far behind.
const maxOutstanding = 2048

// lateLimitMS is how late (p99, from its due time to its dispatch) the
// generator may send before a step is invalid: beyond it the measured
// latencies describe the generator, not the server.
const lateLimitMS = 50.0

// reply is one answered request as the generator saw it.
type reply struct {
	req       service.Request
	key       string
	class     keyClass
	latMS     float64 // from the due time to the end of the response
	status    int
	err       error
	cached    bool
	coalesced bool
	simMS     float64
	digest    string    // of the rendered output
	done      time.Time // when the answer was complete
}

// step is one fixed-rate open-loop step.
type step struct {
	rate     float64
	dur      time.Duration
	replies  []reply
	late     []float64 // ms, dispatch minus due time, per arrival event
	dropped  int       // due while maxOutstanding were in flight
	backlog  []int     // sampled due-but-unanswered requests
	grew     bool
	achieved float64 // requests answered within the step, per second
}

// failed counts the step's requests that errored, were refused
// (non-2xx, 429 included) or never sent.
func (s *step) failed() int {
	n := s.dropped
	for _, r := range s.replies {
		if r.err != nil || r.status != http.StatusOK {
			n++
		}
	}
	return n
}

// ok counts the step's answered (2xx) requests.
func (s *step) ok() int { return len(s.replies) + s.dropped - s.failed() }

// latencies returns the sorted latencies of every request of the step,
// with failed requests counted as infinitely slow.
func (s *step) latencies() []float64 {
	out := make([]float64, 0, len(s.replies)+s.dropped)
	for _, r := range s.replies {
		if r.err != nil || r.status != http.StatusOK {
			out = append(out, inf)
		} else {
			out = append(out, r.latMS)
		}
	}
	for i := 0; i < s.dropped; i++ {
		out = append(out, inf)
	}
	sort.Float64s(out)
	return out
}

// inf is the latency of a failed request: slower than any limit, yet
// finite so that results still encode as JSON.
const inf = 1e300

// meets reports whether the step meets the serving limit: its p99 from
// due time is supported by the sample count and within limitMS, nothing
// failed, the backlog did not grow and the generator stayed on time. A
// step the generator ran late is invalid, never a pass.
func (s *step) meets(limitMS float64) bool {
	p99, ok := supported(s.latencies(), 99)
	return ok && p99 <= limitMS && s.failed() == 0 && !s.grew && s.lateP99() <= lateLimitMS
}

// String summarizes the step for the run notes.
func (s *step) String() string {
	p99, ok := supported(s.latencies(), 99)
	p := fmt.Sprintf("%.1f", p99)
	switch {
	case !ok:
		p = "n/a"
	case p99 == inf:
		p = "inf"
	}
	return fmt.Sprintf("%.0f/s: p99 %sms failed %d growing %v late-p99 %.1fms", s.rate, p, s.failed(), s.grew, s.lateP99())
}

// lateP99 is the 99th percentile of the generator's dispatch delay.
func (s *step) lateP99() float64 {
	late := append([]float64(nil), s.late...)
	sort.Float64s(late)
	return percentile(late, 99)
}

// growing reports whether a backlog series grew over the step: the
// median of its last third exceeds twice the median of its first third
// by more than slack requests. Medians, so that a pause of a few
// samples (a GC cycle, a slow cold miss) is not read as growth.
func growing(samples []int, slack float64) bool {
	n := len(samples) / 3
	if n == 0 {
		return false
	}
	med := func(v []int) float64 {
		f := make([]float64, len(v))
		for i, x := range v {
			f[i] = float64(x)
		}
		return median(f)
	}
	return med(samples[len(samples)-n:]) > 2*med(samples[:n])+slack
}

// loadgen drives one server over HTTP.
type loadgen struct {
	url    string
	client *http.Client
	gen    *keyGen
	tr     *Tracer
}

// runStep sends the generator's stream at rate requests per second for
// dur, each request timed from when it was due, then waits for the
// answers (cancelling whatever is still open after drainCap).
func (lg *loadgen) runStep(ctx context.Context, rate float64, dur, drainCap time.Duration) *step {
	st := &step{rate: rate, dur: dur}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu          sync.Mutex
		wg          sync.WaitGroup
		outstanding atomic.Int64
		answered    atomic.Int64
		stop        = make(chan struct{})
	)
	start := time.Now()
	total := int(rate * dur.Seconds())

	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				due := min(int(now.Sub(start).Seconds()*rate), total)
				mu.Lock()
				st.backlog = append(st.backlog, due-int(answered.Load()))
				mu.Unlock()
			}
		}
	}()

	for sent := 0; sent < total; {
		reqs, class := lg.gen.next()
		due := start.Add(time.Duration(float64(sent) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		st.late = append(st.late, ms(time.Since(due)))
		for _, r := range reqs {
			sent++
			if outstanding.Load() >= maxOutstanding {
				st.dropped++
				answered.Add(1)
				continue
			}
			outstanding.Add(1)
			wg.Add(1)
			go func(r service.Request, id int) {
				defer wg.Done()
				rep := lg.send(sctx, r, class, due, id)
				outstanding.Add(-1)
				answered.Add(1)
				mu.Lock()
				st.replies = append(st.replies, rep)
				mu.Unlock()
			}(r, sent)
		}
	}
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(drainCap):
		cancel()
		<-drained
	}
	close(stop)
	sampler.Wait()
	// Slack: 20 ms of arrivals (at least 8 requests).
	st.grew = growing(st.backlog, max(8, rate/50))
	end := start.Add(dur)
	for _, r := range st.replies {
		if r.err == nil && r.status == http.StatusOK && !r.done.After(end) {
			st.achieved++
		}
	}
	st.achieved /= dur.Seconds()
	return st
}

// send posts one request and decodes the answer.
func (lg *loadgen) send(ctx context.Context, r service.Request, class keyClass, due time.Time, id int) reply {
	rep := reply{req: r, key: r.Key(), class: class}
	span := lg.tr.Start("serve.request."+class.String(), 0, fmt.Sprintf("q%d", id))
	defer lg.tr.End(span)
	body, err := json.Marshal(r)
	if err != nil {
		rep.err = err
		return rep
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, lg.url+"/v1/experiments", bytes.NewReader(body))
	if err != nil {
		rep.err = err
		return rep
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := lg.client.Do(req)
	if err != nil {
		rep.err = err
		return rep
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	rep.done = time.Now()
	rep.latMS = ms(rep.done.Sub(due))
	rep.status = resp.StatusCode
	if err != nil {
		rep.err = err
		return rep
	}
	if resp.StatusCode != http.StatusOK {
		return rep
	}
	var res service.Result
	if err := json.Unmarshal(data, &res); err != nil {
		rep.err = fmt.Errorf("decode reply: %w", err)
		return rep
	}
	rep.cached, rep.coalesced, rep.simMS, rep.digest = res.Cached, res.Coalesced, res.SimMS, digest([]byte(res.Output))
	return rep
}

// ladderClimb returns the highest rung below n that passes in at most
// maxProbes probes, or start (the highest rung known to pass, -1 for
// none) if no probe passes. Each probe tries step rungs above the best
// so far, and the step halves, down to 1, after a probe that fails. A
// failing probe never lowers the answer: on a shared host a burst of
// contention can fail one probe below the server's capacity, and that
// costs the climb one probe, not the rest of the search.
func ladderClimb(n, maxProbes, start, step int, pass func(rung int) bool) int {
	best := start
	for probes := 0; probes < maxProbes && best < n-1; probes++ {
		r := min(best+step, n-1)
		if pass(r) {
			best = r
		} else {
			step = max(1, min(step, r-best)/2)
		}
	}
	return best
}
