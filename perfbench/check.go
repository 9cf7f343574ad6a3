package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"

	"phantom"
	"phantom/internal/core"
)

// defaultSeed is the workload seed whose outputs are pinned by digests
// recorded from the commit that defined the benchmark.
const defaultSeed = 1

// digestsJSON maps a request key (call.key or service key, 16 hex) to
// the digest of its rendered output, for every request the workloads
// generate at defaultSeed. Regenerate with --record-digests only when
// the model is meant to change.
//
//go:embed digests.json
var digestsJSON []byte

// checker validates outputs and collects the wrong ones, and the
// calls that returned an error instead of an output.
type checker struct {
	pinned map[string]string // nil at other seeds
	// chains holds, per (arch, seed) boot that coreProbe drove through
	// the Section 7 chain, the report an mds call of one run there must
	// print.
	chains map[bootPair]*phantom.MDSReport
	wrong  []string
	errs   []string
}

func newChecker(wseed int64) (*checker, error) {
	ck := &checker{chains: map[bootPair]*phantom.MDSReport{}}
	if wseed != defaultSeed {
		return ck, nil
	}
	if err := json.Unmarshal(digestsJSON, &ck.pinned); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return ck, nil
}

// fail records one wrong output.
func (ck *checker) fail(format string, args ...any) {
	ck.wrong = append(ck.wrong, fmt.Sprintf(format, args...))
}

// pin compares out against the recorded digest of key, when there is
// one. It reports whether a recorded digest was found.
func (ck *checker) pin(what, key string, out []byte) bool {
	want, ok := ck.pinned[key]
	if !ok {
		return false
	}
	if got := digest(out); got != want {
		ck.fail("%s: output digest %s, recorded %s", what, got, want)
	}
	return true
}

// batchCall checks one batch output against its pinned digest and the
// ground truth the public API exposes; it reports whether the call
// passed (an error counts as a failed call, not as a wrong output).
func (ck *checker) batchCall(c timedCall) bool {
	n := len(ck.wrong)
	what := fmt.Sprintf("round %d %s seed %d", c.Round, c.name(), seedOf(c.call))
	switch {
	case c.err != nil:
		ck.errs = append(ck.errs, fmt.Sprintf("%s: %v", what, c.err))
		return false
	case c.replayErr != nil:
		ck.errs = append(ck.errs, fmt.Sprintf("%s: replay with telemetry on: %v", what, c.replayErr))
		return false
	case c.replayDigest != c.digest:
		ck.fail("%s: output %s with telemetry off, %s with it on", what, c.digest, c.replayDigest)
		return false
	case c.Search != nil:
		want := fmt.Sprintf("arch=%s seed=%d budget=%d:", c.Search.Arch, c.Search.Seed, c.Search.Budget)
		if !strings.Contains(string(c.out), want) {
			ck.fail("%s: output lacks %q", what, want)
		}
	default:
		for _, a := range c.Req.Archs {
			if name := phantom.Microarch(a).ModelName(); !strings.Contains(string(c.out), name) {
				ck.fail("%s: output lacks a result for %s", what, name)
			}
		}
		if want, ok := ck.chains[bootPair{c.Req.Archs[0], c.Req.Seed}]; ok && c.Req.Experiment == "mds" {
			if got := strings.TrimSuffix(string(c.out), "\n"); got != want.String() {
				ck.fail("%s: printed %q, the chain driven through core gives %q", what, got, want.String())
			}
		}
	}
	ck.pin(what, c.key(), c.out)
	return len(ck.wrong) == n
}

func seedOf(c call) int64 {
	if c.Search != nil {
		return c.Search.Seed
	}
	return c.Req.Seed
}

// guess checks one KASLR step of a chain against the booted kernel's
// ground truth: the step must call its guess correct exactly when it
// is the truth.
func (ck *checker) guess(what string, r *core.KASLRResult, truth uint64) {
	if r.Correct != (r.Guess == truth) {
		ck.fail("%s: guess %#x reported correct=%v, truth %#x", what, r.Guess, r.Correct, truth)
	}
}

// leak checks a chain's leak against the planted secret itself: it
// cannot count more bytes right than it leaked equal to the secret.
func (ck *checker) leak(what string, leaked []byte, right int, secret []byte) {
	same := 0
	for i, b := range leaked {
		if i < len(secret) && b == secret[i] {
			same++
		}
	}
	if right > same {
		ck.fail("%s: leak counts %d bytes right, %d equal the secret", what, right, same)
	}
}
