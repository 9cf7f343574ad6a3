package main

import (
	"context"
	"strings"
	"testing"

	"phantom"
	"phantom/internal/core"
	"phantom/internal/service"
	"phantom/internal/telemetry"
)

// mdsCall runs exploit-chain's mds call on zen2 at seed and returns it
// as the timed pass would, replay included.
func mdsCall(t *testing.T, seed int64) timedCall {
	t.Helper()
	c := call{Req: normalize(service.Request{Experiment: "mds", Archs: []string{"zen2"}, Seed: seed, Runs: 1, Bytes: mdsBytes})}
	out, err := c.exec(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return timedCall{call: c, out: out, digest: digest(out), replayDigest: digest(out)}
}

func TestChainCheckAgainstGroundTruth(t *testing.T) {
	hub := telemetry.Enable(telemetry.Config{})
	defer telemetry.Disable()
	ck := &checker{chains: map[bootPair]*phantom.MDSReport{}}
	// Seed 1 leaks the secret; at seed 23 the image break picks a wrong
	// slot and the physmap break finds nothing, so the chain stops.
	boots := []bootPair{{"zen2", 1}, {"zen2", 23}}
	if _, _, err := coreProbe(boots, ck, hub.Registry(), nil); err != nil {
		t.Fatal(err)
	}
	if len(ck.wrong) > 0 {
		t.Fatalf("true chain steps rejected: %v", ck.wrong)
	}
	if ck.chains[boots[0]].SignalRuns != 1 || ck.chains[boots[1]].SignalRuns != 0 {
		t.Fatalf("seed 1 should leak and seed 23 should stop; pick other seeds: %v, %v", ck.chains[boots[0]], ck.chains[boots[1]])
	}
	for _, b := range boots {
		if c := mdsCall(t, b.seed); !ck.batchCall(c) {
			t.Fatalf("true mds output at seed %d rejected: %v\n%s", b.seed, ck.wrong, c.out)
		}
	}

	good := mdsCall(t, 1)
	for _, c := range []struct{ name, from, to string }{
		{"signal denied", "signal in 1/1", "signal in 0/1"},
		{"accuracy changed", "accuracy ", "accuracy 1"},
		{"rate changed", "median ", "median 9"},
	} {
		bad := good
		bad.out = []byte(strings.Replace(string(good.out), c.from, c.to, 1))
		if string(bad.out) == string(good.out) {
			t.Fatalf("%s: mutation left the output unchanged: %q", c.name, good.out)
		}
		bad.digest, bad.replayDigest = digest(bad.out), digest(bad.out)
		if ck.batchCall(bad) {
			t.Errorf("%s: tampered output accepted: %q", c.name, bad.out)
		}
	}

	n := len(ck.wrong)
	ck.guess("claimed right", &core.KASLRResult{Guess: 0x1000, Correct: true}, 0x2000)
	ck.guess("claimed wrong", &core.KASLRResult{Guess: 0x2000, Correct: false}, 0x2000)
	ck.leak("overcounted", []byte{1, 2, 3}, 3, []byte{1, 2, 4})
	if got := len(ck.wrong) - n; got != 3 {
		t.Errorf("%d of 3 false chain claims caught: %v", got, ck.wrong[n:])
	}
	ck.guess("true miss", &core.KASLRResult{Guess: 0x1000, Correct: false}, 0x2000)
	ck.leak("partial", []byte{1, 2, 3}, 2, []byte{1, 2, 4})
	if len(ck.wrong) != n+3 {
		t.Errorf("true chain claims rejected: %v", ck.wrong[n+3:])
	}
}
