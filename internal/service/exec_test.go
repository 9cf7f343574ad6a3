package service

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// TestExecuteNormalizes checks Execute canonicalizes a raw request
// itself: a library caller that skips Normalize gets the same bytes as
// the normalized request, and a negative field is an error rather than
// a panic deep in the simulator.
func TestExecuteNormalizes(t *testing.T) {
	raw := Request{Experiment: "table1", Archs: []string{"zen2", "zen2"}, Trials: 2}
	var got, want bytes.Buffer
	if err := Execute(context.Background(), &got, raw, 1); err != nil {
		t.Fatal(err)
	}
	if err := Execute(context.Background(), &want, mustNormalize(t, raw), 1); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("raw request renders differently from its normalized form:\nraw:\n%s\nnormalized:\n%s", &got, &want)
	}
	for _, bad := range []Request{
		{Experiment: "kaslr", Runs: -1},
		{Experiment: "covert", Bits: -5},
	} {
		err := Execute(context.Background(), &got, bad, 1)
		if err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("Execute(%+v) = %v, want a negative-field error", bad, err)
		}
	}
}

// TestExecuteCancellationPropagates checks ctx reaches the experiment
// layer: a cancelled context aborts mid-experiment rather than running
// to completion.
func TestExecuteCancellationPropagates(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	var buf bytes.Buffer
	// physaddr takes ~500ms at runs=1; a 5ms deadline must cut it off.
	err := Execute(ctx, &buf, Request{Experiment: "physaddr", Runs: 1}, 0)
	if err == nil {
		t.Fatal("Execute ran to completion under an expired deadline")
	}
	if ctx.Err() == nil {
		t.Fatal("test bug: deadline never fired")
	}
}

// TestChainFailedBootSkipsLaterSteps pins the chain's failed-boot path:
// on these seeds the physmap break finds no candidate base, so steps 3
// and 4 are reported as not run and the request still succeeds.
func TestChainFailedBootSkipsLaterSteps(t *testing.T) {
	for _, seed := range []int64{23, 65, 80} {
		var buf bytes.Buffer
		if err := Execute(context.Background(), &buf, Request{Experiment: "chain", Seed: seed}, 1); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !strings.Contains(buf.String(), "\n3. page phys:     not run on this boot") {
			t.Errorf("seed %d: step 3 not skipped:\n%s", seed, &buf)
		}
	}
}
