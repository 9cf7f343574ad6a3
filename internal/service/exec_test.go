package service

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"phantom"
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

// TestPerArchJobsParity checks that running a request's arches on the
// sweep pool changes nothing but speed: every per-arch experiment
// renders the same bytes at jobs 1 and jobs 4 for a multi-arch request.
// For the entries that render each arch on its own, the multi-arch
// output must also be the single-arch outputs concatenated in arch
// order.
func TestPerArchJobsParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	for _, tc := range []struct {
		req    Request
		concat bool
	}{
		{Request{Experiment: "table1", Archs: []string{"all"}, Trials: 2}, true},
		{Request{Experiment: "sls", Archs: []string{"all"}}, false},
		{Request{Experiment: "mitigations", Archs: []string{"amd"}}, false},
		{Request{Experiment: "mds", Archs: []string{"zen1", "zen2"}, Runs: 1, Bytes: 64}, false},
		{Request{Experiment: "chain", Archs: []string{"zen1", "zen2"}}, true},
	} {
		t.Run(tc.req.Experiment, func(t *testing.T) {
			render := func(req Request, jobs int) string {
				var b bytes.Buffer
				if err := Execute(context.Background(), &b, req, jobs); err != nil {
					t.Fatal(err)
				}
				return b.String()
			}
			seq, par := render(tc.req, 1), render(tc.req, 4)
			if seq != par {
				t.Errorf("jobs 4 renders differently from jobs 1:\n--- jobs=1\n%s--- jobs=4\n%s", seq, par)
			}
			if !tc.concat {
				return
			}
			var each strings.Builder
			for _, a := range mustNormalize(t, tc.req).Archs {
				one := tc.req
				one.Archs = []string{a}
				each.WriteString(render(one, 1))
			}
			if par != each.String() {
				t.Errorf("multi-arch output is not the per-arch outputs in arch order:\n--- whole\n%s--- per arch\n%s", par, &each)
			}
		})
	}
}

// TestPerArchCancellation checks a multi-arch request stops on its
// context: table1 under a cancelled context returns the context's
// error, and an arch that fails cancels the context the other arches
// run under.
func TestPerArchCancellation(t *testing.T) {
	table1, _ := Lookup("table1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := table1.run(phantom.Options{Context: ctx, Seed: 1, Jobs: 4, Trials: 1}, phantom.AllMicroarchs()); !errors.Is(err, context.Canceled) {
		t.Errorf("table1 under a cancelled context: err = %v, want %v", err, context.Canceled)
	}

	boom := errors.New("boom")
	archs := []phantom.Microarch{phantom.Zen1, phantom.Zen2}
	_, err := perArch(phantom.Options{Context: context.Background(), Jobs: 2}, archs, func(o phantom.Options, a phantom.Microarch) (int, error) {
		if a == phantom.Zen1 {
			return 0, boom
		}
		select {
		case <-o.Context.Done():
			return 0, o.Context.Err()
		case <-time.After(10 * time.Second):
			t.Error("the failing arch did not cancel the other arch's context")
			return 0, nil
		}
	})
	if !errors.Is(err, boom) {
		t.Errorf("perArch with a failing arch: err = %v, want %v", err, boom)
	}
}
