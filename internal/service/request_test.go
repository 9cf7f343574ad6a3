package service

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// mustNormalize is the test helper for requests that must be valid.
func mustNormalize(t *testing.T, r Request) Request {
	t.Helper()
	n, err := r.Normalize()
	if err != nil {
		t.Fatalf("Normalize(%+v): %v", r, err)
	}
	return n
}

// TestKeyCanonicalization pins the content-address invariant: every
// spelling of the same question hashes identically, and different
// questions hash differently. This is what makes the cache and the
// singleflight group correct — a miss here is either a useless cache
// split or, worse, two different experiments sharing a result.
func TestKeyCanonicalization(t *testing.T) {
	base := mustNormalize(t, Request{Experiment: "kaslr"}).Key()
	same := []Request{
		// Explicit defaults vs zero values.
		{Experiment: "kaslr", Seed: 1, Runs: 20},
		{Experiment: "kaslr", Archs: []string{"zen2", "zen3", "zen4"}},
		// Slice ordering and duplicates are not semantic.
		{Experiment: "kaslr", Archs: []string{"zen4", "zen2", "zen3"}},
		{Experiment: "kaslr", Archs: []string{"zen3", "zen3", "zen2", "zen4", "zen2"}},
		// Fields the experiment does not consume cannot split the key.
		{Experiment: "kaslr", Trials: 9, Noise: 0.5, Bits: 64, Bytes: 128, Samples: 7},
	}
	for _, r := range same {
		if got := mustNormalize(t, r).Key(); got != base {
			t.Errorf("Key(%+v) = %s, want %s (canonically equal requests must hash identically)", r, got, base)
		}
	}
	different := []Request{
		{Experiment: "kaslr", Seed: 2},
		{Experiment: "kaslr", Runs: 21},
		{Experiment: "kaslr", Archs: []string{"zen2"}},
		{Experiment: "physmap"},
	}
	for _, r := range different {
		if got := mustNormalize(t, r).Key(); got == base {
			t.Errorf("Key(%+v) collides with the default kaslr request", r)
		}
	}
}

// TestKeyAliasExpansion checks "all"/"amd" hash like their expansions.
func TestKeyAliasExpansion(t *testing.T) {
	alias := mustNormalize(t, Request{Experiment: "table1", Archs: []string{"all"}})
	explicit := mustNormalize(t, Request{Experiment: "table1"})
	if alias.Key() != explicit.Key() {
		t.Errorf("archs [all] and the default set hash differently")
	}
	amd := mustNormalize(t, Request{Experiment: "covert", Archs: []string{"amd"}})
	if got := mustNormalize(t, Request{Experiment: "covert"}); got.Key() != amd.Key() {
		t.Errorf("archs [amd] and covert's default hash differently")
	}
}

func TestNormalizeDefaults(t *testing.T) {
	n := mustNormalize(t, Request{Experiment: "fig7"})
	if n.Seed != 9 || n.Samples != 22 || len(n.Archs) != 1 || n.Archs[0] != "zen3" {
		t.Errorf("fig7 defaults = %+v", n)
	}
	if n.Runs != 0 || n.Trials != 0 || n.Bits != 0 || n.Bytes != 0 {
		t.Errorf("fig7 normalization left irrelevant fields set: %+v", n)
	}
	t1 := mustNormalize(t, Request{Experiment: "table1"})
	if t1.Trials != 6 || t1.Seed != 1 || len(t1.Archs) != 8 {
		t.Errorf("table1 defaults = %+v", t1)
	}
}

func TestNormalizeCanonicalArchOrder(t *testing.T) {
	n := mustNormalize(t, Request{Experiment: "table1", Archs: []string{"intel13", "zen1", "intel9", "zen4"}})
	want := []string{"zen1", "zen4", "intel9", "intel13"}
	if len(n.Archs) != len(want) {
		t.Fatalf("Archs = %v, want %v", n.Archs, want)
	}
	for i := range want {
		if n.Archs[i] != want[i] {
			t.Fatalf("Archs = %v, want %v (paper order)", n.Archs, want)
		}
	}
}

func TestNormalizeErrors(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"unknown experiment", Request{Experiment: "tablet1"}, "unknown experiment"},
		{"unknown arch", Request{Experiment: "table1", Archs: []string{"zen5"}}, "unknown microarchitecture"},
		{"archs on physaddr", Request{Experiment: "physaddr", Archs: []string{"zen2"}}, "takes no arch list"},
		{"archs on report", Request{Experiment: "report", Archs: []string{"zen2"}}, "takes no arch list"},
		{"negative runs", Request{Experiment: "kaslr", Runs: -1}, "negative runs"},
		{"negative trials", Request{Experiment: "table1", Trials: -2}, "negative trials"},
		{"negative noise", Request{Experiment: "table1", Noise: -0.5}, "negative noise"},
		{"negative unconsumed field", Request{Experiment: "kaslr", Bits: -5}, "negative bits"},
	}
	for _, c := range cases {
		_, err := c.req.Normalize()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Normalize(%+v) err = %v, want contains %q", c.name, c.req, err, c.want)
		}
	}
}

func TestExperimentsListsCatalog(t *testing.T) {
	names := Experiments()
	if len(names) != len(registry) {
		t.Fatalf("Experiments() has %d names, registry %d", len(names), len(registry))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Experiments() not sorted: %v", names)
		}
	}
	for _, want := range []string{"table1", "report", "chain"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Errorf("Experiments() missing %q", want)
		}
	}
}

func TestTimeoutScalesWithWeight(t *testing.T) {
	light := Request{Experiment: "fig6"}.Timeout(time.Second)
	heavy := Request{Experiment: "report"}.Timeout(time.Second)
	if light != time.Second {
		t.Errorf("fig6 timeout = %v, want 1s", light)
	}
	if heavy != 10*time.Second {
		t.Errorf("report timeout = %v, want 10s", heavy)
	}
	if unknown := (Request{Experiment: "nope"}).Timeout(time.Second); unknown != time.Second {
		t.Errorf("unknown-experiment timeout = %v, want the base", unknown)
	}
}

func TestClipGuardsShortLeaks(t *testing.T) {
	short := []byte{1, 2, 3}
	if got := clip(short, 16); len(got) != 3 {
		t.Errorf("clip(short, 16) = %v", got)
	}
	if got := clip(make([]byte, 64), 16); len(got) != 16 {
		t.Errorf("clip(long, 16) returned %d bytes", len(got))
	}
	if got := clip(nil, 16); got != nil {
		t.Errorf("clip(nil, 16) = %v", got)
	}
}

// FuzzNormalize checks request canonicalization on arbitrary input:
// Normalize never panics, rejects every negative size field, and is a
// fixpoint — normalizing its own result changes neither the request
// nor its Key. Run it with `make fuzz-normalize`.
func FuzzNormalize(f *testing.F) {
	for _, e := range registry {
		f.Add(e.Name, strings.Join(e.Archs, ","), e.Seed, 0, 0.0, 0, 0, 0, 0)
	}
	f.Add("table1", "all,amd", int64(0), 2, 0.5, 0, 0, 0, 0)
	f.Add("covert", "zen2,amd,zen2", int64(3), 0, 0.0, 16, 1, 0, 0)
	f.Add("kaslr", "zen4,zen2", int64(-7), 0, 0.0, -5, -1, 0, 0)
	f.Add("physaddr", "zen2", int64(1), 0, 0.0, 0, 1, 0, 0)
	f.Fuzz(func(t *testing.T, exp, archs string, seed int64, trials int, noise float64, bits, runs, bytes, samples int) {
		r := Request{Experiment: exp, Seed: seed, Trials: trials, Noise: noise,
			Bits: bits, Runs: runs, Bytes: bytes, Samples: samples}
		if archs != "" {
			r.Archs = strings.Split(archs, ",")
		}
		n, err := r.Normalize()
		if trials < 0 || noise < 0 || bits < 0 || runs < 0 || bytes < 0 || samples < 0 {
			if err == nil {
				t.Fatalf("Normalize(%+v) accepted a negative field: %+v", r, n)
			}
			return
		}
		if err != nil {
			return
		}
		again, err := n.Normalize()
		if err != nil {
			t.Fatalf("Normalize rejects its own result %+v: %v", n, err)
		}
		// %#v rather than reflect.DeepEqual: a NaN noise never equals
		// itself, but it prints (and hashes) the same.
		if fmt.Sprintf("%#v", again) != fmt.Sprintf("%#v", n) || again.Key() != n.Key() {
			t.Fatalf("Normalize is not a fixpoint:\nonce:  %#v\ntwice: %#v", n, again)
		}
	})
}

// FuzzRequestKey checks the content address end to end: two request
// bodies whose normalized requests have equal Key() render equal bytes
// through Execute, so a cache or store hit never answers differently
// from a fresh run. Most seed pairs respell one question — duplicated
// arches, explicit defaults, seed 0, fields the experiment does not
// consume; the near misses differ in a field that changes the output.
// Mutation explores from there. Only single-arch table1
// and sls at small sizes run, so an input costs milliseconds. Run it
// with `make fuzz-request-key`.
func FuzzRequestKey(f *testing.F) {
	f.Add(`{"experiment":"table1","archs":["zen2"],"trials":1}`,
		`{"experiment":"table1","archs":["zen2","zen2"],"trials":1,"seed":1,"runs":7,"noise":0}`)
	f.Add(`{"experiment":"table1","archs":["zen3"]}`,
		`{"experiment":"table1","archs":["zen3"],"trials":6,"bits":3}`)
	f.Add(`{"experiment":"table1","archs":["zen1"],"trials":2,"noise":0.5}`,
		`{"experiment":"table1","archs":["zen1"],"trials":2,"noise":0.25}`)
	f.Add(`{"experiment":"sls","archs":["zen4"],"seed":3}`,
		`{"experiment":"sls","archs":["zen4","zen4"],"seed":3,"trials":5,"noise":0.5}`)
	f.Add(`{"experiment":"sls","archs":["intel12"]}`,
		`{"experiment":"sls","archs":["intel12"],"seed":2}`)
	// Near misses: one field that changes the output differs, so the
	// keys must differ too.
	f.Add(`{"experiment":"table1","archs":["zen2"],"trials":1}`,
		`{"experiment":"table1","archs":["zen2"],"trials":2}`)
	f.Add(`{"experiment":"sls","archs":["zen1"]}`,
		`{"experiment":"sls","archs":["intel9"]}`)
	f.Fuzz(func(t *testing.T, a, b string) {
		na, ok := cheapRequest(a)
		if !ok {
			return
		}
		nb, ok := cheapRequest(b)
		if !ok || na.Key() != nb.Key() {
			return
		}
		var outA, outB bytes.Buffer
		if err := Execute(context.Background(), &outA, na, 1); err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if err := Execute(context.Background(), &outB, nb, 1); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if !bytes.Equal(outA.Bytes(), outB.Bytes()) {
			t.Fatalf("equal keys, different output:\n%s\n%s\n--- first\n%s--- second\n%s", a, b, &outA, &outB)
		}
	})
}

// cheapRequest decodes a request body as the server does and
// normalizes it, accepting only the requests FuzzRequestKey can afford
// to run: table1 or sls on one arch, with at most 6 trials and noise in
// [0, 1].
func cheapRequest(body string) (Request, bool) {
	var r Request
	if err := decodeStrict([]byte(body), &r); err != nil {
		return Request{}, false
	}
	n, err := r.Normalize()
	if err != nil || (n.Experiment != "table1" && n.Experiment != "sls") || len(n.Archs) != 1 {
		return Request{}, false
	}
	return n, n.Trials <= 6 && n.Noise <= 1
}
