package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"phantom/internal/service"
)

// TestServedOutputMatchesCLI pins the acceptance contract of the
// serving subsystem: for the same request, the HTTP result's "output"
// field is byte-identical to what the phantom CLI prints — cold, and
// again from the cache. Both front ends render through
// service.Execute, so this test guards the *wiring* (flag → Request
// mapping, normalization, cache copy-out), not two implementations.
func TestServedOutputMatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	srv := service.NewServer(service.Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name    string
		args    []string
		request string
	}{
		{
			"table1",
			[]string{"table1", "-arch", "zen2", "-trials", "2"},
			`{"experiment":"table1","archs":["zen2"],"trials":2}`,
		},
		{
			"chain",
			[]string{"chain", "-arch", "zen2", "-seed", "3"},
			`{"experiment":"chain","archs":["zen2"],"seed":3}`,
		},
		{
			"sls (explicit vs defaulted request)",
			[]string{"sls"},
			`{"experiment":"sls","archs":["all"],"seed":1}`,
		},
	}
	for _, c := range cases {
		var cli bytes.Buffer
		if err := runCommand(context.Background(), &cli, c.args[0], c.args[1:]); err != nil {
			t.Fatalf("%s: CLI: %v", c.name, err)
		}
		for round, wantCached := range []bool{false, true} {
			resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(c.request))
			if err != nil {
				t.Fatalf("%s: POST: %v", c.name, err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", c.name, resp.StatusCode, body)
			}
			var res service.Result
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if res.Output != cli.String() {
				t.Errorf("%s round %d: served output differs from CLI stdout\nserved: %q\ncli:    %q",
					c.name, round, res.Output, cli.String())
			}
			if res.Cached != wantCached {
				t.Errorf("%s round %d: cached = %v, want %v", c.name, round, res.Cached, wantCached)
			}
		}
	}
}
