package phantom

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestOptionsSurface pins every exported field of the library's settings
// types against testdata/options.golden, so a new knob shows up as a
// reviewed golden diff. Refresh intentionally with:
//
//	go test -run TestOptionsSurface -update .
func TestOptionsSurface(t *testing.T) {
	var b strings.Builder
	for _, v := range []any{Options{}, ReportOptions{}, SystemConfig{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				fmt.Fprintf(&b, "%s.%s %s\n", typ.Name(), f.Name, f.Type)
			}
		}
	}
	checkGolden(t, filepath.Join("testdata", "options.golden"), []byte(b.String()))
}

// TestNewSystemNoiseMatrix pins the SystemConfig noise semantics:
// Deterministic disables all injected noise even when a NoiseLevel is
// configured, an unset NoiseLevel defaults to the calibrated 1, and an
// explicit NoiseLevel passes through otherwise.
func TestNewSystemNoiseMatrix(t *testing.T) {
	cases := []struct {
		name          string
		deterministic bool
		noiseLevel    float64
		want          float64
	}{
		{"defaults", false, 0, 1},
		{"explicit noise", false, 2.5, 2.5},
		{"deterministic", true, 0, 0},
		{"deterministic overrides noise", true, 2.5, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys, err := NewSystem(Zen2, SystemConfig{
				Seed:          1,
				Deterministic: c.deterministic,
				NoiseLevel:    c.noiseLevel,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := sys.NoiseLevel(); got != c.want {
				t.Errorf("Deterministic=%v NoiseLevel=%v: effective noise %v, want %v",
					c.deterministic, c.noiseLevel, got, c.want)
			}
		})
	}
}

// TestDeterministicRunsIdentical asserts the property the flag is named
// for: with Deterministic set, two same-seed systems produce identical
// attack outcomes even under a (dropped) noise configuration.
func TestDeterministicRunsIdentical(t *testing.T) {
	run := func(noise float64) (uint64, float64) {
		sys, err := NewSystem(Zen2, SystemConfig{Seed: 77, Deterministic: true, NoiseLevel: noise})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.BreakImageKASLR()
		if err != nil {
			t.Fatal(err)
		}
		return res.Guess, res.Seconds
	}
	g1, s1 := run(0)
	g2, s2 := run(3)
	if g1 != g2 || s1 != s2 {
		t.Fatalf("deterministic runs diverged under configured noise: %#x/%f vs %#x/%f", g1, s1, g2, s2)
	}
}
