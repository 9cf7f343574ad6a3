package main

import (
	"io"
	"testing"
)

// BenchmarkVetWholeRepo measures what `make phantom-vet` costs: a
// full-suite run over the entire module, listing and loading every
// package (imports from the go build cache's export data) and
// analyzing them in dependency order. `make bench-vet` archives it as a
// dated BENCH_*_vet.json.
func BenchmarkVetWholeRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if code := realMain([]string{"phantom/..."}, io.Discard, io.Discard); code != 0 {
			b.Fatalf("phantom-vet exited %d; the tree must be clean to benchmark it", code)
		}
	}
}
