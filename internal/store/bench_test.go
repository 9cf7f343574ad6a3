package store

import (
	"fmt"
	"testing"
)

// The store's unit economics: Put is one buffer build + pwrite, Get is
// one index lookup + pread + CRC. Both are archived by `make
// bench-store` so the persistence layer's overhead stays visible next
// to the serving numbers it protects.

// benchValue approximates a small rendered experiment result.
var benchValue = make([]byte, 4096)

func BenchmarkStorePut(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.SetBytes(int64(len(benchValue)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(fmt.Sprintf("bench-key-%09d", i), benchValue); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreGet(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const n = 1024
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-key-%09d", i)
		if err := s.Put(keys[i], benchValue); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(benchValue)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(keys[i%n]); !ok {
			b.Fatal("bench key missing")
		}
	}
}
