package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreOpen feeds arbitrary bytes to recovery as the only segment
// file of a store directory. Open must never panic or fail on them, and
// every key it indexes must come back from Get as exactly the payload of
// a CRC-valid record in the input: a record whose CRC check failed is
// never served. The recovered store must then take appends and survive
// a reopen.
//
//	go test -run '^$' -fuzz FuzzStoreOpen -fuzztime 30s ./internal/store
func FuzzStoreOpen(f *testing.F) {
	var hdr [headerSize]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], version)
	good := append(append(hdr[:], encodeRecord("key-0001", valueFor("key-0001"))...),
		encodeRecord("key-0002", valueFor("key-0002"))...)
	corrupt := bytes.Clone(good)
	corrupt[headerSize+recHdrSize+3] ^= 0xFF // first record's key byte
	f.Add([]byte{})
	f.Add(hdr[:])
	f.Add(good)
	f.Add(good[:len(good)-5]) // torn tail
	f.Add(corrupt)
	f.Add(bytes.Repeat([]byte("garbage!"), 8))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		indexed := 0
		for _, key := range frameKeys(data) {
			if !s.Has(key) {
				continue
			}
			indexed++
			val, ok := s.Get(key)
			if !ok {
				t.Fatalf("indexed key %q not served", key)
			}
			if !bytes.Contains(data, encodeRecord(key, val)) {
				t.Fatalf("Get(%q) served a value no CRC-valid input record holds", key)
			}
		}
		if n := s.Stats().Records; n != indexed {
			t.Fatalf("store indexes %d records, input frames hold %d", n, indexed)
		}

		const probe = "fuzz-probe"
		want := []byte("appended after recovery")
		if !s.Has(probe) {
			if err := s.Put(probe, want); err != nil {
				t.Fatalf("Put after recovery: %v", err)
			}
		} else {
			want, _ = s.Get(probe)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = mustOpen(t, dir, Options{})
		if got, ok := s.Get(probe); !ok || !bytes.Equal(got, want) {
			t.Fatalf("after reopen Get(%q) = %q, %v; want %q", probe, got, ok, want)
		}
	})
}

// frameKeys returns the key of every well-framed record at any offset
// past the header: a superset of the keys recovery can index.
func frameKeys(data []byte) []string {
	seen := map[string]bool{}
	var keys []string
	for off := headerSize; off+recHdrSize+2 <= len(data); off++ {
		plen := int(binary.LittleEndian.Uint32(data[off+4:]))
		if plen < 2 || plen > len(data)-off-recHdrSize {
			continue
		}
		klen := int(binary.LittleEndian.Uint16(data[off+recHdrSize:]))
		if 2+klen > plen {
			continue
		}
		key := string(data[off+recHdrSize+2 : off+recHdrSize+2+klen])
		if !seen[key] {
			seen[key] = true
			keys = append(keys, key)
		}
	}
	return keys
}
