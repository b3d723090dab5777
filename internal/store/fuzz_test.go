package store

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// records frames val100(i) under key(i) for each i, back to back.
func records(is ...int) []byte {
	var seg []byte
	enc := &Store{}
	for _, i := range is {
		seg = append(seg, enc.encode(key(i), val100(i))...)
	}
	return seg
}

// fuzzSeeds are the committed corpus's shapes: the bytes that follow the
// valid two-record prefix of FuzzStoreOpen's active segment.
func fuzzSeeds() map[string][]byte {
	three := records(2, 3, 4)
	at := func(b []byte, i int) []byte {
		b = bytes.Clone(b)
		b[i] ^= 0xFF
		return b
	}
	second := int(rec100)
	return map[string][]byte{
		"valid-3-records":  three,
		"torn-tail":        three[:len(three)-40],
		"flipped-payload":  at(three, second+headerSize+len(key(3))+10),
		"flipped-header":   at(three, second+5),
		"zero-filled-tail": append(bytes.Clone(three), make([]byte, 100)...),
	}
}

func indexed(s *Store) []string {
	var keys []string
	for _, info := range s.Index() {
		keys = append(keys, info.Key)
	}
	return keys
}

// FuzzStoreOpen opens arbitrary bytes after a valid two-record prefix as the
// active segment. Open and a following Put never panic; every indexed key
// reads back bytes whose SHA-256 matches its record's, or is a counted miss;
// reopening is a fixpoint, and the Put keeps every indexed key.
func FuzzStoreOpen(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	prefix := records(0, 1)
	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		seg := append(bytes.Clone(prefix), tail...)
		if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		s := openT(t, dir, Options{NoSync: true})
		keys := indexed(s)
		if !s.Has(key(0)) || !s.Has(key(1)) {
			t.Fatal("the valid prefix was not indexed")
		}
		for _, k := range keys {
			s.mu.Lock()
			l := s.index[k]
			s.mu.Unlock()
			misses := s.Stats().Misses
			val, ok := s.Get(k)
			if !ok {
				if s.Stats().Misses != misses+1 {
					t.Fatalf("Get(%s) missed without counting", k)
				}
				continue
			}
			sum := make([]byte, sumSize)
			if _, err := l.seg.f.ReadAt(sum, l.payloadOff(k)+l.plen); err != nil {
				t.Fatal(err)
			}
			if got := sha256.Sum256(val); !bytes.Equal(got[:], sum) {
				t.Fatalf("Get(%s) returned bytes whose hash is not the record's", k)
			}
		}

		s2 := openT(t, dir, Options{NoSync: true})
		if got := indexed(s2); !slices.Equal(got, keys) {
			t.Fatalf("reopen indexed %v, first open %v", got, keys)
		}
		if st := s2.Stats(); st.Corruptions != 0 || s2.QuarantineCount() != s.QuarantineCount() {
			t.Fatalf("reopen is not a fixpoint: %+v, %d quarantined (first open %d)",
				st, s2.QuarantineCount(), s.QuarantineCount())
		}

		fresh := key(1000)
		if err := s.Put(fresh, val100(1000)); err != nil {
			t.Fatal(err)
		}
		want := append([]string{fresh}, keys...)
		sort.Strings(want)
		want = slices.Compact(want)
		s3 := openT(t, dir, Options{NoSync: true})
		if got := indexed(s3); !slices.Equal(got, want) {
			t.Fatalf("after a Put, reopen indexed %v, want %v", got, want)
		}
		if st := s3.Stats(); st.Corruptions != 0 {
			t.Fatalf("after a Put, reopen counted damage: %+v", st)
		}
		for _, k := range want {
			if _, ok := s3.Get(k); !ok {
				t.Fatalf("after a Put, %s is no longer served", k)
			}
		}
	})
}
