package store

import (
	"fmt"
	"testing"
)

// benchResult is the size of one encoded paper-grid result.
const benchResult = 574

func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("v1-%064x", i)
	}
	return keys
}

// BenchmarkStorePut writes fresh 574-byte results without fsync. The store
// is bounded at 16 MiB, so every key of the 64 Ki pool has been evicted
// before it comes round again and each Put is a real write.
func BenchmarkStorePut(b *testing.B) {
	keys := benchKeys(1 << 16)
	s, err := Open(b.TempDir(), Options{MaxBytes: 16 << 20, NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, benchResult)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(keys[i%len(keys)], val); err != nil {
			b.Fatal(err)
		}
	}
}

// fill writes n 574-byte results into a fresh store directory.
func fill(b *testing.B, n int) (string, []string) {
	dir := b.TempDir()
	keys := benchKeys(n)
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, benchResult)
	for _, k := range keys {
		if err := s.Put(k, val); err != nil {
			b.Fatal(err)
		}
	}
	return dir, keys
}

// BenchmarkStoreGet reads 574-byte results back from a 2,048-entry store:
// the disk-tier hit behind a RAM cache miss.
func BenchmarkStoreGet(b *testing.B) {
	dir, keys := fill(b, 2048)
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(keys[i%len(keys)]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkStoreOpen indexes a 2,048-entry store directory: a warm
// worker's boot.
func BenchmarkStoreOpen(b *testing.B) {
	dir, _ := fill(b, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != 2048 {
			b.Fatalf("%d entries", s.Len())
		}
		s.Close()
	}
}
