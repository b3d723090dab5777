package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func key(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return fmt.Sprintf("v1-%x", sum)
}

func TestValidKey(t *testing.T) {
	good := []string{key(0), "v1-abc123", "abcd", "a-b_c.d"}
	for _, k := range good {
		if !ValidKey(k) {
			t.Errorf("ValidKey(%q) = false, want true", k)
		}
	}
	bad := []string{"", "ab", ".tmp-xyz", "a/b/cd", "../../etc", "a b c d", "k\x00ey"}
	for _, k := range bad {
		if ValidKey(k) {
			t.Errorf("ValidKey(%q) = true, want false", k)
		}
	}
}

func TestPutGetRoundtrip(t *testing.T) {
	s, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	val := []byte(`{"result":42}`)
	if err := s.Put(key(1), val); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key(1))
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = %q, %v; want %q", got, ok, val)
	}
	if _, ok := s.Get(key(2)); ok {
		t.Fatal("hit on absent key")
	}
	st := s.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats %+v", st)
	}
	if !s.Has(key(1)) || s.Has(key(2)) {
		t.Fatal("Has disagrees with contents")
	}
	// Re-put is a no-op (recency refresh), not a second write.
	if err := s.Put(key(1), val); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("re-put changed stats: %+v", st)
	}
}

func TestWarmStartReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string][]byte{}
	for i := 0; i < 20; i++ {
		k := key(i)
		vals[k] = []byte(fmt.Sprintf(`{"i":%d,"pad":"%080d"}`, i, i))
		if err := s.Put(k, vals[k]); err != nil {
			t.Fatal(err)
		}
	}

	// A fresh Open over the same directory serves every entry byte-identically.
	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 20 {
		t.Fatalf("reopened store has %d entries, want 20", s2.Len())
	}
	for k, want := range vals {
		got, ok := s2.Get(k)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("reopened Get(%s) = %q, %v; want %q", k, got, ok, want)
		}
	}
	if st := s2.Stats(); st.Corruptions != 0 {
		t.Fatalf("clean reopen counted corruptions: %+v", st)
	}
}

func TestInvalidKeyRejected(t *testing.T) {
	s, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("../escape", []byte("x")); !errors.Is(err, ErrInvalidKey) {
		t.Fatalf("Put with traversal key: %v", err)
	}
}

// openT opens a store that the test closes at cleanup.
func openT(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// where locates key's record: its segment file, the record's offset and its
// payload's offset.
func where(t *testing.T, s *Store, key string) (path string, off, payload int64) {
	t.Helper()
	s.mu.Lock()
	l, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		t.Fatalf("%s not indexed", key)
	}
	return s.segPath(l.seg.n), l.off, l.payloadOff(key)
}

// flipByte inverts one byte of a file behind the store's back: silent disk
// corruption.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// val100 is a 100-byte payload distinct per i.
func val100(i int) []byte { return []byte(fmt.Sprintf(`{"i":%04d,"pad":"%081d"}`, i, i)) }

// rec100 is the record size of a val100 payload under a key(i) key.
var rec100 = recordSize(key(0), 100)

// putAll stores val100(i) under key(i) for i in [from, to).
func putAll(t *testing.T, s *Store, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := s.Put(key(i), val100(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// serves fails unless s serves val100(i) under key(i) for every listed i.
func serves(t *testing.T, s *Store, is ...int) {
	t.Helper()
	for _, i := range is {
		got, ok := s.Get(key(i))
		if !ok || !bytes.Equal(got, val100(i)) {
			t.Fatalf("Get(key(%d)) = %q, %v; want %q", i, got, ok, val100(i))
		}
	}
}

// threePerSegment bounds a store so its segments roll every three records
// of val100 payloads, with room for far more records than any test writes.
var threePerSegment = Options{MaxBytes: segmentsPerBound * 3 * rec100, NoSync: true}

// TestCorruptEntryQuarantinedOnGet flips a payload byte in a sealed
// segment. Open checks only the headers there, so Get catches it: a miss,
// one corruption, the record copied to quarantine, and every later record
// of that segment still served. The quarantined record stays out of a
// reopened store's index.
func TestCorruptEntryQuarantinedOnGet(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, threePerSegment)
	putAll(t, s, 0, 6) // seg 1: 0, 1, 2 (sealed); seg 2: 3, 4, 5
	path, _, payload := where(t, s, key(1))
	if path != s.segPath(1) {
		t.Fatalf("key(1) in %s, want segment 1", path)
	}
	flipByte(t, path, payload+2)

	if _, ok := s.Get(key(1)); ok {
		t.Fatal("corrupt entry served")
	}
	st := s.Stats()
	if st.Corruptions != 1 || st.Entries != 5 {
		t.Fatalf("stats after corruption: %+v", st)
	}
	if s.QuarantineCount() != 1 {
		t.Fatalf("quarantine holds %d files, want 1", s.QuarantineCount())
	}
	serves(t, s, 0, 2, 3, 4, 5)

	s2 := openT(t, dir, threePerSegment)
	if s2.Has(key(1)) {
		t.Fatal("quarantined record indexed again on reopen")
	}
	if st := s2.Stats(); st.Corruptions != 0 || st.Entries != 5 {
		t.Fatalf("reopened stats: %+v", st)
	}
	serves(t, s2, 0, 2, 3, 4, 5)
}

// TestCorruptRecordInActiveSegmentQuarantinedOnOpen flips a payload byte in
// the middle of the active segment, which Open verifies in full. Only that
// record is lost; the records after it are indexed, and a later Put appends
// after them rather than cutting them as a torn tail.
func TestCorruptRecordInActiveSegmentQuarantinedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{NoSync: true})
	putAll(t, s, 0, 5)
	path, _, payload := where(t, s, key(2))
	flipByte(t, path, payload)

	s2 := openT(t, dir, Options{NoSync: true})
	if s2.Has(key(2)) {
		t.Fatal("corrupt record indexed")
	}
	if st := s2.Stats(); st.Corruptions != 1 || st.Entries != 4 {
		t.Fatalf("stats: %+v", st)
	}
	if s2.QuarantineCount() != 1 {
		t.Fatalf("quarantine holds %d files, want 1", s2.QuarantineCount())
	}
	serves(t, s2, 0, 1, 3, 4)
	putAll(t, s2, 5, 6)

	s3 := openT(t, dir, Options{NoSync: true})
	if st := s3.Stats(); st.Corruptions != 0 || st.Entries != 5 || s3.QuarantineCount() != 1 {
		t.Fatalf("second reopen: %+v, %d quarantined", st, s3.QuarantineCount())
	}
	serves(t, s3, 0, 1, 3, 4, 5)
}

// TestLargeRecordVerifiedInChunks covers a payload larger than Open's scan
// buffer, which the active segment's verification hashes in chunks.
func TestLargeRecordVerifiedInChunks(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{NoSync: true})
	big := bytes.Repeat([]byte("0123456789abcdef"), scanBuffer/16+1000)
	if err := s.Put(key(0), big); err != nil {
		t.Fatal(err)
	}
	putAll(t, s, 1, 2)
	if s2 := openT(t, dir, Options{NoSync: true}); s2.Len() != 2 || s2.Stats().Corruptions != 0 {
		t.Fatalf("reopened %d entries, %+v", s2.Len(), s2.Stats())
	}
	path, _, payload := where(t, s, key(0))
	flipByte(t, path, payload+int64(len(big))-3)
	s3 := openT(t, dir, Options{NoSync: true})
	if s3.Has(key(0)) || s3.Stats().Corruptions != 1 {
		t.Fatalf("damaged large record: indexed %v, %+v", s3.Has(key(0)), s3.Stats())
	}
	serves(t, s3, 1)
}

// TestFlippedHeaderByteCostsOneRecord damages a header in a sealed segment.
// The scan cannot trust that record's lengths, so it searches for the next
// record's magic: the damaged span is quarantined and the rest of the
// segment is still indexed.
func TestFlippedHeaderByteCostsOneRecord(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, threePerSegment)
	putAll(t, s, 0, 6)
	path, off, _ := where(t, s, key(1))
	flipByte(t, path, off+8) // payload length

	s2 := openT(t, dir, threePerSegment)
	if s2.Has(key(1)) {
		t.Fatal("record with a damaged header indexed")
	}
	if st := s2.Stats(); st.Corruptions != 1 || st.Entries != 5 {
		t.Fatalf("stats: %+v", st)
	}
	if s2.QuarantineCount() != 1 {
		t.Fatalf("quarantine holds %d files, want 1", s2.QuarantineCount())
	}
	serves(t, s2, 0, 2, 3, 4, 5)
}

// TestTruncatedEntryQuarantinedOnOpen cuts a sealed segment short in its
// last record, as a lost tail would after a power loss. Open quarantines
// and counts the partial record; everything else is served.
func TestTruncatedEntryQuarantinedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, threePerSegment)
	putAll(t, s, 0, 6)
	path, off, _ := where(t, s, key(2))
	if err := os.Truncate(path, off+5); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, threePerSegment)
	if s2.Has(key(2)) {
		t.Fatal("truncated entry indexed")
	}
	if st := s2.Stats(); st.Corruptions != 1 || st.Entries != 5 {
		t.Fatalf("stats %+v", st)
	}
	if s2.QuarantineCount() != 1 {
		t.Fatalf("quarantine holds %d files, want 1", s2.QuarantineCount())
	}
	serves(t, s2, 0, 1, 3, 4, 5)
}

// TestTornTailCutByFirstPut truncates the active segment in its last
// record: the tail an interrupted append leaves. It is neither counted nor
// quarantined. Open leaves the file alone; the first Put cuts the tail and
// appends at the last valid record's end. The torn record is longer than
// the next one, so bytes of it would outlive an append that only
// overwrote it.
func TestTornTailCutByFirstPut(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{NoSync: true})
	putAll(t, s, 0, 3)
	if err := s.Put(key(3), bytes.Repeat([]byte("z"), 400)); err != nil {
		t.Fatal(err)
	}
	path, off, _ := where(t, s, key(3))
	torn := off + 2*rec100
	if err := os.Truncate(path, torn); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, Options{NoSync: true})
	if got := fileSize(t, path); got != torn {
		t.Fatalf("Open changed the segment: %d bytes, want %d", got, torn)
	}
	if s2.Has(key(3)) {
		t.Fatal("torn record indexed")
	}
	if st := s2.Stats(); st.Corruptions != 0 || st.Entries != 3 || s2.QuarantineCount() != 0 {
		t.Fatalf("a torn tail counted as damage: %+v, %d quarantined", st, s2.QuarantineCount())
	}
	serves(t, s2, 0, 1, 2)
	putAll(t, s2, 4, 5)
	if got := fileSize(t, path); got != off+rec100 {
		t.Fatalf("segment after the first Put: %d bytes, want %d", got, off+rec100)
	}

	s3 := openT(t, dir, Options{NoSync: true})
	if st := s3.Stats(); st.Corruptions != 0 || st.Entries != 4 {
		t.Fatalf("reopened stats: %+v", st)
	}
	serves(t, s3, 0, 1, 2, 4)
}

// shortWrite stands in for a crash mid-append: half the record reaches the
// file and the write fails.
func shortWrite(f *os.File, b []byte, off int64) (int, error) {
	n, _ := f.WriteAt(b[:len(b)/2], off)
	return n, errors.New("injected crash mid-append")
}

// TestCrashMidWriteFaultInjectedShortWrite simulates a worker killed
// mid-append: half a record is written and the process dies. The next Open
// comes up clean without touching the segment, serves every completed
// result byte-identically, and the first Put cuts the torn tail.
func TestCrashMidWriteFaultInjectedShortWrite(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{NoSync: true})
	putAll(t, s, 20, 28)
	path := s.segPath(1)
	clean := fileSize(t, path)

	orig := writeAt
	writeAt = shortWrite
	err := s.Put(key(99), val100(99))
	writeAt = orig
	if err == nil {
		t.Fatal("Put succeeded past the injected short write")
	}
	if s.Has(key(99)) {
		t.Fatal("torn write indexed")
	}
	torn := fileSize(t, path)
	if torn != clean+rec100/2 {
		t.Fatalf("segment holds %d bytes after the short write, want %d", torn, clean+rec100/2)
	}

	// "Restart": a fresh Open over the crashed directory.
	s2 := openT(t, dir, Options{NoSync: true})
	if fileSize(t, path) != torn {
		t.Fatal("Open cut the torn tail; only a Put may write a segment")
	}
	if s2.Has(key(99)) {
		t.Fatal("torn write survived the restart")
	}
	if s2.Len() != 8 || s2.QuarantineCount() != 0 {
		t.Fatalf("reopened store has %d entries and %d quarantined, want 8 and 0", s2.Len(), s2.QuarantineCount())
	}
	serves(t, s2, 20, 21, 22, 23, 24, 25, 26, 27)
	putAll(t, s2, 99, 100)
	if got := fileSize(t, path); got != clean+rec100 {
		t.Fatalf("segment after the first Put: %d bytes, want %d", got, clean+rec100)
	}

	s3 := openT(t, dir, Options{NoSync: true})
	if st := s3.Stats(); st.Entries != 9 || st.Corruptions != 0 {
		t.Fatalf("stats after recovery: %+v", st)
	}
	serves(t, s3, 20, 21, 22, 23, 24, 25, 26, 27, 99)
}

// TestFailedAppendCutBeforeNextPut checks the same recovery inside one
// process: the Put after a failed append overwrites the torn bytes instead
// of appending after them.
func TestFailedAppendCutBeforeNextPut(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{NoSync: true})
	putAll(t, s, 0, 2)
	orig := writeAt
	writeAt = shortWrite
	err := s.Put(key(2), val100(2))
	writeAt = orig
	if err == nil {
		t.Fatal("Put succeeded past the injected short write")
	}
	putAll(t, s, 2, 4)
	if st := s.Stats(); st.Puts != 4 || st.PutErrors != 1 || st.Bytes != 4*rec100 {
		t.Fatalf("stats: %+v", st)
	}
	if got := fileSize(t, s.segPath(1)); got != 4*rec100 {
		t.Fatalf("segment holds %d bytes, want %d", got, 4*rec100)
	}
	s2 := openT(t, dir, Options{NoSync: true})
	if st := s2.Stats(); st.Entries != 4 || st.Corruptions != 0 {
		t.Fatalf("reopened stats: %+v", st)
	}
	serves(t, s2, 0, 1, 2, 3)
}

// TestEvictionSecondChance bounds the store to eight segments of two
// records. Passing the bound drops the oldest segment; an entry read since
// it was written is re-appended first and survives, once.
func TestEvictionSecondChance(t *testing.T) {
	bound := 16 * rec100
	s := openT(t, t.TempDir(), Options{MaxBytes: bound, NoSync: true})
	putAll(t, s, 0, 16) // segments 1..8 hold (0,1), (2,3), ...
	if st := s.Stats(); st.Evictions != 0 || st.Bytes != bound {
		t.Fatalf("stats before the bound: %+v", st)
	}
	serves(t, s, 0) // read since written
	putAll(t, s, 16, 17)
	if s.Has(key(1)) {
		t.Fatal("unread entry of the dropped segment survived")
	}
	if !s.Has(key(0)) {
		t.Fatal("read entry dropped with its segment")
	}
	if _, err := os.Stat(s.segPath(1)); !os.IsNotExist(err) {
		t.Fatal("dropped segment left on disk")
	}
	if st := s.Stats(); st.Evictions != 1 || st.Bytes > bound || st.Entries != 16 {
		t.Fatalf("stats %+v (bound %d)", st, bound)
	}
	if path, _, _ := where(t, s, key(0)); path != s.segPath(9) {
		t.Fatalf("read entry lives in %s, want the newest segment", path)
	}
	// The copy is byte-identical (read through a second store, so that s
	// still sees it unread).
	serves(t, openT(t, s.Dir(), Options{NoSync: true}), 0, 2, 16)

	// The re-appended copy starts unread, so it gets no third chance.
	for i := 17; i < 40; i++ {
		putAll(t, s, i, i+1)
	}
	if s.Has(key(0)) {
		t.Fatal("re-appended entry never dropped")
	}
	if st := s.Stats(); st.Bytes > bound {
		t.Fatalf("stats %+v (bound %d)", st, bound)
	}
}

// TestEvictionQuarantinesCorruptHotEntry damages a read entry before its
// segment is dropped: the re-append verifies it, so the damage is counted
// and quarantined instead of being copied forward.
func TestEvictionQuarantinesCorruptHotEntry(t *testing.T) {
	s := openT(t, t.TempDir(), Options{MaxBytes: 16 * rec100, NoSync: true})
	putAll(t, s, 0, 16)
	serves(t, s, 0, 1)
	path, _, payload := where(t, s, key(1))
	flipByte(t, path, payload)
	putAll(t, s, 16, 17)
	if !s.Has(key(0)) || s.Has(key(1)) {
		t.Fatalf("after the drop: key(0) kept %v, key(1) kept %v; want true, false", s.Has(key(0)), s.Has(key(1)))
	}
	if st := s.Stats(); st.Corruptions != 1 || st.Evictions != 0 || s.QuarantineCount() != 1 {
		t.Fatalf("stats %+v, %d quarantined", st, s.QuarantineCount())
	}
}

// TestImportPerFileLayout opens a directory written in the per-file layout:
// each good file becomes a record and is removed, a damaged file and a
// stray temp file are moved to quarantine, and the fanout subdirectories
// go away.
func TestImportPerFileLayout(t *testing.T) {
	dir := t.TempDir()
	legacyPut := func(k string, payload []byte, mod time.Time) string {
		sub := filepath.Join(dir, k[len(k)-2:])
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(payload)
		data := append(append([]byte(nil), payload...), sum[:]...)
		data = binary.LittleEndian.AppendUint64(data, uint64(len(payload)))
		data = append(data, legacyMagic...)
		path := filepath.Join(sub, k)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, mod, mod); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 5; i++ {
		legacyPut(key(i), val100(i), base.Add(time.Duration(5-i)*time.Minute))
	}
	bad := legacyPut(key(5), val100(5), base)
	flipByte(t, bad, 3)
	tmp := filepath.Join(filepath.Dir(bad), legacyTmpPrefix+"123")
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := openT(t, dir, Options{NoSync: true})
	if st := s.Stats(); st.Entries != 5 || st.Corruptions != 1 {
		t.Fatalf("stats after import: %+v", st)
	}
	if s.QuarantineCount() != 2 {
		t.Fatalf("quarantine holds %d files, want 2", s.QuarantineCount())
	}
	serves(t, s, 0, 1, 2, 3, 4)
	// Oldest access first: key(4) was touched longest ago.
	if _, off, _ := where(t, s, key(4)); off != 0 {
		t.Fatalf("oldest entry imported at offset %d, want 0", off)
	}
	left, _ := filepath.Glob(filepath.Join(dir, "??"))
	if len(left) != 0 {
		t.Fatalf("fanout directories left after import: %v", left)
	}

	s2 := openT(t, dir, Options{NoSync: true})
	if st := s2.Stats(); st.Entries != 5 || st.Corruptions != 0 || s2.QuarantineCount() != 2 {
		t.Fatalf("reopened after import: %+v, %d quarantined", st, s2.QuarantineCount())
	}
	serves(t, s2, 0, 1, 2, 3, 4)
}

// TestSegmentCreationSyncsDirectory counts directory syncs: one per segment
// created, none under NoSync.
func TestSegmentCreationSyncsDirectory(t *testing.T) {
	orig := syncDir
	defer func() { syncDir = orig }()
	syncs := 0
	syncDir = func(dir string) error {
		syncs++
		return orig(dir)
	}
	bounded := Options{MaxBytes: threePerSegment.MaxBytes}
	s := openT(t, t.TempDir(), bounded)
	if syncs != 0 {
		t.Fatalf("Open synced the directory %d times, want 0", syncs)
	}
	putAll(t, s, 0, 7) // three segments
	if syncs != 3 {
		t.Fatalf("%d directory syncs for 3 segments", syncs)
	}
	syncs = 0
	s2 := openT(t, t.TempDir(), threePerSegment)
	putAll(t, s2, 0, 7)
	if syncs != 0 {
		t.Fatalf("NoSync store synced the directory %d times", syncs)
	}
}

// TestConcurrentPutsIndexOnce races Puts and Gets of the same keys: each
// key is written and counted once.
func TestConcurrentPutsIndexOnce(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{NoSync: true})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if err := s.Put(key(i), val100(i)); err != nil {
					t.Error(err)
				}
				if got, ok := s.Get(key(i)); !ok || !bytes.Equal(got, val100(i)) {
					t.Errorf("Get(key(%d)) = %q, %v", i, got, ok)
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Puts != 30 || st.Entries != 30 || st.Bytes != 30*rec100 {
		t.Fatalf("stats: %+v", st)
	}
	s2 := openT(t, dir, Options{NoSync: true})
	if st := s2.Stats(); st.Entries != 30 || st.Corruptions != 0 {
		t.Fatalf("reopened stats: %+v", st)
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	s, err := Open(t.TempDir(), Options{MaxBytes: 128, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(40), make([]byte, 4096)); err == nil {
		t.Fatal("oversized Put succeeded")
	}
	if st := s.Stats(); st.Oversized != 1 || st.Entries != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestEvictTo(t *testing.T) {
	s, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(key(50+i), bytes.Repeat([]byte("x"), 100)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats().Bytes
	target := before / 2
	evicted, freed := s.EvictTo(target)
	if evicted == 0 || freed == 0 {
		t.Fatalf("EvictTo removed nothing (evicted=%d freed=%d)", evicted, freed)
	}
	if st := s.Stats(); st.Bytes > target {
		t.Fatalf("bytes %d still above target %d", st.Bytes, target)
	}
}

func TestVerifyAll(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, threePerSegment)
	putAll(t, s, 60, 65)
	if bad := s.VerifyAll(false); len(bad) != 0 {
		t.Fatalf("clean shard failed verify: %v", bad)
	}
	// Corrupt one payload in place, in a sealed segment whose headers Open
	// checks, so only the hash pass can catch it.
	victim := key(61)
	path, _, payload := where(t, s, victim)
	flipByte(t, path, payload)
	bad := s.VerifyAll(true)
	if len(bad) != 1 || bad[0] != victim {
		t.Fatalf("verify found %v, want [%s]", bad, victim)
	}
	if s.Has(victim) {
		t.Fatal("corrupt entry still indexed after quarantining verify")
	}
	if s.QuarantineCount() != 1 {
		t.Fatalf("quarantine holds %d files, want 1", s.QuarantineCount())
	}
	// The quarantine copy keeps the record out of later Opens.
	s2 := openT(t, dir, threePerSegment)
	if bad := s2.VerifyAll(false); len(bad) != 0 || s2.Has(victim) || s2.Len() != 4 {
		t.Fatalf("reopened verify found %v (%d entries)", bad, s2.Len())
	}
}

func TestIndexSortedWithSizes(t *testing.T) {
	s, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int64{}
	for i := 0; i < 6; i++ {
		k := key(70 + i)
		v := bytes.Repeat([]byte("y"), 10+i)
		sizes[k] = int64(len(v))
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	idx := s.Index()
	if len(idx) != 6 {
		t.Fatalf("index has %d entries, want 6", len(idx))
	}
	for i, info := range idx {
		if i > 0 && idx[i-1].Key >= info.Key {
			t.Fatal("index not sorted by key")
		}
		if sizes[info.Key] != info.Size {
			t.Fatalf("index size for %s = %d, want %d", info.Key, info.Size, sizes[info.Key])
		}
		if info.ModTime.IsZero() || time.Since(info.ModTime) > time.Hour {
			t.Fatalf("index mtime for %s = %v", info.Key, info.ModTime)
		}
	}
}
