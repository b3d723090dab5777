// Package store is a durable content-addressed result store. Results live in
// a few append-only segment files per store directory, and an in-memory index
// maps each key (serve.Key, the scenario content address) to its record's
// segment, offset and length: the log-structured hash table of Bitcask
// (Sheehy & Smith, Basho, 2010). Determinism makes every stored result an
// immutable truth, so the store never invalidates. It only bounds disk usage,
// by dropping whole segments, oldest first.
//
// A record is, little-endian:
//
//	"\xf7WRS" | uint32 key length | uint32 payload length |
//	uint32 CRC-32C of the 12 bytes before it and of the key |
//	key | payload | SHA-256(payload)
//
// Segments are files named seg-<n>; the highest-numbered one is active and
// takes the appends. Durability contract:
//
//   - A Put is one write of one framed record at the active segment's end,
//     fsynced unless NoSync. Its index entry is published only after the
//     write returns, so no reader sees a half-written record.
//   - The header carries its own checksum, so a damaged payload costs one
//     record, never the records after it; a damaged header costs the bytes
//     up to the next record whose header checks.
//   - Open scans the segments in order. Sealed segments get header checks
//     only; the active segment is verified in full. Damaged records are
//     copied to the quarantine subdirectory and counted. The torn tail a
//     crash leaves after the active segment's last valid record is cut by
//     the next Put, not by Open: Open never writes a segment.
//   - Reads re-verify the SHA-256, so silent disk corruption surfaces as a
//     quarantined record and a cache miss (the result is recomputed
//     deterministically), never as wrong bytes.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	recMagic   = "\xf7WRS"
	headerSize = 16
	sumSize    = sha256.Size
	// segmentBytes is the size at which the active segment rolls. With a
	// MaxBytes bound it rolls at MaxBytes/segmentsPerBound instead, if that
	// is smaller, so one eviction frees about that share of the bound.
	segmentBytes     = 64 << 20
	segmentsPerBound = 8
	segPrefix        = "seg-"
	// quarantineDir collects the bytes of records that failed validation.
	quarantineDir = "quarantine"
	// scanBuffer bounds the read buffer of Open's sequential scan.
	scanBuffer = 256 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrInvalidKey rejects keys that could escape the store directory or
// collide with the store's own bookkeeping names.
var ErrInvalidKey = errors.New("store: invalid key")

// ValidKey reports whether key is safe as a file name in the store: ASCII
// letters, digits, '-', '_' and '.', not starting with a dot, 4 to 255
// bytes. Scenario content addresses ("v1-<64 hex>") satisfy it.
func ValidKey(key string) bool {
	if len(key) < 4 || len(key) > 255 || key[0] == '.' {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// writeAt appends one record to the active segment. A variable so the
// crash-safety tests can inject a short write: the torn tail a crash
// mid-append leaves behind.
var writeAt = (*os.File).WriteAt

// syncDir makes a newly created segment's directory entry durable. A
// variable so the tests can count the syncs.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Options sizes a Store.
type Options struct {
	// MaxBytes bounds the segment files' total size; exceeding it drops
	// whole segments, oldest first (<= 0: unbounded).
	MaxBytes int64
	// NoSync skips fsync on writes and segment creation. A crash of the
	// process still loses nothing a Put returned; a power loss may lose the
	// most recent results (they recompute deterministically). Tests use it
	// for speed.
	NoSync bool
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Entries int
	// Bytes is the segment files' total size, the quantity MaxBytes bounds.
	Bytes int64
	// Hits / Misses count Get lookups.
	Hits, Misses int64
	// Puts counts new entries written; PutErrors counts failed writes
	// (the entry is simply not durable; the RAM cache still serves it).
	Puts, PutErrors int64
	// Oversized counts payloads rejected because they alone exceed MaxBytes.
	Oversized int64
	// Evictions counts entries dropped with their segment by the byte bound.
	Evictions int64
	// Corruptions counts records that failed validation at Open, Get or
	// VerifyAll; the bytes of every one are copied to the quarantine
	// directory.
	Corruptions int64
}

// KeyInfo describes one stored entry.
type KeyInfo struct {
	Key string
	// Size is the payload size in bytes (framing excluded).
	Size int64
	// ModTime is the last write to the entry's segment.
	ModTime time.Time
	// Segment and Offset locate the record. Eviction drops segments in
	// ascending order, so (Segment, Offset) order is eviction order.
	Segment uint64
	Offset  int64
}

// segment is one seg-<n> file.
type segment struct {
	n    uint64
	f    *os.File // read handle, open for the segment's lifetime
	size int64    // bytes in use; the active segment's valid end (wmu)
	keys []string // keys appended here, in order: the eviction walk (wmu)
}

// loc is an index entry: where a key's record lives.
type loc struct {
	seg  *segment
	off  int64 // record start
	plen int64 // payload length
	ref  bool  // read since written: re-appended when its segment is dropped
}

func recordSize(key string, plen int64) int64 {
	return headerSize + int64(len(key)) + plen + sumSize
}

// payloadOff is the file offset of the record's payload.
func (l loc) payloadOff(key string) int64 { return l.off + headerSize + int64(len(key)) }

// Store is a thread-safe durable result store rooted at one directory.
type Store struct {
	dir  string
	opts Options
	roll int64 // the active segment rolls before it would pass this size

	// wmu serialises appends, rolls and evictions; it is taken before mu.
	wmu     sync.Mutex
	active  *segment // takes the appends; nil: the next append creates one
	w       *os.File // active's write handle; nil until its first append
	torn    bool     // bytes past active's valid end may exist: cut them first
	buf     []byte   // record buffer, reused under wmu
	nextSeg uint64
	closed  bool

	mu    sync.Mutex
	segs  []*segment // oldest first
	index map[string]loc
	bytes int64

	hits, misses, puts, putErrors int64
	oversized, evictions          int64
	corruptions                   int64
}

// Open creates (if needed) and indexes a store directory. It scans every
// segment sequentially: sealed segments by their record headers, the active
// one in full. Damaged spans are copied to the quarantine subdirectory and
// counted; the active segment's torn tail is left for the first Put to cut,
// so Open never writes a segment and is safe on a live daemon's directory.
// A directory in the earlier one-file-per-result layout is imported once:
// each file's footer and hash are checked, its entry appended, and the file
// removed.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", dir, err)
	}
	s := &Store{
		dir:     dir,
		opts:    opts,
		roll:    segmentBytes,
		index:   make(map[string]loc),
		nextSeg: 1,
	}
	if b := opts.MaxBytes / segmentsPerBound; opts.MaxBytes > 0 && b < s.roll {
		s.roll = max(b, 1)
	}
	var nums []uint64
	var legacy []string
	var quarantined map[qname]bool
	for _, e := range names {
		switch name := e.Name(); {
		case e.IsDir() && name == quarantineDir:
			quarantined = s.readQuarantine()
		case e.IsDir():
			legacy = append(legacy, name)
		default:
			if n, ok := parseSegName(name); ok {
				nums = append(nums, n)
			}
		}
	}
	sort.Slice(nums, func(a, b int) bool { return nums[a] < nums[b] })
	for i, n := range nums {
		if err := s.scan(n, i == len(nums)-1, quarantined); err != nil {
			s.Close()
			return nil, err
		}
	}
	if len(s.segs) > 0 {
		s.active = s.segs[len(s.segs)-1]
		s.torn = true
		s.nextSeg = max(s.nextSeg, s.active.n+1)
	}
	if len(legacy) > 0 {
		s.importLegacy(legacy)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func segName(n uint64) string { return fmt.Sprintf("%s%06d", segPrefix, n) }

func parseSegName(name string) (uint64, bool) {
	digits, ok := strings.CutPrefix(name, segPrefix)
	if !ok || digits == "" || digits[0] == '+' {
		return 0, false
	}
	n, err := strconv.ParseUint(digits, 10, 64)
	return n, err == nil && n > 0
}

func (s *Store) segPath(n uint64) string { return filepath.Join(s.dir, segName(n)) }

// qname names a quarantined span: "<segment name>.<offset>".
type qname struct {
	seg uint64
	off int64
}

func (q qname) String() string { return segName(q.seg) + "." + strconv.FormatInt(q.off, 10) }

// readQuarantine lists the spans already quarantined. They stay out of the
// index and are not counted again, and no new segment reuses their numbers.
func (s *Store) readQuarantine() map[qname]bool {
	files, _ := os.ReadDir(filepath.Join(s.dir, quarantineDir))
	q := make(map[qname]bool)
	for _, f := range files {
		name := f.Name()
		i := strings.LastIndexByte(name, '.')
		if i < 0 {
			continue
		}
		n, ok := parseSegName(name[:i])
		off, err := strconv.ParseInt(name[i+1:], 10, 64)
		if !ok || err != nil {
			continue
		}
		q[qname{n, off}] = true
		s.nextSeg = max(s.nextSeg, n+1)
	}
	return q
}

// span is a damaged byte range [start, end) of a segment.
type span struct{ start, end int64 }

// scan indexes one segment. Every record's header is checked; with active
// set each payload's hash is verified too. A record whose header fails is
// skipped by searching for the next magic, so damage costs only its span.
func (s *Store) scan(n uint64, active bool, quarantined map[qname]bool) error {
	f, err := os.Open(s.segPath(n))
	if err != nil {
		return fmt.Errorf("store: opening %s: %w", segName(n), err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %s: %w", segName(n), err)
	}
	size := info.Size()
	seg := &segment{n: n, f: f}
	r := &scanner{br: bufio.NewReaderSize(f, int(min(max(size, 4096), scanBuffer))), size: size}
	var spans []span
	bad := int64(-1) // start of the damaged span being crossed
	var end int64    // end of the last valid record
	for r.pos < size {
		off := r.pos
		key, plen, st := r.record(active)
		if st == recBadHeader {
			if bad < 0 {
				bad = off
			}
			r.resync()
			continue
		}
		if bad >= 0 {
			spans = append(spans, span{bad, off})
			bad = -1
		}
		next := off + recordSize(key, plen)
		if st == recBadPayload {
			spans = append(spans, span{off, next})
			continue
		}
		end = next
		if !quarantined[qname{n, off}] {
			s.index[key] = loc{seg: seg, off: off, plen: plen}
			seg.keys = append(seg.keys, key)
		}
	}
	if bad >= 0 {
		spans = append(spans, span{bad, size})
	}
	seg.size = size
	if active {
		// The bytes after the last valid record are the torn tail of an
		// interrupted append: not a corruption, and cut by the next Put.
		seg.size = end
		for len(spans) > 0 && spans[len(spans)-1].start >= end {
			spans = spans[:len(spans)-1]
		}
	}
	for _, sp := range spans {
		if q := (qname{n, sp.start}); !quarantined[q] {
			s.corruptions++
			s.quarantine(q, io.NewSectionReader(f, sp.start, sp.end-sp.start))
		}
	}
	s.segs = append(s.segs, seg)
	s.bytes += seg.size
	return nil
}

const (
	recOK = iota
	recBadPayload
	recBadHeader
)

// scanner reads a segment front to back.
type scanner struct {
	br   *bufio.Reader
	pos  int64 // file offset of br's next byte
	size int64
}

func (r *scanner) discard(n int64) {
	for n > 0 {
		d, err := r.br.Discard(int(min(n, math.MaxInt32)))
		r.pos += int64(d)
		n -= int64(d)
		if err != nil {
			r.pos = r.size // the file shrank under us: nothing more to read
			return
		}
	}
}

// record reads the record at pos and advances past it, unless its header
// fails, in which case pos stays put for resync. With full set the payload
// hash is verified as well.
func (r *scanner) record(full bool) (key string, plen int64, status int) {
	hdr, _ := r.br.Peek(headerSize)
	if len(hdr) < headerSize || string(hdr[:4]) != recMagic {
		return "", 0, recBadHeader
	}
	klen := int(binary.LittleEndian.Uint32(hdr[4:]))
	plen = int64(binary.LittleEndian.Uint32(hdr[8:]))
	if klen < 4 || klen > 255 {
		return "", 0, recBadHeader
	}
	b, _ := r.br.Peek(headerSize + klen)
	if len(b) < headerSize+klen {
		return "", 0, recBadHeader
	}
	crc := crc32.Update(crc32.Checksum(b[:12], castagnoli), castagnoli, b[headerSize:])
	if crc != binary.LittleEndian.Uint32(b[12:]) || !ValidKey(string(b[headerSize:])) {
		return "", 0, recBadHeader
	}
	key = string(b[headerSize:])
	if r.pos+recordSize(key, plen) > r.size {
		return "", 0, recBadHeader // cut short: the tail of an interrupted append
	}
	if !full {
		r.discard(recordSize(key, plen))
		return key, plen, recOK
	}
	r.discard(int64(headerSize + klen))
	var sum [sumSize]byte
	if body, _ := r.br.Peek(int(plen) + sumSize); int64(len(body)) == plen+sumSize {
		sum = sha256.Sum256(body[:plen])
		ok := bytes.Equal(sum[:], body[plen:])
		r.discard(plen + sumSize)
		if !ok {
			return key, plen, recBadPayload
		}
		return key, plen, recOK
	}
	// A payload larger than the buffer: hash it in chunks.
	h := sha256.New()
	for left := plen; left > 0; {
		chunk, _ := r.br.Peek(int(min(left, int64(r.br.Size()))))
		if len(chunk) == 0 { // the file shrank under us
			return key, plen, recBadPayload
		}
		h.Write(chunk)
		r.discard(int64(len(chunk)))
		left -= int64(len(chunk))
	}
	tail, _ := r.br.Peek(sumSize)
	ok := bytes.Equal(h.Sum(sum[:0]), tail)
	r.discard(sumSize)
	if !ok {
		return key, plen, recBadPayload
	}
	return key, plen, recOK
}

// resync advances past a failed header to the next occurrence of the record
// magic, or to the end of the segment.
func (r *scanner) resync() {
	r.discard(1)
	for r.pos < r.size {
		b, err := r.br.Peek(r.br.Size())
		if i := bytes.Index(b, []byte(recMagic)); i >= 0 {
			r.discard(int64(i))
			return
		}
		if err != nil { // end of file: no further record
			r.discard(int64(len(b)))
			return
		}
		r.discard(int64(len(b) - len(recMagic) + 1))
	}
}

// quarantine copies a damaged span to the quarantine directory under its
// (segment, offset) name; an existing copy is kept. Failures are swallowed:
// quarantining is best-effort preservation of evidence, never a reason to
// fail an Open or a Get.
func (s *Store) quarantine(q qname, src io.Reader) {
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	f, err := os.OpenFile(filepath.Join(qdir, q.String()), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return
	}
	_, _ = io.Copy(f, src)
	_ = f.Close()
}

// quarantineRecord copies key's record out of its segment.
func (s *Store) quarantineRecord(key string, l loc) {
	s.quarantine(qname{l.seg.n, l.off}, io.NewSectionReader(l.seg.f, l.off, recordSize(key, l.plen)))
}

// moveToQuarantine moves a file of the per-file layout aside.
func (s *Store) moveToQuarantine(path string) {
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	base := filepath.Base(path)
	dst := filepath.Join(qdir, base)
	for i := 1; ; i++ {
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", base, i))
	}
	_ = os.Rename(path, dst)
}

// Put durably stores val under key. Re-putting an existing key only marks it
// as accessed: by determinism the bytes can never differ. The record is one
// write at the active segment's end; on any error the entry is simply not
// durable and the error is returned (callers treat durability as
// best-effort: the result is still served from RAM and recomputable).
func (s *Store) Put(key string, val []byte) error {
	if !ValidKey(key) {
		return ErrInvalidKey
	}
	size := recordSize(key, int64(len(val)))
	s.mu.Lock()
	if l, ok := s.index[key]; ok {
		if !l.ref {
			l.ref = true
			s.index[key] = l
		}
		s.mu.Unlock()
		return nil
	}
	if s.opts.MaxBytes > 0 && size > s.opts.MaxBytes || int64(len(val)) > math.MaxUint32 {
		s.oversized++
		s.mu.Unlock()
		return fmt.Errorf("store: %d-byte payload exceeds the %d-byte store bound", len(val), s.opts.MaxBytes)
	}
	s.mu.Unlock()

	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	_, ok := s.index[key] // a racing Put of the same key appended it first
	s.mu.Unlock()
	if ok {
		return nil
	}
	l, err := s.append(key, val)
	s.mu.Lock()
	if err != nil {
		s.putErrors++
	} else {
		s.index[key] = l
		s.bytes += size
		s.puts++
	}
	over := s.opts.MaxBytes > 0 && s.bytes > s.opts.MaxBytes
	s.mu.Unlock()
	if over {
		s.evict(s.opts.MaxBytes)
	}
	return err
}

// append writes one record at the active segment's end, rolling to a new
// segment first when it would pass the roll size. It returns the record's
// location for the caller to publish. Callers hold wmu.
func (s *Store) append(key string, val []byte) (loc, error) {
	if s.closed {
		return loc{}, errors.New("store: closed")
	}
	size := recordSize(key, int64(len(val)))
	if s.active != nil {
		if err := s.cut(); err != nil {
			return loc{}, err
		}
		if s.active.size > 0 && s.active.size+size > s.roll {
			s.seal()
		}
	}
	if s.active == nil {
		if err := s.create(); err != nil {
			return loc{}, err
		}
	}
	seg := s.active
	rec := s.encode(key, val)
	if _, err := writeAt(s.w, rec, seg.size); err != nil {
		s.torn = true
		return loc{}, fmt.Errorf("store: writing %s: %w", key, err)
	}
	if !s.opts.NoSync {
		if err := s.w.Sync(); err != nil {
			s.torn = true
			return loc{}, fmt.Errorf("store: syncing %s: %w", key, err)
		}
	}
	l := loc{seg: seg, off: seg.size, plen: int64(len(val))}
	seg.size += size
	seg.keys = append(seg.keys, key)
	return l, nil
}

// encode frames key and val as one record in the reused buffer.
func (s *Store) encode(key string, val []byte) []byte {
	b := append(s.buf[:0], recMagic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(val)))
	b = append(b, 0, 0, 0, 0) // the CRC, filled in below
	b = append(b, key...)
	crc := crc32.Update(crc32.Checksum(b[:12], castagnoli), castagnoli, b[headerSize:])
	binary.LittleEndian.PutUint32(b[12:], crc)
	b = append(b, val...)
	sum := sha256.Sum256(val)
	b = append(b, sum[:]...)
	s.buf = b
	return b
}

// cut opens the active segment for writing if needed and truncates any torn
// tail past its valid end. Callers hold wmu.
func (s *Store) cut() error {
	if s.w == nil {
		f, err := os.OpenFile(s.segPath(s.active.n), os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("store: opening %s for append: %w", segName(s.active.n), err)
		}
		s.w = f
	}
	if s.torn {
		if err := s.w.Truncate(s.active.size); err != nil {
			return fmt.Errorf("store: cutting the torn tail of %s: %w", segName(s.active.n), err)
		}
		s.torn = false
	}
	return nil
}

// seal ends appends to the active segment; the next append creates a new
// one. A torn tail is cut first, so a sealed segment holds only records.
// Callers hold wmu.
func (s *Store) seal() {
	if s.torn {
		_ = s.cut() // on failure Open counts the tail as damage
	}
	if s.w != nil && s.w != s.active.f {
		s.w.Close()
	}
	s.w, s.active, s.torn = nil, nil, false
}

// create starts a new active segment and, unless NoSync, syncs the
// directory so the segment's name survives a power loss. Callers hold wmu.
func (s *Store) create() error {
	path := s.segPath(s.nextSeg)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating segment: %w", err)
	}
	if !s.opts.NoSync {
		if err := syncDir(s.dir); err != nil {
			f.Close()
			os.Remove(path)
			return fmt.Errorf("store: syncing %s: %w", s.dir, err)
		}
	}
	seg := &segment{n: s.nextSeg, f: f}
	s.nextSeg++
	s.active, s.w, s.torn = seg, f, false
	s.mu.Lock()
	s.segs = append(s.segs, seg)
	s.mu.Unlock()
	return nil
}

// errGone marks a record whose segment was dropped while it was being read.
var errGone = errors.New("store: segment dropped")

// errCorrupt marks a record that failed verification.
var errCorrupt = errors.New("store: corrupt record")

// read returns key's payload, verifying its SHA-256.
func (s *Store) read(key string, l loc) ([]byte, error) {
	buf := make([]byte, l.plen+sumSize)
	if _, err := l.seg.f.ReadAt(buf, l.payloadOff(key)); err != nil {
		if errors.Is(err, os.ErrClosed) {
			return nil, errGone
		}
		return nil, errCorrupt
	}
	sum := sha256.Sum256(buf[:l.plen])
	if !bytes.Equal(sum[:], buf[l.plen:]) {
		return nil, errCorrupt
	}
	return buf[:l.plen:l.plen], nil
}

// Get returns the stored payload for key, verifying its checksum. A record
// that fails verification is dropped from the index, counted, copied to the
// quarantine directory, and reported as a miss: the caller recomputes the
// result deterministically. A hit marks the entry as read, so it survives
// the eviction of its segment.
func (s *Store) Get(key string) ([]byte, bool) {
	for {
		s.mu.Lock()
		l, ok := s.index[key]
		if !ok {
			s.misses++
			s.mu.Unlock()
			return nil, false
		}
		if !l.ref {
			l.ref = true
			s.index[key] = l
		}
		s.hits++
		s.mu.Unlock()

		val, err := s.read(key, l)
		if err == nil {
			return val, true
		}
		s.mu.Lock()
		s.hits--
		cur, ok := s.index[key]
		moved := ok && (cur.seg != l.seg || cur.off != l.off)
		dropped := ok && !moved
		if dropped {
			delete(s.index, key)
			if errors.Is(err, errCorrupt) {
				s.corruptions++
			}
		}
		if !moved {
			s.misses++
		}
		s.mu.Unlock()
		if moved {
			continue // an eviction re-appended it meanwhile: read the copy
		}
		if dropped && errors.Is(err, errCorrupt) {
			s.quarantineRecord(key, l)
		}
		return nil, false
	}
}

// Has reports whether key is indexed, without touching counters or recency.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// Index snapshots the stored entries sorted by key, with one stat per
// segment for ModTime.
func (s *Store) Index() []KeyInfo {
	s.mu.Lock()
	keys := make([]KeyInfo, 0, len(s.index))
	for k, l := range s.index {
		keys = append(keys, KeyInfo{Key: k, Size: l.plen, Segment: l.seg.n, Offset: l.off})
	}
	segs := append([]*segment(nil), s.segs...)
	s.mu.Unlock()
	mod := make(map[uint64]time.Time, len(segs))
	for _, seg := range segs {
		if info, err := seg.f.Stat(); err == nil {
			mod[seg.n] = info.ModTime()
		}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].Key < keys[b].Key })
	for i := range keys {
		keys[i].ModTime = mod[keys[i].Segment]
	}
	return keys
}

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries: len(s.index), Bytes: s.bytes,
		Hits: s.hits, Misses: s.misses,
		Puts: s.puts, PutErrors: s.putErrors, Oversized: s.oversized,
		Evictions: s.evictions, Corruptions: s.corruptions,
	}
}

// evict drops whole segments, oldest first, until the segment files total
// at most target bytes. Each entry read since its segment was written is
// re-appended first, so a hot entry survives (second chance); the copy
// starts unread. The active segment is sealed and dropped only when the
// sealed ones do not suffice. Callers hold wmu.
func (s *Store) evict(target int64) (evicted int, freed int64) {
	s.mu.Lock()
	before := s.bytes
	s.mu.Unlock()
	for {
		s.mu.Lock()
		var victim *segment
		if s.bytes > target && len(s.segs) > 0 {
			victim = s.segs[0]
		}
		s.mu.Unlock()
		if victim == nil {
			break
		}
		if victim == s.active {
			s.seal()
		}
		for _, key := range victim.keys {
			s.mu.Lock()
			l, ok := s.index[key]
			live := ok && l.seg == victim
			if live && !l.ref {
				delete(s.index, key)
				s.evictions++
				evicted++
			}
			s.mu.Unlock()
			if live && l.ref {
				evicted += s.reappend(key, l)
			}
		}
		s.mu.Lock()
		s.segs = s.segs[1:]
		s.bytes -= victim.size
		s.mu.Unlock()
		victim.f.Close()
		_ = os.Remove(s.segPath(victim.n))
	}
	s.mu.Lock()
	freed = before - s.bytes
	s.mu.Unlock()
	return evicted, freed
}

// reappend copies a hot entry out of a segment about to be dropped. It
// returns 1 if the entry was dropped instead. Callers hold wmu.
func (s *Store) reappend(key string, l loc) (evicted int) {
	val, err := s.read(key, l)
	var nl loc
	if err == nil {
		nl, err = s.append(key, val)
	}
	corrupt := errors.Is(err, errCorrupt)
	s.mu.Lock()
	if cur, ok := s.index[key]; !ok || cur.seg != l.seg || cur.off != l.off {
		s.mu.Unlock()
		return 0 // a Get dropped it meanwhile
	}
	switch {
	case err == nil:
		s.index[key] = nl
		s.bytes += recordSize(key, nl.plen)
	case corrupt:
		delete(s.index, key)
		s.corruptions++
	default:
		delete(s.index, key)
		s.evictions++
		evicted = 1
	}
	s.mu.Unlock()
	if corrupt {
		s.quarantineRecord(key, l)
	}
	return evicted
}

// EvictTo drops segments until the segment files total at most maxBytes
// (the wrtstore gc operation), with the same second chance for entries read
// since they were written. It returns the number of entries dropped and the
// bytes freed.
func (s *Store) EvictTo(maxBytes int64) (evicted int, freed int64) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.evict(maxBytes)
}

// verify reads key's whole record and checks its header, key and hash.
func (s *Store) verify(key string, l loc) error {
	rec := make([]byte, recordSize(key, l.plen))
	if _, err := l.seg.f.ReadAt(rec, l.off); err != nil {
		if errors.Is(err, os.ErrClosed) {
			return errGone
		}
		return errCorrupt
	}
	k := headerSize + len(key)
	crc := crc32.Update(crc32.Checksum(rec[:12], castagnoli), castagnoli, rec[headerSize:k])
	sum := sha256.Sum256(rec[k : k+int(l.plen)])
	if string(rec[:4]) != recMagic || crc != binary.LittleEndian.Uint32(rec[12:]) ||
		string(rec[headerSize:k]) != key || !bytes.Equal(sum[:], rec[k+int(l.plen):]) {
		return errCorrupt
	}
	return nil
}

// VerifyAll reads and checks every indexed record in full: the full-shard
// fsck behind `wrtstore verify`. It returns the keys that failed
// verification; when quarantineBad is true each one is also dropped from the
// index, counted, and copied to the quarantine directory, where it also
// keeps later Opens from indexing the record again.
func (s *Store) VerifyAll(quarantineBad bool) []string {
	var bad []string
	for _, info := range s.Index() {
		s.mu.Lock()
		l, ok := s.index[info.Key]
		s.mu.Unlock()
		if !ok || !errors.Is(s.verify(info.Key, l), errCorrupt) {
			continue
		}
		bad = append(bad, info.Key)
		if !quarantineBad {
			continue
		}
		s.mu.Lock()
		cur, ok := s.index[info.Key]
		dropped := ok && cur.seg == l.seg && cur.off == l.off
		if dropped {
			delete(s.index, info.Key)
			s.corruptions++
		}
		s.mu.Unlock()
		if dropped {
			s.quarantineRecord(info.Key, l)
		}
	}
	return bad
}

// QuarantineCount counts files currently in the quarantine directory.
func (s *Store) QuarantineCount() int {
	files, err := os.ReadDir(filepath.Join(s.dir, quarantineDir))
	if err != nil {
		return 0
	}
	n := 0
	for _, f := range files {
		if !f.IsDir() {
			n++
		}
	}
	return n
}

// Close releases the segment files. The store serves nothing afterwards.
func (s *Store) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	if s.w != nil && (s.active == nil || s.w != s.active.f) {
		errs = append(errs, s.w.Close())
	}
	for _, seg := range s.segs {
		errs = append(errs, seg.f.Close())
	}
	s.segs, s.index, s.active, s.w, s.closed = nil, map[string]loc{}, nil, nil, true
	return errors.Join(errs...)
}
