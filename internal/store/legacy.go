package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// The earlier layout kept one file per result under a fanout subdirectory
// named by the key's last two characters: payload || sha256(payload) ||
// uint64-LE payload length || legacyMagic, written to a legacyTmpPrefix
// temp file and renamed into place.
const (
	legacyMagic     = "WRSTORE1"
	legacyFooter    = sha256.Size + 8 + len(legacyMagic)
	legacyTmpPrefix = ".tmp-"
)

// importLegacy moves the per-file layout's results into the segments, oldest
// access first so the log keeps their eviction order. Each file is checked
// (footer and hash), appended, and only then removed; files that fail, and
// stray temp files, are moved to the quarantine directory as before. A file
// whose append fails stays in place for the next Open.
func (s *Store) importLegacy(subdirs []string) {
	type legacyFile struct {
		key, path string
		mod       time.Time
	}
	var found []legacyFile
	for _, sub := range subdirs {
		files, err := os.ReadDir(filepath.Join(s.dir, sub))
		if err != nil {
			continue
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			name := f.Name()
			path := filepath.Join(s.dir, sub, name)
			if strings.HasPrefix(name, legacyTmpPrefix) || !ValidKey(name) || name[len(name)-2:] != sub {
				// A torn write (crash between create and rename) or a file
				// that was never ours: quarantine rather than trust or delete.
				s.moveToQuarantine(path)
				continue
			}
			if info, err := f.Info(); err == nil {
				found = append(found, legacyFile{key: name, path: path, mod: info.ModTime()})
			}
		}
	}
	sort.Slice(found, func(a, b int) bool {
		if !found[a].mod.Equal(found[b].mod) {
			return found[a].mod.Before(found[b].mod)
		}
		return found[a].key < found[b].key
	})
	for _, f := range found {
		payload, ok := readLegacy(f.path)
		if !ok {
			s.corruptions++
			s.moveToQuarantine(f.path)
			continue
		}
		if s.Put(f.key, payload) == nil {
			_ = os.Remove(f.path)
		}
	}
	for _, sub := range subdirs {
		_ = os.Remove(filepath.Join(s.dir, sub)) // only succeeds once empty
	}
}

// readLegacy reads a per-file result and checks its footer and hash.
func readLegacy(path string) ([]byte, bool) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) < legacyFooter {
		return nil, false
	}
	payload, foot := data[:len(data)-legacyFooter], data[len(data)-legacyFooter:]
	sum := sha256.Sum256(payload)
	ok := string(foot[sha256.Size+8:]) == legacyMagic &&
		binary.LittleEndian.Uint64(foot[sha256.Size:]) == uint64(len(payload)) &&
		bytes.Equal(sum[:], foot[:sha256.Size])
	return payload, ok
}
