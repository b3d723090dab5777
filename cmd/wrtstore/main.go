// Command wrtstore inspects and maintains a wrtserved durable result store
// (-store-dir) offline — the operator's view of the shard a daemon serves.
//
//	wrtstore ls     -dir /var/lib/wrtring/store           # keys, sizes, segment write times
//	wrtstore stat   -dir /var/lib/wrtring/store           # entry/byte/quarantine totals
//	wrtstore verify -dir /var/lib/wrtring/store           # full-shard checksum fsck
//	wrtstore gc     -dir /var/lib/wrtring/store -max-bytes 1073741824
//
// A store is a few append-only segment files (seg-<n>) of framed records.
// verify re-reads every indexed record and checks its header, key and
// payload SHA-256; with -quarantine the corrupt records are copied to the
// quarantine directory and kept out of later indexes, exactly as the daemon
// does on read. It exits 1 when corruption is found, so it works as a cron
// health check. gc drops whole segments, oldest first, the same policy the
// daemon applies for -store-max-bytes, but on demand; ls -by-age lists the
// entries in that order.
//
// Opening a store never writes a segment (a torn tail is left for the
// daemon's next write to cut), so ls, stat and verify without -quarantine
// are safe against a live daemon's directory; gc and -quarantine change what
// the daemon may be serving.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/rtnet/wrtring/internal/store"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: wrtstore <command> -dir <store-dir> [flags]

commands:
  ls       list stored results (key, payload bytes, segment write time)
  stat     shard totals: entries, bytes, quarantined files
  verify   checksum every entry; exit 1 on corruption (-quarantine to set bad records aside)
  gc       drop segments, oldest first, down to -max-bytes

`)
	os.Exit(2)
}

func openStore(fs *flag.FlagSet, dir string) *store.Store {
	if dir == "" {
		fmt.Fprintf(os.Stderr, "wrtstore %s: -dir is required\n", fs.Name())
		os.Exit(2)
	}
	if _, err := os.Stat(dir); err != nil {
		// Open would create the directory; an inspection tool should not.
		fmt.Fprintf(os.Stderr, "wrtstore %s: %v\n", fs.Name(), err)
		os.Exit(1)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wrtstore %s: opening %s: %v\n", fs.Name(), dir, err)
		os.Exit(1)
	}
	return st
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "ls":
		fs := flag.NewFlagSet("ls", flag.ExitOnError)
		dir := fs.String("dir", "", "store directory")
		byAge := fs.Bool("by-age", false, "list in eviction order (oldest segment first) instead of by key")
		fs.Parse(args)
		st := openStore(fs, *dir)
		idx := st.Index()
		if *byAge {
			sort.Slice(idx, func(a, b int) bool {
				if idx[a].Segment != idx[b].Segment {
					return idx[a].Segment < idx[b].Segment
				}
				return idx[a].Offset < idx[b].Offset
			})
		}
		for _, k := range idx {
			fmt.Printf("%s\t%d\t%s\n", k.Key, k.Size, k.ModTime.Format("2006-01-02T15:04:05Z07:00"))
		}

	case "stat":
		fs := flag.NewFlagSet("stat", flag.ExitOnError)
		dir := fs.String("dir", "", "store directory")
		fs.Parse(args)
		st := openStore(fs, *dir)
		s := st.Stats()
		fmt.Printf("dir:         %s\n", st.Dir())
		fmt.Printf("entries:     %d\n", s.Entries)
		fmt.Printf("bytes:       %d\n", s.Bytes)
		fmt.Printf("quarantined: %d\n", st.QuarantineCount())

	case "verify":
		fs := flag.NewFlagSet("verify", flag.ExitOnError)
		dir := fs.String("dir", "", "store directory")
		quarantine := fs.Bool("quarantine", false, "copy corrupt records to the quarantine directory and stop serving them")
		fs.Parse(args)
		st := openStore(fs, *dir)
		// Open itself quarantines records whose headers fail, and anything
		// damaged in the active segment; VerifyAll re-reads the survivors
		// and checks each payload hash — the full fsck.
		preQuarantined := st.QuarantineCount()
		total := st.Len()
		bad := st.VerifyAll(*quarantine)
		fmt.Printf("verified %d entries (%d bytes)\n", total, st.Stats().Bytes)
		if preQuarantined > 0 {
			fmt.Printf("%d previously quarantined files in %s\n", preQuarantined, st.Dir())
		}
		if len(bad) > 0 {
			for _, key := range bad {
				fmt.Fprintf(os.Stderr, "corrupt: %s\n", key)
			}
			action := "left in place (re-run with -quarantine to set them aside)"
			if *quarantine {
				action = "quarantined"
			}
			fmt.Fprintf(os.Stderr, "wrtstore verify: %d corrupt entries %s\n", len(bad), action)
			os.Exit(1)
		}
		fmt.Println("ok")

	case "gc":
		fs := flag.NewFlagSet("gc", flag.ExitOnError)
		dir := fs.String("dir", "", "store directory")
		maxBytes := fs.Int64("max-bytes", 0, "drop segments, oldest first, until the shard fits this many bytes")
		fs.Parse(args)
		if *maxBytes <= 0 {
			fmt.Fprintln(os.Stderr, "wrtstore gc: -max-bytes must be > 0")
			os.Exit(2)
		}
		st := openStore(fs, *dir)
		evicted, freed := st.EvictTo(*maxBytes)
		after := st.Stats()
		fmt.Printf("evicted %d entries (%d bytes); %d entries (%d bytes) remain\n",
			evicted, freed, after.Entries, after.Bytes)

	default:
		fmt.Fprintf(os.Stderr, "wrtstore: unknown command %q\n\n", cmd)
		usage()
	}
}
