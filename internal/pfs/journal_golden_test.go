package pfs

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dosas/internal/wire"
)

var updateJournalGolden = flag.Bool("update", false, "rewrite testdata/journal.golden from the current encoder")

const journalGolden = "testdata/journal.golden"

// TestJournalEntryGolden pins the on-disk bytes of journal entries: each
// entry appendEntry writes must equal the one recorded in
// testdata/journal.golden, and replaying the recorded entries must give
// back the records they were made from.
func TestJournalEntryGolden(t *testing.T) {
	mod := time.Unix(0, 1_700_000_000_123_456_789)
	cases := []struct {
		name string
		op   uint8
		rec  *FileRec
	}{
		{"create", entryCreate, &FileRec{Handle: 7, Name: "data/a", Size: 0, ModTime: mod,
			Layout: wire.Layout{StripeSize: 65536, Replicas: 2, Servers: []uint32{2, 0, 1}}}},
		{"setsize", entrySetSize, &FileRec{Handle: 7, Name: "data/a", Size: 1 << 33, ModTime: mod,
			Layout: wire.Layout{StripeSize: 65536, Servers: []uint32{3}}}},
		{"remove", entryRemove, &FileRec{Handle: 7, Name: "data/a", ModTime: mod}},
	}
	var lines strings.Builder
	var all []byte
	for _, c := range cases {
		entry, err := appendEntry(nil, c.op, c.rec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		lines.WriteString(c.name + " " + hex.EncodeToString(entry) + "\n")
		all = append(all, entry...)
	}
	if *updateJournalGolden {
		if err := os.MkdirAll(filepath.Dir(journalGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(journalGolden, []byte(lines.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(journalGolden)
	if err != nil {
		t.Fatal(err)
	}
	if lines.String() != string(want) {
		t.Fatalf("journal entries changed:\n got %s\nwant %s", lines.String(), want)
	}

	path := filepath.Join(t.TempDir(), "golden.wal")
	if err := os.WriteFile(path, all, 0o644); err != nil {
		t.Fatal(err)
	}
	cf := &crashFile{data: append([]byte(nil), all...)}
	j := &journal{path: path, f: cf}
	i := 0
	err = j.replay(func(op uint8, rec *FileRec) error {
		c := cases[i]
		i++
		if op != c.op || rec.Handle != c.rec.Handle || rec.Name != c.rec.Name || rec.Size != c.rec.Size ||
			!rec.ModTime.Equal(c.rec.ModTime) || rec.Layout.StripeSize != c.rec.Layout.StripeSize ||
			rec.Layout.Replicas != c.rec.Layout.Replicas ||
			len(rec.Layout.Servers) != len(c.rec.Layout.Servers) {
			t.Errorf("%s: replayed op %d %+v, want %d %+v", c.name, op, rec, c.op, c.rec)
		}
		for k, s := range c.rec.Layout.Servers {
			if k < len(rec.Layout.Servers) && rec.Layout.Servers[k] != s {
				t.Errorf("%s: replayed servers %v, want %v", c.name, rec.Layout.Servers, c.rec.Layout.Servers)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(cases) || !bytes.Equal(cf.data, all) {
		t.Fatalf("replayed %d of %d entries, kept %d of %d bytes", i, len(cases), len(cf.data), len(all))
	}
}
