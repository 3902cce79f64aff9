package store

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenOnDiskBytes pins the store's two file formats: a WAL holding
// one record, and the snapshot compacted from it, must be exactly these
// bytes, and a directory holding either file alone must open to that
// record. Stores written by earlier builds therefore keep opening.
func TestGoldenOnDiskBytes(t *testing.T) {
	const (
		walHex  = "4144535457414c310100000000000000b12417901ef1dfbc948c5ac67c40ead040e20100000000000000000033cd5039"
		snapHex = "41445354534e503101000000000000000100000000000000b12417901ef1dfbc948c5ac67c40ead040e20100000000009aff928c"
	)
	key := KeyOf("facebook", "(attribute:1)")
	const size = 123456

	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Put(key, size); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(wal); got != walHex {
		t.Errorf("wal.log with one record:\n got %s\nwant %s", got, walHex)
	}
	s = open(t, dir, Options{})
	if err := compact(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(snap); got != snapHex {
		t.Errorf("snapshot.idx after compaction:\n got %s\nwant %s", got, snapHex)
	}
	if wal, err = os.ReadFile(walPath(dir)); err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(wal), walHex[:2*headerSize]; got != want {
		t.Errorf("wal.log after compaction:\n got %s\nwant %s (the header alone)", got, want)
	}

	for name, h := range map[string]string{walName: walHex, snapName: snapHex} {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
		s := open(t, dir, Options{})
		if v, ok := s.Get(key); !ok || v != size {
			t.Errorf("golden %s alone: Get = (%d, %v), want (%d, true)", name, v, ok, size)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
