package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// open is a test helper that opens a store with its own registry.
func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// compact folds s's WAL into a fresh snapshot now, through the body Put
// runs every compactEvery records.
func compact(s *Store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func TestPutGetAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	want := map[string]int64{
		"(attribute:1)":                10_000,
		"(attribute:1)&(attribute:2)":  4_300,
		"(attribute:2)!-(attribute:3)": 120,
	}
	for spec, size := range want {
		if err := s.PutMeasurement("facebook", spec, size); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Same spec on another platform must be a distinct key.
	if err := s.PutMeasurement("google", "(attribute:1)", 77); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := open(t, dir, Options{})
	defer s2.Close()
	for spec, size := range want {
		got, ok := s2.GetMeasurement("facebook", spec)
		if !ok || got != size {
			t.Errorf("after reopen, %q = (%d, %v), want (%d, true)", spec, got, ok, size)
		}
	}
	if got, ok := s2.GetMeasurement("google", "(attribute:1)"); !ok || got != 77 {
		t.Errorf("google key = (%d, %v), want (77, true)", got, ok)
	}
	if _, ok := s2.GetMeasurement("linkedin", "(attribute:1)"); ok {
		t.Error("unwritten platform key unexpectedly present")
	}
	if n := s2.Len(); n != 4 {
		t.Errorf("Len = %d, want 4", n)
	}
}

func TestKeyOfPlatformQualified(t *testing.T) {
	if KeyOf("facebook", "(attribute:1)") == KeyOf("google", "(attribute:1)") {
		t.Error("same spec on different platforms collided")
	}
	if KeyOf("a", "b\x00c") == KeyOf("a\x00b", "c") {
		// The separator byte must not allow platform/spec boundary
		// ambiguity to produce equal digests for distinct identities.
		t.Error("platform/spec boundary ambiguity")
	}
	if KeyOf("facebook", "x") != KeyOf("facebook", "x") {
		t.Error("KeyOf not deterministic")
	}
}

func TestRePutSameValueIsNoOp(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	defer s.Close()
	k := KeyOf("p", "spec")
	for i := 0; i < 5; i++ {
		if err := s.Put(k, 42); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if st := s.Stats(); st.Appends != 1 || st.WALRecords != 1 {
		t.Errorf("appends=%d wal=%d, want 1/1 (idempotent re-put)", st.Appends, st.WALRecords)
	}
	// A changed value is last-writer-wins.
	if err := s.Put(k, 43); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if v, _ := s.Get(k); v != 43 {
		t.Errorf("after overwrite, Get = %d, want 43", v)
	}
}

func TestAutomaticCompaction(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	s.compactEvery = 10
	for i := 0; i < 25; i++ {
		if err := s.Put(KeyOf("p", string(rune('a'+i))), int64(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	st := s.Stats()
	if st.Compactions != 2 {
		t.Errorf("compactions = %d, want 2 (25 puts / every 10)", st.Compactions)
	}
	if st.WALRecords >= 10 {
		t.Errorf("WAL holds %d records after compaction, want < 10", st.WALRecords)
	}
	if st.Records != 25 {
		t.Errorf("records = %d, want 25", st.Records)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := open(t, dir, Options{})
	defer s2.Close()
	for i := 0; i < 25; i++ {
		if v, ok := s2.Get(KeyOf("p", string(rune('a'+i)))); !ok || v != int64(i) {
			t.Fatalf("after compacted reopen, key %d = (%d, %v)", i, v, ok)
		}
	}
}

func TestExplicitCompactionShrinksWAL(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	for i := 0; i < 100; i++ {
		if err := s.Put(KeyOf("p", string(rune(i))), int64(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	walPath := filepath.Join(dir, walName)
	before, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := compact(s); err != nil {
		t.Fatalf("compact: %v", err)
	}
	after, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() || after.Size() != headerSize {
		t.Errorf("WAL %d bytes after compaction (was %d), want header-only %d", after.Size(), before.Size(), headerSize)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); err != nil {
		t.Errorf("snapshot missing after compaction: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClosedStoreRejectsPut(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	s.Close()
	if err := s.Put(KeyOf("p", "x"), 1); err == nil {
		t.Error("Put on closed store succeeded")
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestStatsBytesOnDisk(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	defer s.Close()
	if err := s.Put(KeyOf("p", "x"), 1); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.BytesOnDisk != headerSize+recordSize {
		t.Errorf("BytesOnDisk = %d, want %d", st.BytesOnDisk, headerSize+recordSize)
	}
}

// TestWriteAtomicFailureKeepsOldFile: when the write callback fails, the
// installed file is untouched, the callback's error comes back as it is,
// and no temp file is left behind; a write that succeeds replaces the file.
func TestWriteAtomicFailureKeepsOldFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteAtomic(path, func(f *os.File) error {
		if _, err := f.Write([]byte("partial")); err != nil {
			t.Fatal(err)
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteAtomic = %v, want the callback's error", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "old" {
		t.Errorf("after a failed write the file holds %q, want %q", b, "old")
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("temp file left behind: %v", err)
	}
	if err := WriteAtomic(path, func(f *os.File) error {
		_, err := f.Write([]byte("new"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "new" {
		t.Errorf("after a good write the file holds %q, want %q", b, "new")
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("temp file left behind: %v", err)
	}
}
