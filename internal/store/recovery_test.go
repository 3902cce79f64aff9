package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// walPath returns the store's WAL file path.
func walPath(dir string) string { return filepath.Join(dir, walName) }

// seedStore writes n records and closes the store, returning the expected
// contents.
func seedStore(t *testing.T, dir string, n int) map[Key]int64 {
	t.Helper()
	s := open(t, dir, Options{})
	want := make(map[Key]int64, n)
	for i := 0; i < n; i++ {
		k := KeyOf("p", string(rune('A'+i)))
		if err := s.Put(k, int64(i*1000)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		want[k] = int64(i * 1000)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return want
}

func TestRecoveryTornTailTruncated(t *testing.T) {
	for _, torn := range []int{1, recordSize / 2, recordSize - 1} {
		dir := t.TempDir()
		want := seedStore(t, dir, 5)

		// Simulate a crash mid-append: a partial record at the tail.
		f, err := os.OpenFile(walPath(dir), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(bytes.Repeat([]byte{0xEE}, torn)); err != nil {
			t.Fatal(err)
		}
		f.Close()

		s := open(t, dir, Options{})
		if st := s.Stats(); st.RecoveredTruncated != int64(torn) {
			t.Errorf("torn=%d: RecoveredTruncated = %d", torn, st.RecoveredTruncated)
		}
		for k, v := range want {
			if got, ok := s.Get(k); !ok || got != v {
				t.Errorf("torn=%d: lost record %s", torn, k)
			}
		}
		// The tail must be gone from disk so new appends start clean.
		st, err := os.Stat(walPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(headerSize + 5*recordSize); st.Size() != want {
			t.Errorf("torn=%d: WAL is %d bytes after recovery, want %d", torn, st.Size(), want)
		}
		// And the store must accept and persist new writes.
		if err := s.Put(KeyOf("p", "fresh"), 7); err != nil {
			t.Fatalf("torn=%d: post-recovery Put: %v", torn, err)
		}
		s.Close()
		s2 := open(t, dir, Options{})
		if v, ok := s2.Get(KeyOf("p", "fresh")); !ok || v != 7 {
			t.Errorf("torn=%d: post-recovery record lost: (%d, %v)", torn, v, ok)
		}
		s2.Close()
	}
}

func TestRecoveryTornHeaderTruncated(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath(dir), []byte("ADSTW"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, Options{})
	defer s.Close()
	if st := s.Stats(); st.RecoveredTruncated != 5 || st.Records != 0 {
		t.Errorf("torn header: stats = %+v", st)
	}
	if err := s.Put(KeyOf("p", "x"), 1); err != nil {
		t.Fatalf("Put after torn-header recovery: %v", err)
	}
}

func TestRecoveryCRCMismatchSkipsRecord(t *testing.T) {
	dir := t.TempDir()
	want := seedStore(t, dir, 5)

	// Flip a byte in the middle record's value field.
	data, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	corruptOff := headerSize + 2*recordSize + 17
	data[corruptOff] ^= 0xFF
	if err := os.WriteFile(walPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	corruptKey := KeyOf("p", string(rune('A'+2)))

	s := open(t, dir, Options{})
	defer s.Close()
	if st := s.Stats(); st.RecoveredSkipped != 1 {
		t.Errorf("RecoveredSkipped = %d, want 1", st.RecoveredSkipped)
	}
	for k, v := range want {
		got, ok := s.Get(k)
		if k == corruptKey {
			if ok {
				t.Errorf("corrupted record %s resurrected with value %d", k, got)
			}
			continue
		}
		if !ok || got != v {
			t.Errorf("record %s after corrupt neighbour = (%d, %v), want (%d, true)", k, got, ok, v)
		}
	}
}

func TestRecoveryWrongMagicFails(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 1)
	data, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	copy(data[:8], "NOTASTOR")
	if err := os.WriteFile(walPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Metrics: obs.NewRegistry()}); err == nil {
		t.Error("Open succeeded on a WAL with foreign magic")
	}
}

func TestSnapshotPlusWALReplayEquivalence(t *testing.T) {
	// The same write sequence must produce identical contents whether it
	// lives purely in the WAL, purely in a snapshot, or split across a
	// snapshot and a WAL tail.
	writes := func(s *Store) {
		for i := 0; i < 40; i++ {
			if err := s.Put(KeyOf("p", string(rune(i))), int64(i)); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
		// Overwrites land after the snapshot boundary in the split case.
		for i := 0; i < 10; i++ {
			if err := s.Put(KeyOf("p", string(rune(i))), int64(1000+i)); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
	}

	dirs := map[string]int{ // each store's compaction threshold
		"wal-only":    compactEvery,
		"snapshotted": compactEvery, // explicit compaction after writes
		"split-mid":   25,           // auto-compacts mid-sequence
	}
	contents := make(map[string]map[Key]int64)
	for name, every := range dirs {
		dir := t.TempDir()
		s := open(t, dir, Options{})
		s.compactEvery = every
		writes(s)
		if name == "snapshotted" {
			if err := compact(s); err != nil {
				t.Fatalf("%s: compact: %v", name, err)
			}
		}
		s.Close()

		re := open(t, dir, Options{})
		got := make(map[Key]int64, re.Len())
		for i := 0; i < 40; i++ {
			k := KeyOf("p", string(rune(i)))
			if v, ok := re.Get(k); ok {
				got[k] = v
			}
		}
		re.Close()
		contents[name] = got
	}
	base := contents["wal-only"]
	if len(base) != 40 {
		t.Fatalf("wal-only holds %d records, want 40", len(base))
	}
	for name, got := range contents {
		if len(got) != len(base) {
			t.Errorf("%s holds %d records, want %d", name, len(got), len(base))
		}
		for k, v := range base {
			if got[k] != v {
				t.Errorf("%s: key %s = %d, want %d", name, k, got[k], v)
			}
		}
	}
}

func TestSnapshotCRCMismatchFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Put(KeyOf("p", "x"), 1); err != nil {
		t.Fatal(err)
	}
	if err := compact(s); err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := filepath.Join(dir, snapName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+8+3] ^= 0x10 // corrupt an entry byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Metrics: obs.NewRegistry()}); err == nil {
		t.Error("Open succeeded on a corrupt snapshot")
	}
}

func TestCrashBetweenSnapshotAndTruncateIsIdempotent(t *testing.T) {
	// If the process dies after installing a snapshot but before the WAL
	// truncate lands, recovery replays the WAL over the snapshot; the
	// records are identical, so the replay must be a harmless no-op.
	dir := t.TempDir()
	s := open(t, dir, Options{})
	for i := 0; i < 8; i++ {
		if err := s.Put(KeyOf("p", string(rune(i))), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Build the snapshot out-of-band while leaving the WAL untouched,
	// reproducing the crash window.
	tmp := open(t, dir, Options{})
	wal, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := compact(tmp); err != nil {
		t.Fatal(err)
	}
	tmp.Close()
	if err := os.WriteFile(walPath(dir), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	re := open(t, dir, Options{})
	defer re.Close()
	if n := re.Len(); n != 8 {
		t.Errorf("after snapshot+stale-WAL recovery, Len = %d, want 8", n)
	}
	for i := 0; i < 8; i++ {
		if v, ok := re.Get(KeyOf("p", string(rune(i)))); !ok || v != int64(i) {
			t.Errorf("key %d = (%d, %v), want (%d, true)", i, v, ok, i)
		}
	}
}
