package jobs

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

func walJob(id string, seq uint64, state State) *Job {
	return &Job{ID: id, Tenant: "t", State: state, Phases: []string{"fig1"}, Seq: seq}
}

func TestWALRoundtrip(t *testing.T) {
	dir := t.TempDir()
	w, jobs, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("fresh WAL replayed %d jobs", len(jobs))
	}
	// Several snapshots per job: replay must keep only the newest.
	for _, j := range []*Job{
		walJob("j1", 1, StateQueued),
		walJob("j2", 2, StateQueued),
		walJob("j1", 1, StateRunning),
		walJob("j2", 2, StateDone),
	} {
		if err := w.append(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	w2, jobs2, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if len(jobs2) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(jobs2))
	}
	if got := jobs2["j1"].State; got != StateRunning {
		t.Fatalf("j1 state = %s, want running (last writer wins)", got)
	}
	if got := jobs2["j2"].State; got != StateDone {
		t.Fatalf("j2 state = %s, want done", got)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(walJob("j1", 1, StateQueued)); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage after the last whole frame.
	path := filepath.Join(dir, walFileName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(path)

	w2, jobs, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs["j1"] == nil {
		t.Fatalf("recovery lost acknowledged job: %v", jobs)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
	// The log must accept appends past the truncation point.
	if err := w2.append(walJob("j2", 2, StateQueued)); err != nil {
		t.Fatal(err)
	}
	if err := w2.close(); err != nil {
		t.Fatal(err)
	}
	_, jobs3, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs3) != 2 {
		t.Fatalf("post-recovery append lost: %d jobs", len(jobs3))
	}
}

func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Far more snapshots than live jobs: the next open must fold the log.
	for i := 0; i < 30; i++ {
		if err := w.append(walJob("j1", 1, StateRunning)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.append(walJob("j2", 2, StateQueued)); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	w2, jobs, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if len(jobs) != 2 {
		t.Fatalf("compaction lost jobs: %d", len(jobs))
	}
	if w2.records != 2 {
		t.Fatalf("compacted log holds %d records, want 2", w2.records)
	}
}

func TestWALWrongMagicRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFileName), []byte("NOTAWAL0PADDING!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openWAL(dir); err == nil {
		t.Fatal("foreign file accepted as job WAL")
	}
}

func TestWALFutureVersionRejected(t *testing.T) {
	dir := t.TempDir()
	hdr := store.EncodeHeader(jobsWALMagic)
	hdr[8] = 99 // format version far beyond the one the log writes
	if err := os.WriteFile(filepath.Join(dir, walFileName), hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openWAL(dir); err == nil {
		t.Fatal("future-format WAL accepted")
	}
}

func TestWALOversizeFrameTruncated(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(walJob("j1", 1, StateQueued)); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	// A frame header claiming an absurd length is corruption, not data:
	// recovery must stop at the last whole frame.
	path := filepath.Join(dir, walFileName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 'x'}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	w2, jobs, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if len(jobs) != 1 {
		t.Fatalf("recovery kept %d jobs, want 1", len(jobs))
	}
}
