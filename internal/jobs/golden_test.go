package jobs

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestWALGoldenBytes pins the job log's format: a log holding one fixed job
// must be exactly these bytes, and a directory holding them must replay to
// that job, so job logs written by earlier builds keep opening.
func TestWALGoldenBytes(t *testing.T) {
	const golden = "41444a4257414c3101000000000000006b000000914a73227b226964223a226a31222c2274656e616e74223a2274222c2273706563223a7b226578706572696d656e7473223a6e756c6c7d2c227374617465223a22717565756564222c22706861736573223a5b2266696731225d2c2271756572696573223a302c22736571223a317d"
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
	b, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(b); got != golden {
		t.Errorf("jobs.wal with one job:\n got %s\nwant %s", got, golden)
	}

	if b, err = hex.DecodeString(golden); err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFileName), b, 0o644); err != nil {
		t.Fatal(err)
	}
	w, jobs, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if j := jobs["j1"]; len(jobs) != 1 || j == nil || j.State != StateQueued || j.Seq != 1 {
		t.Errorf("golden jobs.wal replayed %v, want j1 queued at seq 1", jobs)
	}
}
