package jobs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// FuzzWALReplay writes a valid header plus arbitrary bytes as the job log
// and opens it: recovery must neither panic nor fail, and must be
// idempotent — a second open replays the same jobs and leaves the file
// byte-identical, truncating nothing more.
func FuzzWALReplay(f *testing.F) {
	frame := func(j *Job) []byte {
		b, err := appendFrame(nil, j)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	valid := frame(walJob("j1", 1, StateQueued))
	f.Add([]byte{})
	f.Add(valid)
	flipped := append([]byte(nil), valid...)
	flipped[4] ^= 0x01 // first CRC byte
	f.Add(flipped)
	oversize := make([]byte, frameHeader+1)
	binary.LittleEndian.PutUint32(oversize, maxFrameSize+1)
	f.Add(oversize)
	torn := frame(walJob("j2", 2, StateRunning))
	f.Add(append(append([]byte(nil), valid...), torn[:len(torn)-3]...))

	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, walFileName)
		if err := os.WriteFile(path, append(store.EncodeHeader(jobsWALMagic), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() ([]byte, []byte) {
			w, jobs, err := openWAL(dir)
			if err != nil {
				t.Fatalf("openWAL: %v", err)
			}
			if err := w.close(); err != nil {
				t.Fatal(err)
			}
			// Compare jobs by their JSON: compaction re-encodes the
			// snapshots, which may respace a result's raw JSON.
			enc, err := json.Marshal(jobs)
			if err != nil {
				t.Fatal(err)
			}
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return enc, file
		}
		jobs1, file1 := open()
		jobs2, file2 := open()
		if !bytes.Equal(jobs1, jobs2) {
			t.Fatalf("second open replayed other jobs:\n first %s\nsecond %s", jobs1, jobs2)
		}
		if !bytes.Equal(file1, file2) {
			t.Fatalf("second open changed the log: %d bytes, then %d", len(file1), len(file2))
		}
	})
}
