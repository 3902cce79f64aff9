package jobs

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/store"
)

// The job log is written with internal/store's durable-file mechanics — its
// 16-byte magic+version header, log open, truncate-the-torn-tail replay and
// atomic install — over its own records: CRC-32C-checked, length-prefixed
// frames, because a job snapshot is JSON rather than a fixed-width
// measurement. Each append is one complete job snapshot (last-writer-wins
// per ID on replay), so recovery is a single forward scan and compaction is
// "write the newest snapshot of every job".
const (
	walFileName  = "jobs.wal"
	frameHeader  = 8       // payload length (4) + CRC-32C over payload (4)
	maxFrameSize = 8 << 20 // sanity bound; a job snapshot is KBs
)

var jobsWALMagic = [8]byte{'A', 'D', 'J', 'B', 'W', 'A', 'L', '1'}

// errTornFrame marks the point recovery stops replaying: a short, oversized,
// or CRC-mismatched frame. Variable-length records cannot resynchronize past
// corruption, so everything after the last whole frame is truncated away —
// the same "never lose acknowledged data, never fail on crash artifacts"
// posture as the measurement WAL.
var errTornFrame = errors.New("jobs: torn or corrupt WAL frame")

// jobWAL is the durable job-state log: an append-only file of framed job
// snapshots plus the in-memory last-snapshot index.
type jobWAL struct {
	dir string

	mu      sync.Mutex
	f       *os.File
	buf     []byte
	records int // frames in the file, including superseded snapshots
}

// openWAL opens (creating if needed) the job log in dir, replays it, and
// returns the newest snapshot of every job. Torn tails are truncated;
// recovery compacts the log when superseded snapshots dominate it.
func openWAL(dir string) (*jobWAL, map[string]*Job, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("jobs: creating %s: %w", dir, err)
	}
	w := &jobWAL{dir: dir}
	jobs := make(map[string]*Job)
	if _, err := store.ReplayLog(w.path(), jobsWALMagic, "job log", func(rest []byte) (int, error) {
		j, n, err := decodeFrame(rest)
		if err == nil {
			jobs[j.ID] = j
			w.records++
		}
		return n, err
	}); err != nil {
		return nil, nil, err
	}
	// Bound replay work: once the log holds several snapshots per live
	// job, fold it down to one.
	if w.records > 4*(len(jobs)+1) {
		if err := w.compact(jobs); err != nil {
			return nil, nil, err
		}
	}
	f, err := store.OpenLog(w.path(), jobsWALMagic)
	if err != nil {
		return nil, nil, err
	}
	w.f = f
	return w, jobs, nil
}

// path returns the log's file path.
func (w *jobWAL) path() string { return filepath.Join(w.dir, walFileName) }

// decodeFrame decodes one framed snapshot from the front of b, returning
// the snapshot and the frame's total size.
func decodeFrame(b []byte) (*Job, int, error) {
	if len(b) < frameHeader {
		return nil, 0, errTornFrame
	}
	n := int(binary.LittleEndian.Uint32(b[:4]))
	if n <= 0 || n > maxFrameSize || len(b) < frameHeader+n {
		return nil, 0, errTornFrame
	}
	payload := b[frameHeader : frameHeader+n]
	if store.Checksum(payload) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, errTornFrame
	}
	var j Job
	if err := json.Unmarshal(payload, &j); err != nil || j.ID == "" {
		return nil, 0, errTornFrame
	}
	return &j, frameHeader + n, nil
}

// appendFrame encodes one snapshot onto buf.
func appendFrame(buf []byte, j *Job) ([]byte, error) {
	payload, err := json.Marshal(j)
	if err != nil {
		return buf, fmt.Errorf("jobs: encoding job %s: %w", j.ID, err)
	}
	if len(payload) > maxFrameSize {
		return buf, fmt.Errorf("jobs: job %s snapshot exceeds %d bytes", j.ID, maxFrameSize)
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], store.Checksum(payload))
	return append(append(buf, hdr[:]...), payload...), nil
}

// compact rewrites the log as one snapshot per job (newest wins), in
// submission order, installed with store.WriteAtomic. Its directory fsync
// matters: openWAL then appends acknowledged transitions to the installed
// file, and a power cut that lost the rename would lose them with it.
func (w *jobWAL) compact(jobs map[string]*Job) error {
	ordered := make([]*Job, 0, len(jobs))
	for _, j := range jobs {
		ordered = append(ordered, j)
	}
	sort.Slice(ordered, func(i, k int) bool { return ordered[i].Seq < ordered[k].Seq })

	buf := store.EncodeHeader(jobsWALMagic)
	var err error
	for _, j := range ordered {
		if buf, err = appendFrame(buf, j); err != nil {
			return err
		}
	}
	if err := store.WriteAtomic(w.path(), func(f *os.File) error {
		_, err := f.Write(buf)
		return err
	}); err != nil {
		return fmt.Errorf("jobs: compacting WAL: %w", err)
	}
	w.records = len(ordered)
	return nil
}

// append durably logs one job snapshot: framed, appended, and fsynced
// before returning, so an acknowledged transition survives any crash.
func (w *jobWAL) append(j *Job) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("jobs: append on closed WAL")
	}
	var err error
	if w.buf, err = appendFrame(w.buf[:0], j); err != nil {
		return err
	}
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("jobs: WAL append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("jobs: WAL fsync: %w", err)
	}
	w.records++
	return nil
}

// close closes the log file.
func (w *jobWAL) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
