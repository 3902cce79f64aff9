package jobs

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/store"
)

// The job store reuses internal/store's durability patterns — a 16-byte
// magic+version header, CRC-32C-checked records, truncate-the-torn-tail
// recovery — over variable-length records, because a job snapshot is JSON
// rather than a fixed-width measurement. Each append is one complete job
// snapshot (last-writer-wins per ID on replay), so recovery is a single
// forward scan and compaction is "write the newest snapshot of every job".
const (
	walFileName  = "jobs.wal"
	walTmpName   = "jobs.wal.tmp"
	walHeader    = 16
	walFormatV1  = 1
	frameHeader  = 8       // payload length (4) + CRC-32C over payload (4)
	maxFrameSize = 8 << 20 // sanity bound; a job snapshot is KBs
)

var (
	jobsWALMagic = [8]byte{'A', 'D', 'J', 'B', 'W', 'A', 'L', '1'}
	jobsCRCTable = crc32.MakeTable(crc32.Castagnoli)
)

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
	jobs, err := w.replay()
	if err != nil {
		return nil, nil, err
	}
	// Bound replay work: once the log holds several snapshots per live
	// job, fold it down to one.
	if w.records > 4*(len(jobs)+1) {
		if err := w.compact(jobs); err != nil {
			return nil, nil, err
		}
	}
	if err := w.open(); err != nil {
		return nil, nil, err
	}
	return w, jobs, nil
}

// path returns the log's file path.
func (w *jobWAL) path() string { return filepath.Join(w.dir, walFileName) }

// replay loads the newest snapshot per job, truncating a torn tail.
func (w *jobWAL) replay() (map[string]*Job, error) {
	jobs := make(map[string]*Job)
	data, err := os.ReadFile(w.path())
	if errors.Is(err, os.ErrNotExist) || (err == nil && len(data) == 0) {
		return jobs, nil
	}
	if err != nil {
		return nil, fmt.Errorf("jobs: reading WAL: %w", err)
	}
	if len(data) < walHeader {
		// Died writing the first header: nothing was acknowledged.
		if err := os.Truncate(w.path(), 0); err != nil {
			return nil, fmt.Errorf("jobs: truncating torn WAL header: %w", err)
		}
		return jobs, nil
	}
	if [8]byte(data[:8]) != jobsWALMagic {
		return nil, fmt.Errorf("jobs: WAL has wrong magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != walFormatV1 {
		return nil, fmt.Errorf("jobs: WAL format version %d not supported", v)
	}
	body := data[walHeader:]
	off := 0
	for off < len(body) {
		j, n, err := decodeFrame(body[off:])
		if err != nil {
			break // torn tail: truncate from here
		}
		jobs[j.ID] = j
		w.records++
		off += n
	}
	if off < len(body) {
		if err := os.Truncate(w.path(), int64(walHeader+off)); err != nil {
			return nil, fmt.Errorf("jobs: truncating torn WAL tail: %w", err)
		}
	}
	return jobs, nil
}

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
	if crc32.Checksum(payload, jobsCRCTable) != binary.LittleEndian.Uint32(b[4:8]) {
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
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, jobsCRCTable))
	return append(append(buf, hdr[:]...), payload...), nil
}

// open opens the log for appending, writing the header on first use.
func (w *jobWAL) open() error {
	f, err := os.OpenFile(w.path(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: opening WAL: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if st.Size() == 0 {
		var hdr [walHeader]byte
		copy(hdr[:8], jobsWALMagic[:])
		binary.LittleEndian.PutUint32(hdr[8:12], walFormatV1)
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			return fmt.Errorf("jobs: writing WAL header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	w.f = f
	return nil
}

// compact rewrites the log as one snapshot per job (newest wins), in
// submission order, via an fsynced temp file renamed into place. The
// directory is fsynced after the rename: open then appends acknowledged
// transitions to the renamed file, and a power cut that lost the rename
// would lose them with it.
func (w *jobWAL) compact(jobs map[string]*Job) error {
	ordered := make([]*Job, 0, len(jobs))
	for _, j := range jobs {
		ordered = append(ordered, j)
	}
	sort.Slice(ordered, func(i, k int) bool { return ordered[i].Seq < ordered[k].Seq })

	tmp := filepath.Join(w.dir, walTmpName)
	buf := make([]byte, walHeader, walHeader+len(ordered)*256)
	copy(buf[:8], jobsWALMagic[:])
	binary.LittleEndian.PutUint32(buf[8:12], walFormatV1)
	var err error
	for _, j := range ordered {
		if buf, err = appendFrame(buf, j); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: creating compaction file: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("jobs: writing compaction file: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, w.path()); err != nil {
		return fmt.Errorf("jobs: installing compacted WAL: %w", err)
	}
	if err := store.SyncDir(w.dir); err != nil {
		return fmt.Errorf("jobs: installing compacted WAL: %w", err)
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
