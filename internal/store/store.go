package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// File names inside a store directory.
const (
	walName  = "wal.log"
	snapName = "snapshot.idx"
)

// compactEvery is the WAL length, in records, at which Put folds the log
// into a fresh snapshot.
const compactEvery = 8192

// Options configures a store.
type Options struct {
	// Metrics receives the store's instruments; nil selects the
	// process-wide obs.Default() registry.
	Metrics *obs.Registry
}

// Stats is a point-in-time view of one store.
type Stats struct {
	// Records is the number of distinct keys resident (snapshot + WAL).
	Records int
	// WALRecords is the number of records in the current WAL tail.
	WALRecords int
	// Appends counts records appended this session.
	Appends int64
	// Compactions counts snapshot compactions this session.
	Compactions int64
	// RecoveredTruncated counts bytes dropped from a torn WAL tail at open.
	RecoveredTruncated int64
	// RecoveredSkipped counts CRC-mismatched records skipped at open.
	RecoveredSkipped int64
	// BytesOnDisk is the snapshot + WAL size after the last append or
	// compaction.
	BytesOnDisk int64
}

// Store is a durable map from measurement keys to platform-scale audience
// sizes: an in-memory index over an append-only WAL plus an immutable
// snapshot. All methods are safe for concurrent use.
type Store struct {
	dir          string
	compactEvery int // WAL records that trigger compaction; tests lower it

	mu         sync.Mutex
	mem        map[Key]int64
	wal        *os.File
	walRecords int // records in the WAL file
	buf        []byte
	stats      Stats
	closed     bool
	appendErr  error // first WAL write error; store degrades to read-only

	mAppends     *obs.Counter
	mCompactions *obs.Counter
	mAppendLat   *obs.Histogram
	gRecords     *obs.Gauge
	gBytes       *obs.Gauge
}

// Open opens (creating if needed) the store rooted at dir. Recovery loads
// the snapshot, replays the WAL over it, truncates a torn tail, and skips
// CRC-mismatched records; neither crash artifact is an error.
func Open(dir string, opts Options) (*Store, error) {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{
		dir:          dir,
		compactEvery: compactEvery,
		mem:          make(map[Key]int64),
		mAppends:     reg.Counter("store_appends_total"),
		mCompactions: reg.Counter("store_compactions_total"),
		mAppendLat:   reg.Histogram("store_wal_append_seconds"),
		gRecords:     reg.Gauge("store_records"),
		gBytes:       reg.Gauge("store_bytes_on_disk"),
	}
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, walName)
	torn, err := ReplayLog(path, walMagic, "WAL", s.replayRecord)
	if err != nil {
		return nil, err
	}
	s.stats.RecoveredTruncated = torn
	if s.wal, err = OpenLog(path, walMagic); err != nil {
		return nil, err
	}
	s.publishSizes()
	return s, nil
}

// replayRecord applies the WAL record at the front of rest. A short record
// is a torn tail (the process died mid-append) and stops the replay; a
// record whose CRC does not match is latent corruption, skipped on its
// fixed-size boundary so a single bad sector does not cost the rest of the
// archive.
func (s *Store) replayRecord(rest []byte) (int, error) {
	rec, err := decodeRecord(rest)
	switch {
	case errors.Is(err, ErrBadCRC):
		s.stats.RecoveredSkipped++
	case err != nil:
		return 0, err
	default:
		s.mem[rec.Key] = rec.Value
		s.walRecords++
	}
	return recordSize, nil
}

// Get returns the stored size for key.
func (s *Store) Get(key Key) (int64, bool) {
	s.mu.Lock()
	v, ok := s.mem[key]
	s.mu.Unlock()
	return v, ok
}

// Len returns the number of distinct keys resident.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}

// Put durably records key → size: the record is appended to the WAL and
// fsynced before Put returns. Re-putting an existing key with the same
// value is a no-op (measurements are immutable facts); a changed value
// overwrites, last-writer-wins on replay.
func (s *Store) Put(key Key, size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: put on closed store")
	}
	if s.appendErr != nil {
		return s.appendErr
	}
	if v, ok := s.mem[key]; ok && v == size {
		return nil
	}
	start := time.Now()
	s.buf = appendRecord(s.buf[:0], Record{Key: key, Value: size})
	if _, err := s.wal.Write(s.buf); err != nil {
		// A failed append leaves an undefined tail on disk; degrade to
		// read-only rather than risk interleaving further records. The
		// torn tail is repaired by recovery on the next open.
		s.appendErr = fmt.Errorf("store: WAL append: %w", err)
		return s.appendErr
	}
	if err := s.wal.Sync(); err != nil {
		s.appendErr = fmt.Errorf("store: WAL fsync: %w", err)
		return s.appendErr
	}
	s.mAppendLat.Observe(time.Since(start))
	s.mem[key] = size
	s.walRecords++
	s.stats.Appends++
	s.mAppends.Inc()
	s.publishSizes()
	if s.walRecords >= s.compactEvery {
		return s.compactLocked()
	}
	return nil
}

// Stats returns a point-in-time view of the store.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Records = len(s.mem)
	st.WALRecords = s.walRecords
	st.BytesOnDisk = s.bytesOnDiskLocked()
	return st
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close closes the WAL. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.wal.Close()
	s.wal = nil
	return err
}

// bytesOnDiskLocked sizes the snapshot and WAL files.
func (s *Store) bytesOnDiskLocked() int64 {
	var total int64
	for _, name := range []string{walName, snapName} {
		if st, err := os.Stat(filepath.Join(s.dir, name)); err == nil {
			total += st.Size()
		}
	}
	return total
}

// publishSizes refreshes the size gauges (callers hold mu).
func (s *Store) publishSizes() {
	s.gRecords.Set(float64(len(s.mem)))
	s.gBytes.Set(float64(s.bytesOnDiskLocked()))
}
