package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Snapshot layout: header (16 bytes, snapMagic) + count (8 bytes LE) +
// count entries of key (16) + value (8), sorted by key, + CRC-32C (4 bytes)
// over everything after the header. WriteAtomic installs it, so a snapshot
// is either whole or absent — compaction can crash at any instant without
// losing the previous snapshot or the WAL it was folding in.
const snapEntrySize = 24

// loadSnapshot loads the immutable index into memory, if present.
func (s *Store) loadSnapshot() error {
	data, err := os.ReadFile(filepath.Join(s.dir, snapName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: reading snapshot: %w", err)
	}
	if err := checkHeader(data, snapMagic, "snapshot"); err != nil {
		return err
	}
	body := data[headerSize:]
	if len(body) < 8+4 {
		return fmt.Errorf("store: snapshot truncated (%d bytes)", len(data))
	}
	sum := binary.LittleEndian.Uint32(body[len(body)-4:])
	body = body[:len(body)-4]
	if Checksum(body) != sum {
		// Unlike the WAL — where one bad record is skippable — the
		// snapshot is written atomically, so a checksum failure means the
		// medium lost data that the WAL no longer holds. Fail loudly
		// rather than silently resurrecting an incomplete archive.
		return fmt.Errorf("store: snapshot CRC mismatch")
	}
	n := binary.LittleEndian.Uint64(body[:8])
	entries := body[8:]
	if uint64(len(entries)) != n*snapEntrySize {
		return fmt.Errorf("store: snapshot count %d disagrees with %d entry bytes", n, len(entries))
	}
	for off := 0; off < len(entries); off += snapEntrySize {
		var k Key
		copy(k[:], entries[off:off+16])
		s.mem[k] = int64(binary.LittleEndian.Uint64(entries[off+16 : off+24]))
	}
	return nil
}

// compactLocked writes the current memory image as a new snapshot and
// truncates the WAL. Callers hold s.mu. Every record being folded in is
// already on disk: Put fsyncs each append.
func (s *Store) compactLocked() error {
	if s.appendErr != nil {
		return s.appendErr
	}
	keys := make([]Key, 0, len(s.mem))
	for k := range s.mem {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return string(keys[i][:]) < string(keys[j][:])
	})
	buf := make([]byte, 0, headerSize+8+len(keys)*snapEntrySize+4)
	buf = append(buf, EncodeHeader(snapMagic)...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = append(buf, k[:]...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.mem[k]))
	}
	buf = binary.LittleEndian.AppendUint32(buf, Checksum(buf[headerSize:]))
	if err := WriteAtomic(filepath.Join(s.dir, snapName), func(f *os.File) error {
		_, err := f.Write(buf)
		return err
	}); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}

	// The snapshot now holds everything; restart the WAL from its header.
	if err := s.wal.Truncate(headerSize); err != nil {
		return fmt.Errorf("store: truncating WAL after compaction: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	s.walRecords = 0
	s.stats.Compactions++
	s.mCompactions.Inc()
	s.publishSizes()
	return nil
}
