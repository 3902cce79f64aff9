package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Snapshot layout: header (16 bytes, snapMagic) + count (8 bytes LE) +
// count entries of key (16) + value (8), sorted by key, + CRC-32C (4 bytes)
// over everything after the header. The file is written to a temp name,
// fsynced, and renamed into place, so a snapshot is either whole or absent
// — compaction can crash at any instant without losing the previous
// snapshot or the WAL it was folding in.
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
	if crc32.Checksum(body, castagnoli) != sum {
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
// truncates the WAL. Callers hold s.mu.
func (s *Store) compactLocked() error {
	if s.appendErr != nil {
		return s.appendErr
	}
	// Durability first: every record being folded in must be on disk
	// before the WAL that holds it is truncated.
	if s.wal != nil && s.unsynced > 0 {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("store: pre-compaction fsync: %w", err)
		}
		s.unsynced = 0
	}

	keys := make([]Key, 0, len(s.mem))
	for k := range s.mem {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return string(keys[i][:]) < string(keys[j][:])
	})
	body := make([]byte, 8, 8+len(keys)*snapEntrySize+4)
	binary.LittleEndian.PutUint64(body[:8], uint64(len(keys)))
	var e [snapEntrySize]byte
	for _, k := range keys {
		copy(e[:16], k[:])
		binary.LittleEndian.PutUint64(e[16:24], uint64(s.mem[k]))
		body = append(body, e[:]...)
	}
	body = binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))

	tmp := filepath.Join(s.dir, tmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating snapshot temp: %w", err)
	}
	if _, err := f.Write(encodeHeader(snapMagic)); err == nil {
		_, err = f.Write(body)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: installing snapshot: %w", err)
	}
	if err := SyncDir(s.dir); err != nil {
		return err
	}

	// The snapshot now holds everything; restart the WAL from its header.
	if s.wal != nil {
		if err := s.wal.Truncate(headerSize); err != nil {
			return fmt.Errorf("store: truncating WAL after compaction: %w", err)
		}
		if _, err := s.wal.Seek(headerSize, 0); err != nil {
			return err
		}
		if err := s.wal.Sync(); err != nil {
			return err
		}
	}
	s.walRecords = 0
	s.stats.Compactions++
	s.mCompactions.Inc()
	s.publishSizes()
	return nil
}

// SyncDir fsyncs a directory so a just-renamed file survives power loss.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: opening dir for sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: dir fsync: %w", err)
	}
	return nil
}
