// Package store is the audit's durable memory: a dependency-free,
// crash-safe, content-addressed archive of size-estimate measurements.
//
// The paper's methodology is budget-bound — §5's ethics discussion limits
// "both the count and rate of API queries" — so every answer an auditor has
// already paid for is worth keeping. The store persists each measurement as
// one fixed-size, CRC-checked record in an append-only write-ahead log,
// keyed by a platform-qualified hash of the targeting spec's canonical form
// (stable across process restarts and across logically-equivalent spec
// reorderings). Periodic compaction folds the log into an immutable, sorted
// snapshot so cold starts load one index file instead of replaying history.
//
// Recovery never loses acknowledged data and never fails on the expected
// crash artifacts: a torn final record (the process died mid-append) is
// truncated away, and a record whose CRC does not match (a latent media
// fault) is skipped without abandoning the rest of the log.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Key is the content address of one measurement: the first 16 bytes of
// SHA-256 over the platform-qualified canonical spec (see KeyOf). Hashing is
// deliberately independent of Go's runtime map hash so keys are stable
// across processes, restarts, and builds.
type Key [16]byte

// KeyOf derives the store key for a measurement: the platform interface
// name qualifies the spec's canonical form, so identical specs on different
// platforms never collide, and logically-equal specs (clause or ref
// reorderings, duplicated options) collapse to one key because
// targeting.Canonical already normalizes them.
func KeyOf(platform, canonicalSpec string) Key {
	h := sha256.New()
	// Length-prefix the platform so no choice of names can move bytes
	// across the platform/spec boundary and collide two identities.
	var n [binary.MaxVarintLen64]byte
	h.Write(n[:binary.PutUvarint(n[:], uint64(len(platform)))])
	h.Write([]byte(platform))
	h.Write([]byte(canonicalSpec))
	var k Key
	copy(k[:], h.Sum(nil))
	return k
}

// String renders the key as hex, for logs and debugging.
func (k Key) String() string { return fmt.Sprintf("%x", k[:]) }

// File layout constants. Every file this package frames (the WAL, the
// snapshot, and the job log internal/jobs keeps) starts with a 16-byte
// header: an 8-byte magic, a 4-byte little-endian format version, and 4
// reserved bytes. WAL records are fixed-size so recovery can resynchronize
// on record boundaries after a CRC mismatch.
const (
	headerSize = 16
	formatV1   = 1

	// recordSize is one WAL record: key (16) + value (8) + reserved (4) +
	// CRC-32C (4) over the first 28 bytes.
	recordSize = 32
	recordBody = recordSize - 4
)

var (
	walMagic  = [8]byte{'A', 'D', 'S', 'T', 'W', 'A', 'L', '1'}
	snapMagic = [8]byte{'A', 'D', 'S', 'T', 'S', 'N', 'P', '1'}

	// castagnoli is the CRC-32C polynomial (hardware-accelerated on amd64
	// and arm64), the same checksum family journaling filesystems use.
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// Record decode errors.
var (
	// ErrShortRecord marks a torn tail: fewer bytes than one record remain.
	ErrShortRecord = errors.New("store: short record (torn tail)")
	// ErrBadCRC marks a record whose checksum does not match its body.
	ErrBadCRC = errors.New("store: record CRC mismatch")
)

// Record is one measurement in the log.
type Record struct {
	Key   Key
	Value int64
}

// appendRecord encodes r onto buf and returns the extended slice.
func appendRecord(buf []byte, r Record) []byte {
	var b [recordSize]byte
	copy(b[:16], r.Key[:])
	binary.LittleEndian.PutUint64(b[16:24], uint64(r.Value))
	// b[24:28] reserved, zero.
	binary.LittleEndian.PutUint32(b[28:32], Checksum(b[:recordBody]))
	return append(buf, b[:]...)
}

// decodeRecord decodes one record from the front of b. It returns
// ErrShortRecord when fewer than recordSize bytes remain (a torn tail) and
// ErrBadCRC when the checksum does not cover the body.
func decodeRecord(b []byte) (Record, error) {
	if len(b) < recordSize {
		return Record{}, ErrShortRecord
	}
	want := binary.LittleEndian.Uint32(b[28:32])
	if Checksum(b[:recordBody]) != want {
		return Record{}, ErrBadCRC
	}
	var r Record
	copy(r.Key[:], b[:16])
	r.Value = int64(binary.LittleEndian.Uint64(b[16:24]))
	return r, nil
}

// Checksum is the CRC-32C of b: the checksum over every record and frame
// this package and the job log write.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// EncodeHeader renders the 16-byte header of a file with the given magic.
func EncodeHeader(magic [8]byte) []byte {
	b := make([]byte, headerSize)
	copy(b[:8], magic[:])
	binary.LittleEndian.PutUint32(b[8:12], formatV1)
	return b
}

// checkHeader validates a file header against the expected magic.
func checkHeader(b []byte, magic [8]byte, what string) error {
	if len(b) < headerSize {
		return fmt.Errorf("store: %s header truncated (%d bytes)", what, len(b))
	}
	if [8]byte(b[:8]) != magic {
		return fmt.Errorf("store: %s has wrong magic %q", what, b[:8])
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != formatV1 {
		return fmt.Errorf("store: %s format version %d not supported", what, v)
	}
	return nil
}
