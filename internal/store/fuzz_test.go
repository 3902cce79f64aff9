package store

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// FuzzRecordDecode drives arbitrary bytes through the WAL record decoder:
// it must never panic, must classify every input as a valid record, a torn
// tail, or a CRC mismatch, and must round-trip every record it accepts.
func FuzzRecordDecode(f *testing.F) {
	// Seed corpus: a valid record, boundary-length torn tails, a bit-flipped
	// record, and all-zero/all-ones blocks.
	valid := appendRecord(nil, Record{Key: KeyOf("facebook", "(attribute:1)"), Value: 123456})
	f.Add(valid)
	f.Add(valid[:recordSize-1])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x00}, recordSize))
	f.Add(bytes.Repeat([]byte{0xFF}, recordSize+7))
	flipped := append([]byte(nil), valid...)
	flipped[3] ^= 0x01
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data)
		switch {
		case errors.Is(err, ErrShortRecord):
			if len(data) >= recordSize {
				t.Fatalf("ErrShortRecord on %d bytes (record size %d)", len(data), recordSize)
			}
		case errors.Is(err, ErrBadCRC):
			if len(data) < recordSize {
				t.Fatalf("ErrBadCRC on a short input (%d bytes)", len(data))
			}
		case err == nil:
			if len(data) < recordSize {
				t.Fatalf("decoded a record from %d bytes", len(data))
			}
			// Accepted records must re-encode to the bytes that produced
			// them (up to the reserved field, which encode zeroes).
			re := appendRecord(nil, rec)
			if !bytes.Equal(re[:24], data[:24]) {
				t.Fatalf("round-trip mismatch:\n in %x\nout %x", data[:recordSize], re)
			}
		default:
			t.Fatalf("unexpected error class: %v", err)
		}
	})
}

// FuzzStoreReplay writes a valid header plus arbitrary bytes as the WAL and
// opens the store: recovery must neither panic nor fail, and must be
// idempotent — a second open loads the same records and leaves the file
// byte-identical, truncating nothing more.
func FuzzStoreReplay(f *testing.F) {
	rec := appendRecord(nil, Record{Key: KeyOf("facebook", "(attribute:1)"), Value: 123456})
	other := appendRecord(nil, Record{Key: KeyOf("google", "(topic:2)"), Value: -7})
	flipped := append([]byte(nil), rec...)
	flipped[20] ^= 0x01
	f.Add([]byte{})
	f.Add(rec)
	f.Add(append(append([]byte(nil), flipped...), other...))            // skipped, then kept
	f.Add(append(append([]byte(nil), rec...), other[:recordSize-5]...)) // torn tail
	f.Add(bytes.Repeat([]byte{0xFF}, 2*recordSize+3))

	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(walPath(dir), append(EncodeHeader(walMagic), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		load := func() (map[Key]int64, []byte) {
			s, err := Open(dir, Options{Metrics: obs.NewRegistry()})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			mem := make(map[Key]int64, len(s.mem))
			for k, v := range s.mem {
				mem[k] = v
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			file, err := os.ReadFile(walPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			return mem, file
		}
		mem1, file1 := load()
		mem2, file2 := load()
		if !reflect.DeepEqual(mem1, mem2) {
			t.Fatalf("second open loaded %d records, first %d", len(mem2), len(mem1))
		}
		if !bytes.Equal(file1, file2) {
			t.Fatalf("second open changed the WAL: %d bytes, then %d", len(file1), len(file2))
		}
	})
}
