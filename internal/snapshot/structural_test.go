package snapshot

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/audience"
	"repro/internal/obs"
	"repro/internal/population"
)

// TestValidateSpanShapeUnit walks every refusal branch of the span-shape
// validator directly: these are the shapes a forged or bit-rotted directory
// could present, and each must be named, not crashed on.
func TestValidateSpanShapeUnit(t *testing.T) {
	cases := []struct {
		name string
		m    fileMeta
		want string // substring of the error, "" for accept
	}{
		{"full ok", fileMeta{UniverseSize: 100, LocalUsers: 100}, ""},
		{"full with spans", fileMeta{UniverseSize: 100, LocalUsers: 100, ShardSpans: [][2]int{{0, 100}}}, "unsharded snapshot carries"},
		{"full short", fileMeta{UniverseSize: 100, LocalUsers: 99}, "full snapshot holds"},
		{"shard ok", fileMeta{Sharded: true, UniverseSize: 100, LocalUsers: 50, ShardSpans: [][2]int{{0, 25}, {75, 100}}}, ""},
		{"shard empty span", fileMeta{Sharded: true, UniverseSize: 100, LocalUsers: 0, ShardSpans: [][2]int{{10, 10}}}, "not ascending"},
		{"shard descending", fileMeta{Sharded: true, UniverseSize: 100, LocalUsers: 50, ShardSpans: [][2]int{{50, 75}, {0, 25}}}, "not ascending"},
		{"shard past end", fileMeta{Sharded: true, UniverseSize: 100, LocalUsers: 50, ShardSpans: [][2]int{{80, 130}}}, "not ascending"},
		{"shard wrong total", fileMeta{Sharded: true, UniverseSize: 100, LocalUsers: 60, ShardSpans: [][2]int{{0, 50}}}, "spans cover"},
	}
	for _, tc := range cases {
		err := validateSpanShape(&tc.m)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want ErrCorrupt containing %q", tc.name, err, tc.want)
		}
	}
}

// TestSameSpansUnit pins the nil-vs-empty distinction (full deployment vs
// sharded-with-no-partitions) and element-wise comparison.
func TestSameSpansUnit(t *testing.T) {
	full := []population.Span(nil)
	if err := sameSpans(full, nil); err != nil {
		t.Fatalf("nil vs nil: %v", err)
	}
	if err := sameSpans([]population.Span{}, nil); !errors.Is(err, ErrSpanMismatch) {
		t.Fatalf("empty vs nil must mismatch, got %v", err)
	}
	a := []population.Span{{Lo: 0, Hi: 10}, {Lo: 20, Hi: 30}}
	if err := sameSpans(a, a); err != nil {
		t.Fatalf("identical spans: %v", err)
	}
	if err := sameSpans(a, a[:1]); !errors.Is(err, ErrSpanMismatch) {
		t.Fatalf("length skew: got %v", err)
	}
	b := []population.Span{{Lo: 0, Hi: 10}, {Lo: 20, Hi: 31}}
	if err := sameSpans(a, b); !errors.Is(err, ErrSpanMismatch) {
		t.Fatalf("element skew: got %v", err)
	}
}

func TestPad8Align8(t *testing.T) {
	if got := pad8([]byte{1, 2, 3}); len(got) != 8 || got[0] != 1 || got[7] != 0 {
		t.Fatalf("pad8 of 3 bytes: %v", got)
	}
	eight := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if got := pad8(eight); len(got) != 8 {
		t.Fatalf("pad8 of aligned input grew to %d", len(got))
	}
	for n, want := range map[int]int{0: 0, 1: 8, 7: 8, 8: 8, 9: 16} {
		if got := align8(n); got != want {
			t.Errorf("align8(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestDecodeDimRejectsBadBlobs drives the per-option decode path directly:
// undecodable bytes and size-skewed options are both ErrCorrupt.
func TestDecodeDimRejectsBadBlobs(t *testing.T) {
	s := audience.New(64)
	s.Add(3)
	s.Add(40)
	blob := audience.FromSet(s).Blob()
	locs := []optionLoc{{Off: 0, Len: int64(len(blob))}}

	views, err := decodeDim(blob, locs, 64)
	if err != nil || len(views) != 1 || views[0].Count() != 2 {
		t.Fatalf("good blob: views=%v err=%v", views, err)
	}
	if _, err := decodeDim(blob, locs, 128); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("user-count skew: got %v", err)
	}
	junk := []byte("definitely not an encoded cset blob")
	if _, err := decodeDim(junk, []optionLoc{{Off: 0, Len: int64(len(junk))}}, 64); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("junk blob: got %v", err)
	}
}

// TestLoadRejectsStructuralSkew forges directories that pass every CRC but
// describe an impossible layout — duplicate or missing sections, user-count
// lies — and pins that decodeSections names each one as ErrCorrupt.
func TestLoadRejectsStructuralSkew(t *testing.T) {
	opts := snapOpts(11, 2048)
	goodPath, _, _ := buildAndWrite(t, opts)
	good, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(*fileMeta)
	}{
		{"duplicate universe", func(m *fileMeta) { m.Universes[1].Name = m.Universes[0].Name }},
		{"missing universe", func(m *fileMeta) { m.Universes[2].Name = "nosuch" }},
		{"universe user lie", func(m *fileMeta) { m.Universes[0].Users++ }},
		{"duplicate platform", func(m *fileMeta) { m.Platforms[1].Name = m.Platforms[0].Name }},
		{"missing platform", func(m *fileMeta) { m.Platforms[len(m.Platforms)-1].Name = "bogus" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "forged.adusnap")
			if err := os.WriteFile(p, good, 0o644); err != nil {
				t.Fatal(err)
			}
			rewriteMeta(t, p, tc.mutate)
			o := opts
			o.Metrics = obs.NewRegistry()
			if _, _, err := LoadDeployment(p, o); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestVerifyFileCatchesUniverseAndDirectorySkew rounds out VerifyFile's own
// checks: a flipped universe byte and a forged content hash (directory
// re-signed so both prelude CRCs pass) must each fail verification.
func TestVerifyFileCatchesUniverseAndDirectorySkew(t *testing.T) {
	opts := snapOpts(11, 2048)
	goodPath, _, _ := buildAndWrite(t, opts)
	good, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}

	flipped := append([]byte(nil), good...)
	flipped[pageAlign+16] ^= 0x04
	p := filepath.Join(t.TempDir(), "uniflip.adusnap")
	if err := os.WriteFile(p, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyFile(p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped universe byte: got %v", err)
	}

	// Forge the stored content hash but keep the meta and prelude CRCs
	// valid — only VerifyFile's recomputation can catch this.
	forged := filepath.Join(t.TempDir(), "hash.adusnap")
	if err := os.WriteFile(forged, good, 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(forged)
	if err != nil {
		t.Fatal(err)
	}
	metaOff := binary.LittleEndian.Uint64(data[16:24])
	m, err := parseFile(data)
	if err != nil {
		t.Fatal(err)
	}
	m.ContentHash = strings.Repeat("0", 64)
	metaBytes, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data[:metaOff], metaBytes...)
	binary.LittleEndian.PutUint64(data[24:32], uint64(len(metaBytes)))
	binary.LittleEndian.PutUint32(data[32:36], crc32.Checksum(metaBytes, castagnoli))
	binary.LittleEndian.PutUint32(data[36:40], crc32.Checksum(data[0:36], castagnoli))
	if err := os.WriteFile(forged, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyFile(forged); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged content hash: got %v", err)
	}
}
