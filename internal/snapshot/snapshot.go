// Package snapshot persists a fully built deployment's universe draws and
// compressed catalog to one versioned, CRC-checked, page-aligned file, and
// reconstructs a ready-to-serve deployment from it by mmapping the file and
// decoding every catalog option as an audience.CSet over the mapped bytes.
//
// Building a deployment is O(universe × catalog) hash draws — minutes of CPU
// at the 2^22+ scales the benchmarks run — repeated on every platformd boot,
// shard failover, and jobs-service restart. A snapshot moves that cost to a
// single build: loading parses a small directory, reconstructs the universes
// from their persisted per-user arrays (population.FromData, no hashing),
// and serves every catalog query through compressed sets whose container
// payloads alias the mapped pages. Boot cost is O(directory), steady RSS is the
// kernel page cache (shared across shard processes on one host), and cold
// containers fault in lazily on first touch.
//
// File layout (ADUSNAP1, all integers little-endian):
//
//	prelude (64 bytes, at offset 0):
//	  [0:8)   magic "ADUSNAP1"
//	  [8:12)  u32 format version (1)
//	  [12:16) u32 reserved (0)
//	  [16:24) u64 meta offset   — the JSON directory sits at the END of
//	  [24:32) u64 meta length     the file so sections stream out first
//	  [32:36) u32 meta CRC-32C
//	  [36:40) u32 prelude CRC-32C over bytes [0:36)
//	  [40:64) zero
//	sections (each page-aligned, 4096):
//	  one universe section per platform universe: the packed per-user
//	  cells/factors/tiers/regions arrays, CRC-checked at load (they are
//	  read in full anyway);
//	  one catalog section per interface: every option's CSet blob
//	  (audience.CSet.Blob), 8-aligned, never copied at load — the section
//	  CRC is stored but verified only by VerifyFile so loading does not
//	  page the catalog in.
//	meta (JSON, at the recorded offset):
//	  builder version, creation time, config/catalog/content hashes,
//	  universe size + seed + shard spans, and per-section directories
//	  (option ID → blob offset/length within its section).
//
// Staleness is rejected, never silently served: the prelude pins format and
// CRC integrity, BuilderVersion pins the generator code, ConfigHash pins the
// content-affecting DeployOptions, UniverseSize/ShardSpans pin the ID space,
// and CatalogHash — computed over option model parameters, which are
// seed-derived — must match the catalog the *current* code derives for the
// requested options, so both seed skew and catalog-code drift fail loudly
// with typed errors.
package snapshot

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/population"
)

// Format constants.
const (
	magic         = "ADUSNAP1"
	formatVersion = 1
	preludeSize   = 64
	pageAlign     = 4096

	// BuilderVersion names the generation semantics baked into this build:
	// the universe draw functions, catalog generators, and CSet encoding.
	// Loads require strict equality, so bump it whenever any of those
	// change in a way that alters bits.
	BuilderVersion = "adusnap-builder/1"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Typed load failures. Mismatch errors mean the file is intact but built
// for a different deployment; corruption errors mean the bytes are wrong.
var (
	ErrNotSnapshot      = errors.New("snapshot: not a snapshot file")
	ErrVersion          = errors.New("snapshot: snapshot version not supported by this build")
	ErrTruncated        = errors.New("snapshot: truncated snapshot")
	ErrCorrupt          = errors.New("snapshot: corrupt snapshot")
	ErrConfigMismatch   = errors.New("snapshot: deployment options do not match snapshot")
	ErrUniverseMismatch = errors.New("snapshot: universe size does not match snapshot")
	ErrSpanMismatch     = errors.New("snapshot: shard spans do not match snapshot")
	ErrCatalogMismatch  = errors.New("snapshot: catalog hash does not match snapshot")
)

// optionLoc locates one catalog option's encoded CSet blob within its
// platform section (offsets relative to the section start).
type optionLoc struct {
	Off int64 `json:"o"`
	Len int64 `json:"l"`
}

// universeSection locates one universe's packed per-user arrays.
type universeSection struct {
	Name  string `json:"name"`
	Users int    `json:"users"`
	Off   int64  `json:"off"`
	Len   int64  `json:"len"`
	CRC   uint32 `json:"crc"`
}

// platformSection locates one interface's catalog blobs and their directory.
type platformSection struct {
	Name       string      `json:"name"`
	Off        int64       `json:"off"`
	Len        int64       `json:"len"`
	CRC        uint32      `json:"crc"`
	Attrs      []optionLoc `json:"attrs"`
	Topics     []optionLoc `json:"topics,omitempty"`
	Placements []optionLoc `json:"placements,omitempty"`
}

// fileMeta is the JSON directory at the tail of the file.
type fileMeta struct {
	BuilderVersion string            `json:"builder_version"`
	CreatedUnix    int64             `json:"created_unix"`
	ConfigHash     string            `json:"config_hash"`
	CatalogHash    string            `json:"catalog_hash"`
	ContentHash    string            `json:"content_hash"`
	Seed           uint64            `json:"seed"`
	UniverseSize   int               `json:"universe_size"`
	LocalUsers     int               `json:"local_users"`
	Sharded        bool              `json:"sharded"`
	ShardSpans     [][2]int          `json:"shard_spans,omitempty"`
	Universes      []universeSection `json:"universes"`
	Platforms      []platformSection `json:"platforms"`
}

// spans converts the wire form back to population spans (nil when the
// snapshot holds a full, unsharded deployment).
func (m *fileMeta) spans() []population.Span {
	if !m.Sharded {
		return nil
	}
	out := make([]population.Span, len(m.ShardSpans))
	for i, s := range m.ShardSpans {
		out[i] = population.Span{Lo: s[0], Hi: s[1]}
	}
	return out
}

// Info describes a parsed snapshot: what operators see in /healthz and
// /debug/provenance, and what tests assert against.
type Info struct {
	Path         string
	FileSize     int64
	CreatedAt    time.Time
	ConfigHash   string
	CatalogHash  string
	ContentHash  string
	Seed         uint64
	UniverseSize int
	LocalUsers   int
	Sharded      bool
	Spans        []population.Span
}

// infoFrom assembles the public Info from a parsed directory.
func infoFrom(m *fileMeta, path string, size int64) *Info {
	return &Info{
		Path:         path,
		FileSize:     size,
		CreatedAt:    time.Unix(m.CreatedUnix, 0).UTC(),
		ConfigHash:   m.ConfigHash,
		CatalogHash:  m.CatalogHash,
		ContentHash:  m.ContentHash,
		Seed:         m.Seed,
		UniverseSize: m.UniverseSize,
		LocalUsers:   m.LocalUsers,
		Sharded:      m.Sharded,
		Spans:        m.spans(),
	}
}

// parseFile validates the prelude and directory of an in-memory (typically
// mmap'd) snapshot: magic, format version, both CRCs, JSON shape, builder
// version, and every section's bounds. It reads only the prelude and the
// meta tail — no section payload is touched, so parsing a cold file faults
// in a handful of pages. Corruption never panics; it surfaces as a typed
// error (FuzzSnapshotDecode drives this with arbitrary bytes).
func parseFile(data []byte) (*fileMeta, error) {
	if len(data) < preludeSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte prelude", ErrTruncated, len(data), preludeSize)
	}
	if string(data[0:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrNotSnapshot, data[0:8])
	}
	if got := crc32.Checksum(data[0:36], castagnoli); got != binary.LittleEndian.Uint32(data[36:40]) {
		return nil, fmt.Errorf("%w: prelude CRC mismatch", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != formatVersion {
		return nil, fmt.Errorf("%w: format version %d, this build reads %d", ErrVersion, v, formatVersion)
	}
	metaOff := binary.LittleEndian.Uint64(data[16:24])
	metaLen := binary.LittleEndian.Uint64(data[24:32])
	if metaOff < preludeSize || metaLen == 0 || metaOff+metaLen < metaOff || metaOff+metaLen > uint64(len(data)) {
		return nil, fmt.Errorf("%w: meta [%d, %d) outside %d-byte file", ErrTruncated, metaOff, metaOff+metaLen, len(data))
	}
	metaBytes := data[metaOff : metaOff+metaLen]
	if got := crc32.Checksum(metaBytes, castagnoli); got != binary.LittleEndian.Uint32(data[32:36]) {
		return nil, fmt.Errorf("%w: meta CRC mismatch", ErrCorrupt)
	}
	var m fileMeta
	if err := json.Unmarshal(metaBytes, &m); err != nil {
		return nil, fmt.Errorf("%w: meta: %v", ErrCorrupt, err)
	}
	if m.BuilderVersion != BuilderVersion {
		return nil, fmt.Errorf("%w: built by %q, this build is %q", ErrVersion, m.BuilderVersion, BuilderVersion)
	}
	if m.UniverseSize <= 0 || m.LocalUsers < 0 || m.LocalUsers > m.UniverseSize {
		return nil, fmt.Errorf("%w: universe %d with %d local users", ErrCorrupt, m.UniverseSize, m.LocalUsers)
	}
	sectionEnd := int64(preludeSize)
	checkSection := func(what string, off, length int64) error {
		if off < int64(preludeSize) || length < 0 || off%pageAlign != 0 ||
			off+length < off || uint64(off+length) > metaOff {
			return fmt.Errorf("%w: %s section [%d, %d) invalid", ErrCorrupt, what, off, off+length)
		}
		if off < sectionEnd {
			return fmt.Errorf("%w: %s section [%d, %d) overlaps a previous section", ErrCorrupt, what, off, off+length)
		}
		sectionEnd = off + length
		return nil
	}
	for i := range m.Universes {
		u := &m.Universes[i]
		if err := checkSection("universe "+u.Name, u.Off, u.Len); err != nil {
			return nil, err
		}
		if u.Users < 0 || u.Users > m.LocalUsers {
			return nil, fmt.Errorf("%w: universe %s holds %d users", ErrCorrupt, u.Name, u.Users)
		}
	}
	for i := range m.Platforms {
		p := &m.Platforms[i]
		if err := checkSection("platform "+p.Name, p.Off, p.Len); err != nil {
			return nil, err
		}
		for _, dim := range [][]optionLoc{p.Attrs, p.Topics, p.Placements} {
			for _, loc := range dim {
				if loc.Off < 0 || loc.Len <= 0 || loc.Off%8 != 0 ||
					loc.Off+loc.Len < loc.Off || loc.Off+loc.Len > p.Len {
					return nil, fmt.Errorf("%w: platform %s option blob [%d, %d) outside its %d-byte section",
						ErrCorrupt, p.Name, loc.Off, loc.Off+loc.Len, p.Len)
				}
			}
		}
	}
	if err := validateSpanShape(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// validateSpanShape sanity-checks the stored spans so later comparisons and
// FromData never see garbage shapes.
func validateSpanShape(m *fileMeta) error {
	if !m.Sharded {
		if len(m.ShardSpans) != 0 {
			return fmt.Errorf("%w: unsharded snapshot carries %d spans", ErrCorrupt, len(m.ShardSpans))
		}
		if m.LocalUsers != m.UniverseSize {
			return fmt.Errorf("%w: full snapshot holds %d of %d users", ErrCorrupt, m.LocalUsers, m.UniverseSize)
		}
		return nil
	}
	total, prev := 0, 0
	for i, s := range m.ShardSpans {
		if s[0] < prev || s[1] <= s[0] || s[1] > m.UniverseSize {
			return fmt.Errorf("%w: span %d [%d, %d) not ascending within the universe", ErrCorrupt, i, s[0], s[1])
		}
		prev = s[1]
		total += s[1] - s[0]
	}
	if total != m.LocalUsers {
		return fmt.Errorf("%w: spans cover %d users, snapshot holds %d", ErrCorrupt, total, m.LocalUsers)
	}
	return nil
}
