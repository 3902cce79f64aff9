package snapshot

import (
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/audience"
	"repro/internal/catalog"
	"repro/internal/platform"
	"repro/internal/population"
)

// LoadDeployment reconstructs a ready-to-serve deployment from a snapshot.
// want must describe the deployment the caller would otherwise build with
// platform.NewDeployment; the load refuses — with a typed error, never a
// silent substitution — any snapshot whose universe size, shard spans,
// content-affecting options, or catalog hash disagree.
//
// The file is mmap'd and stays mapped for the life of the process: every
// catalog option is served through an audience.CSet whose container
// payloads alias the mapped pages. Only the prelude, directory, and universe
// sections are read eagerly; catalog bytes fault in on first touch.
func LoadDeployment(path string, want platform.DeployOptions) (*platform.Deployment, *Info, error) {
	want = want.Normalized()
	data, closer, err := mapFile(path)
	if err != nil {
		return nil, nil, err
	}
	// The mapping must outlive the returned deployment (its sets alias the
	// pages), so the closer is deliberately dropped: the mapping lives until
	// process exit, like any other loaded read-only segment.
	_ = closer
	m, err := parseFile(data)
	if err != nil {
		return nil, nil, err
	}
	if m.UniverseSize != want.UniverseSize {
		return nil, nil, fmt.Errorf("%w: snapshot holds %d users, deployment wants %d",
			ErrUniverseMismatch, m.UniverseSize, want.UniverseSize)
	}
	if err := sameSpans(m.spans(), want.ShardSpans); err != nil {
		return nil, nil, err
	}
	if got := configHash(want); got != m.ConfigHash {
		return nil, nil, fmt.Errorf("%w: options hash %.12s, snapshot built from %.12s",
			ErrConfigMismatch, got, m.ConfigHash)
	}
	if got := contentHash(m); got != m.ContentHash {
		return nil, nil, fmt.Errorf("%w: content hash does not cover the directory", ErrCorrupt)
	}
	pre, err := decodeSections(data, m)
	if err != nil {
		return nil, nil, err
	}
	d, err := platform.NewDeploymentFrom(want, pre)
	if err != nil {
		return nil, nil, err
	}
	// The catalogs were re-derived by NewDeploymentFrom from want's seed and
	// current code; if they hash differently from what the snapshot's blobs
	// were built against, the sets would answer for the wrong options.
	if got := platform.CatalogHash(d); got != m.CatalogHash {
		return nil, nil, fmt.Errorf("%w: current code derives %.12s, snapshot built against %.12s",
			ErrCatalogMismatch, got, m.CatalogHash)
	}
	return d, infoFrom(m, path, int64(len(data))), nil
}

// decodeSections turns a parsed snapshot into platform.Prebuilt: universe
// sections are CRC-verified and copied out (they are read in full anyway);
// catalog sections are decoded over the mapped bytes without touching their
// payloads — DecodeCSet's structural validation bounds every later access,
// and VerifyFile covers their CRCs offline.
func decodeSections(data []byte, m *fileMeta) (*platform.Prebuilt, error) {
	pre := &platform.Prebuilt{
		Universes: make(map[string]population.UniverseData, len(m.Universes)),
		Views:     make(map[string]*platform.OptionViews, len(m.Platforms)),
	}
	for _, u := range m.Universes {
		if _, dup := pre.Universes[u.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate universe section %q", ErrCorrupt, u.Name)
		}
		sec := data[u.Off : u.Off+u.Len]
		if got := crc32.Checksum(sec, castagnoli); got != u.CRC {
			return nil, fmt.Errorf("%w: universe %s CRC mismatch", ErrCorrupt, u.Name)
		}
		ud, err := decodeUniverse(sec)
		if err != nil {
			return nil, fmt.Errorf("universe %s: %w", u.Name, err)
		}
		if len(ud.Cells) != u.Users || u.Users != m.LocalUsers {
			return nil, fmt.Errorf("%w: universe %s holds %d users, snapshot holds %d",
				ErrCorrupt, u.Name, len(ud.Cells), m.LocalUsers)
		}
		pre.Universes[u.Name] = ud
	}
	for _, want := range []string{catalog.PlatformFacebook, catalog.PlatformGoogle, catalog.PlatformLinkedIn} {
		if _, ok := pre.Universes[want]; !ok {
			return nil, fmt.Errorf("%w: missing universe section %q", ErrCorrupt, want)
		}
	}
	for i := range m.Platforms {
		p := &m.Platforms[i]
		if _, dup := pre.Views[p.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate platform section %q", ErrCorrupt, p.Name)
		}
		sec := data[p.Off : p.Off+p.Len]
		views := &platform.OptionViews{}
		var err error
		if views.Attributes, err = decodeDim(sec, p.Attrs, m.LocalUsers); err != nil {
			return nil, fmt.Errorf("platform %s attrs: %w", p.Name, err)
		}
		if views.Topics, err = decodeDim(sec, p.Topics, m.LocalUsers); err != nil {
			return nil, fmt.Errorf("platform %s topics: %w", p.Name, err)
		}
		if views.Placements, err = decodeDim(sec, p.Placements, m.LocalUsers); err != nil {
			return nil, fmt.Errorf("platform %s placements: %w", p.Name, err)
		}
		pre.Views[p.Name] = views
	}
	for _, want := range []string{
		catalog.PlatformFacebookRestricted, catalog.PlatformFacebook,
		catalog.PlatformGoogle, catalog.PlatformLinkedIn,
	} {
		if _, ok := pre.Views[want]; !ok {
			return nil, fmt.Errorf("%w: missing platform section %q", ErrCorrupt, want)
		}
	}
	return pre, nil
}

// decodeDim decodes one catalog dimension's sets over a section's bytes.
func decodeDim(sec []byte, locs []optionLoc, users int) ([]*audience.CSet, error) {
	views := make([]*audience.CSet, len(locs))
	for i, loc := range locs {
		v, err := audience.DecodeCSet(sec[loc.Off : loc.Off+loc.Len])
		if err != nil {
			return nil, fmt.Errorf("%w: option %d: %v", ErrCorrupt, i, err)
		}
		if v.Len() != users {
			return nil, fmt.Errorf("%w: option %d spans %d users, snapshot holds %d", ErrCorrupt, i, v.Len(), users)
		}
		views[i] = v
	}
	return views, nil
}

// VerifyFile checks every byte of a snapshot: prelude and directory (as any
// load does) plus the CRC of every section, including the catalog sections
// that loads deliberately skip. Intended for offline checks and tests.
func VerifyFile(path string) (*Info, error) {
	data, closer, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	defer closer()
	m, err := parseFile(data)
	if err != nil {
		return nil, err
	}
	if got := contentHash(m); got != m.ContentHash {
		return nil, fmt.Errorf("%w: content hash does not cover the directory", ErrCorrupt)
	}
	for _, u := range m.Universes {
		if got := crc32.Checksum(data[u.Off:u.Off+u.Len], castagnoli); got != u.CRC {
			return nil, fmt.Errorf("%w: universe %s CRC mismatch", ErrCorrupt, u.Name)
		}
	}
	for i := range m.Platforms {
		p := &m.Platforms[i]
		if got := crc32.Checksum(data[p.Off:p.Off+p.Len], castagnoli); got != p.CRC {
			return nil, fmt.Errorf("%w: platform %s CRC mismatch", ErrCorrupt, p.Name)
		}
	}
	if _, err := decodeSections(data, m); err != nil {
		return nil, err
	}
	return infoFrom(m, path, int64(len(data))), nil
}

// mapFile maps path read-only. On platforms without mmap support it falls
// back to reading the file into memory; either way the returned closer
// releases the resources (loads drop it on purpose — see LoadDeployment).
func mapFile(path string) ([]byte, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	if st.Size() == 0 {
		return nil, func() {}, nil
	}
	return mapRO(f, st.Size())
}
