package snapshot

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"repro/internal/catalog"
	"repro/internal/platform"
	"repro/internal/population"
	"repro/internal/store"
	"repro/internal/targeting"
)

// configHash fingerprints the content-affecting deployment options: the
// fields that change which bits end up in a snapshot. Presentation and
// engine knobs — ExactEstimates (rounder choice), Compressed (the source's
// catalog posture: compressed blobs are canonical, and a snapshot boot
// serves compressed-only either way), Metrics — are deliberately excluded,
// so one snapshot serves e.g. both the rounded and the exact-estimates
// ablation of the same universe; the loader derives those from the
// requested options.
func configHash(opts platform.DeployOptions) string {
	o := opts.Normalized()
	h := sha256.New()
	fmt.Fprintf(h, "seed %d size %d nolatent %v uniformactivity %v sharded %v\n",
		o.Seed, o.UniverseSize, o.NoLatentFactors, o.UniformActivity, o.ShardSpans != nil)
	for _, s := range o.ShardSpans {
		fmt.Fprintf(h, "span %d %d\n", s.Lo, s.Hi)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// contentHash folds the identity and every section's CRC and size into one
// operator-visible fingerprint. It is recomputable from the directory alone,
// so reporting it from /healthz never pages catalog sections in.
func contentHash(m *fileMeta) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %s %s %d %d %d\n",
		m.BuilderVersion, m.ConfigHash, m.CatalogHash, m.Seed, m.UniverseSize, m.LocalUsers)
	for _, u := range m.Universes {
		fmt.Fprintf(h, "u %s %d %d %d\n", u.Name, u.Users, u.Len, u.CRC)
	}
	for _, p := range m.Platforms {
		fmt.Fprintf(h, "p %s %d %d %d %d %d\n",
			p.Name, p.Len, p.CRC, len(p.Attrs), len(p.Topics), len(p.Placements))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// encodeUniverse packs a universe's per-user arrays into one section:
// u64 user count, then the cells, factors (u32 LE), tiers, and regions
// arrays, each padded to 8 bytes.
func encodeUniverse(data population.UniverseData) []byte {
	n := len(data.Cells)
	buf := make([]byte, 0, 8+align8(n)+4*n+2*align8(n))
	var w8 [8]byte
	binary.LittleEndian.PutUint64(w8[:], uint64(n))
	buf = append(buf, w8[:]...)
	for _, c := range data.Cells {
		buf = append(buf, byte(c))
	}
	buf = pad8(buf)
	for _, f := range data.Factors {
		binary.LittleEndian.PutUint32(w8[:4], f)
		buf = append(buf, w8[:4]...)
	}
	buf = pad8(buf)
	buf = pad8(append(buf, data.Tiers...))
	buf = pad8(append(buf, data.Regions...))
	return buf
}

// decodeUniverse inverts encodeUniverse, copying the arrays out of the
// section (the universe retains them for the process lifetime; per-user
// state is the one part of a snapshot that must be resident anyway).
func decodeUniverse(sec []byte) (population.UniverseData, error) {
	var zero population.UniverseData
	if len(sec) < 8 {
		return zero, fmt.Errorf("%w: %d-byte universe section", ErrCorrupt, len(sec))
	}
	n64 := binary.LittleEndian.Uint64(sec[0:8])
	if n64 > uint64(len(sec)) { // cheap overflow guard; exact length checked below
		return zero, fmt.Errorf("%w: universe section claims %d users in %d bytes", ErrCorrupt, n64, len(sec))
	}
	n := int(n64)
	want := 8 + align8(n) + align8(4*n) + 2*align8(n)
	if len(sec) != want {
		return zero, fmt.Errorf("%w: universe section is %d bytes, %d users need %d", ErrCorrupt, len(sec), n, want)
	}
	d := population.UniverseData{
		Cells:   make([]population.Cell, n),
		Factors: make([]uint32, n),
		Tiers:   make([]uint8, n),
		Regions: make([]uint8, n),
	}
	off := 8
	for i := 0; i < n; i++ {
		d.Cells[i] = population.Cell(sec[off+i])
	}
	off += align8(n)
	for i := 0; i < n; i++ {
		d.Factors[i] = binary.LittleEndian.Uint32(sec[off+4*i:])
	}
	off += align8(4 * n)
	copy(d.Tiers, sec[off:off+n])
	off += align8(n)
	copy(d.Regions, sec[off:off+n])
	return d, nil
}

func pad8(b []byte) []byte {
	for len(b)%8 != 0 {
		b = append(b, 0)
	}
	return b
}

// align8 rounds up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }

// sectionWriter streams one page-aligned section to the file, tracking its
// CRC and length so the directory can be assembled without buffering whole
// catalog sections in memory.
type sectionWriter struct {
	w   *bufio.Writer
	off int64 // absolute file offset of the next byte
	crc uint32
	len int64 // bytes written to the open section
}

// beginSection pads to the next page boundary and resets the running CRC.
func (sw *sectionWriter) beginSection() (off int64, err error) {
	for sw.off%pageAlign != 0 {
		if err := sw.w.WriteByte(0); err != nil {
			return 0, err
		}
		sw.off++
	}
	sw.crc = 0
	sw.len = 0
	return sw.off, nil
}

func (sw *sectionWriter) write(b []byte) error {
	if _, err := sw.w.Write(b); err != nil {
		return err
	}
	sw.crc = crc32.Update(sw.crc, castagnoli, b)
	sw.off += int64(len(b))
	sw.len += int64(len(b))
	return nil
}

// WriteDeployment serializes a deployment to path atomically (temp file +
// rename): every universe's per-user arrays and every interface's catalog
// options as compressed blobs, bound to the normalized deployment options
// and the catalog hash so LoadDeployment can refuse anything stale. opts
// must be the options d was built with; the writer cross-checks what it can
// (seed, sizes, spans) and refuses on disagreement. Works on dense,
// compressed, shard (writes only held partitions), and snapshot-backed
// deployments alike.
func WriteDeployment(path string, d *platform.Deployment, opts platform.DeployOptions) (*Info, error) {
	opts = opts.Normalized()
	fbUni := d.Facebook.Universe()
	if got := fbUni.Config().Seed; got != opts.Seed {
		return nil, fmt.Errorf("snapshot: deployment built from seed %d, options say %d", got, opts.Seed)
	}
	if got := fbUni.GlobalSize(); got != opts.UniverseSize {
		return nil, fmt.Errorf("snapshot: deployment universe is %d users, options say %d", got, opts.UniverseSize)
	}
	if err := sameSpans(fbUni.Spans(), opts.ShardSpans); err != nil {
		return nil, err
	}

	m := &fileMeta{
		BuilderVersion: BuilderVersion,
		CreatedUnix:    time.Now().Unix(),
		ConfigHash:     configHash(opts),
		CatalogHash:    platform.CatalogHash(d),
		Seed:           opts.Seed,
		UniverseSize:   opts.UniverseSize,
		LocalUsers:     fbUni.Size(),
		Sharded:        opts.ShardSpans != nil,
	}
	for _, s := range opts.ShardSpans {
		m.ShardSpans = append(m.ShardSpans, [2]int{s.Lo, s.Hi})
	}

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	defer func() {
		if f != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	sw := &sectionWriter{w: bufio.NewWriterSize(f, 1<<20)}
	var prelude [preludeSize]byte
	if err := sw.write(prelude[:]); err != nil {
		return nil, err
	}

	// Universe sections: one per distinct universe, keyed by owner platform.
	for _, uni := range []struct {
		name string
		u    *population.Universe
	}{
		{catalog.PlatformFacebook, fbUni},
		{catalog.PlatformGoogle, d.Google.Universe()},
		{catalog.PlatformLinkedIn, d.LinkedIn.Universe()},
	} {
		off, err := sw.beginSection()
		if err != nil {
			return nil, err
		}
		if err := sw.write(encodeUniverse(uni.u.Data())); err != nil {
			return nil, err
		}
		m.Universes = append(m.Universes, universeSection{
			Name: uni.name, Users: uni.u.Size(), Off: off, Len: sw.len, CRC: sw.crc,
		})
	}

	// Catalog sections: one per interface, each option's blob written as it
	// is. Dense interfaces compress one option at a time, so peak memory is
	// one blob, not one catalog.
	for _, p := range d.Interfaces() {
		off, err := sw.beginSection()
		if err != nil {
			return nil, err
		}
		sec := platformSection{Name: p.Name(), Off: off}
		writeDim := func(kind targeting.Kind, count int) ([]optionLoc, error) {
			locs := make([]optionLoc, count)
			for i := 0; i < count; i++ {
				c, err := p.OptionCSet(targeting.Ref{Kind: kind, ID: i})
				if err != nil {
					return nil, err
				}
				blob := c.Blob()
				locs[i] = optionLoc{Off: sw.len, Len: int64(len(blob))}
				if err := sw.write(blob); err != nil {
					return nil, err
				}
			}
			return locs, nil
		}
		if sec.Attrs, err = writeDim(targeting.KindAttribute, len(p.Catalog().Attributes)); err != nil {
			return nil, err
		}
		if sec.Topics, err = writeDim(targeting.KindTopic, len(p.Catalog().Topics)); err != nil {
			return nil, err
		}
		if sec.Placements, err = writeDim(targeting.KindPlacement, len(p.Catalog().Placements)); err != nil {
			return nil, err
		}
		sec.Len, sec.CRC = sw.len, sw.crc
		m.Platforms = append(m.Platforms, sec)
	}

	// Directory tail, then the real prelude.
	m.ContentHash = contentHash(m)
	metaBytes, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	metaOff := sw.off
	if _, err := sw.w.Write(metaBytes); err != nil {
		return nil, err
	}
	if err := sw.w.Flush(); err != nil {
		return nil, err
	}
	copy(prelude[0:8], magic)
	binary.LittleEndian.PutUint32(prelude[8:12], formatVersion)
	binary.LittleEndian.PutUint64(prelude[16:24], uint64(metaOff))
	binary.LittleEndian.PutUint64(prelude[24:32], uint64(len(metaBytes)))
	binary.LittleEndian.PutUint32(prelude[32:36], crc32.Checksum(metaBytes, castagnoli))
	binary.LittleEndian.PutUint32(prelude[36:40], crc32.Checksum(prelude[0:36], castagnoli))
	if _, err := f.WriteAt(prelude[:], 0); err != nil {
		return nil, err
	}
	if err := f.Sync(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		f = nil
		os.Remove(tmp)
		return nil, err
	}
	f = nil
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	if err := store.SyncDir(filepath.Dir(path)); err != nil {
		return nil, err
	}
	return infoFrom(m, path, metaOff+int64(len(metaBytes))), nil
}

// sameSpans compares two span lists element-wise, distinguishing nil (full
// deployment) from non-nil (sharded, possibly empty).
func sameSpans(a, b []population.Span) error {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return fmt.Errorf("%w: %v vs %v", ErrSpanMismatch, a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%w: span %d is [%d, %d), snapshot has [%d, %d)",
				ErrSpanMismatch, i, b[i].Lo, b[i].Hi, a[i].Lo, a[i].Hi)
		}
	}
	return nil
}
