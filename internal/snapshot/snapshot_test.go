package snapshot

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/battery"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/population"
)

// snapOpts is a small deployment every test here can afford to build.
func snapOpts(seed uint64, size int) platform.DeployOptions {
	return platform.DeployOptions{
		Seed:         seed,
		UniverseSize: size,
		Metrics:      obs.NewRegistry(),
	}
}

// buildAndWrite builds a deployment and writes its snapshot into a temp dir.
func buildAndWrite(t testing.TB, opts platform.DeployOptions) (string, *platform.Deployment, *Info) {
	t.Helper()
	d, err := platform.NewDeployment(opts)
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	path := filepath.Join(t.TempDir(), "deployment.adusnap")
	info, err := WriteDeployment(path, d, opts)
	if err != nil {
		t.Fatalf("WriteDeployment: %v", err)
	}
	return path, d, info
}

// loadFresh loads a snapshot under a fresh metrics registry (so counters
// never collide with the built deployment's).
func loadFresh(t testing.TB, path string, opts platform.DeployOptions) (*platform.Deployment, *Info) {
	t.Helper()
	opts.Metrics = obs.NewRegistry()
	d, info, err := LoadDeployment(path, opts)
	if err != nil {
		t.Fatalf("LoadDeployment: %v", err)
	}
	return d, info
}

// snapBatch draws one battery case of each shape for p, with its
// objective and frequency cap, so built-vs-loaded comparison covers
// accepted and rejected shapes alike.
func snapBatch(p *platform.Interface) []platform.EstimateRequest {
	cat := battery.Catalog{Attributes: len(p.Catalog().Attributes), Topics: len(p.Catalog().Topics)}
	var reqs []platform.EstimateRequest
	for _, c := range battery.Draw(11, battery.Shapes, cat) {
		reqs = append(reqs, platform.EstimateRequest{Spec: c.Spec, Objective: platform.Objective(c.Objective), FrequencyCapPerMonth: c.Cap})
	}
	return reqs
}

// serialEstimates answers reqs through p's serial advertiser door, one
// Estimate call per slot: the reference for a batch under that door.
func serialEstimates(p *platform.Interface, reqs []platform.EstimateRequest) []platform.Estimate {
	out := make([]platform.Estimate, len(reqs))
	for i, r := range reqs {
		out[i].Size, out[i].Err = p.Estimate(r)
	}
	return out
}

// requireSameAnswers drives the same battery through both deployments'
// measurement and estimate doors and requires bit-identical outcomes,
// error messages included.
func requireSameAnswers(t *testing.T, built, loaded *platform.Deployment) {
	t.Helper()
	for _, bp := range built.Interfaces() {
		lp, err := loaded.ByName(bp.Name())
		if err != nil {
			t.Fatalf("loaded deployment: %v", err)
		}
		reqs := snapBatch(bp)
		for _, door := range []string{"measure", "estimate"} {
			want, got := bp.MeasureMany(reqs), lp.MeasureMany(reqs)
			if door == "estimate" {
				want, got = serialEstimates(bp, reqs), serialEstimates(lp, reqs)
			}
			for i := range reqs {
				if (want[i].Err == nil) != (got[i].Err == nil) {
					t.Fatalf("%s/%s slot %d: built err=%v, loaded err=%v", bp.Name(), door, i, want[i].Err, got[i].Err)
				}
				if want[i].Err != nil {
					if want[i].Err.Error() != got[i].Err.Error() {
						t.Fatalf("%s/%s slot %d: built err %q, loaded err %q", bp.Name(), door, i, want[i].Err, got[i].Err)
					}
					continue
				}
				if want[i].Size != got[i].Size {
					t.Fatalf("%s/%s slot %d: built %d, loaded %d", bp.Name(), door, i, want[i].Size, got[i].Size)
				}
			}
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	opts := snapOpts(11, 4096)
	path, built, wrote := buildAndWrite(t, opts)

	info, err := VerifyFile(path)
	if err != nil {
		t.Fatalf("VerifyFile: %v", err)
	}
	if info.ContentHash != wrote.ContentHash || info.CatalogHash != wrote.CatalogHash ||
		info.ConfigHash != wrote.ConfigHash {
		t.Fatalf("file hashes %+v disagree with writer %+v", info, wrote)
	}
	if info.Seed != 11 || info.UniverseSize != 4096 || info.LocalUsers != 4096 || info.Sharded {
		t.Fatalf("file identity wrong: %+v", info)
	}

	loaded, linfo := loadFresh(t, path, opts)
	if linfo.ContentHash != wrote.ContentHash {
		t.Fatalf("loaded content hash %s, wrote %s", linfo.ContentHash, wrote.ContentHash)
	}
	requireSameAnswers(t, built, loaded)

	// Warm must be a no-op on a snapshot-backed deployment: nothing to
	// materialize, nothing to allocate.
	for _, p := range loaded.Interfaces() {
		p.Warm()
	}
	requireSameAnswers(t, built, loaded)
}

// TestSnapshotBytesCanonical pins that the snapshot's content does not
// depend on how the source deployment held its catalog: dense,
// compressed-only (Compressed), and snapshot-loaded deployments over the
// same options serialize to the same content hash (CSet blobs are
// canonical, and the directory hash covers every payload byte).
func TestSnapshotBytesCanonical(t *testing.T) {
	opts := snapOpts(17, 2048)
	path, _, dense := buildAndWrite(t, opts)

	copts := opts
	copts.Compressed = true
	copts.Metrics = obs.NewRegistry()
	_, _, compressed := buildAndWrite(t, copts)
	if dense.ContentHash != compressed.ContentHash {
		t.Fatalf("dense-built snapshot hash %s, compressed-built %s", dense.ContentHash, compressed.ContentHash)
	}

	loadedDep, _ := loadFresh(t, path, opts)
	reOpts := opts
	reOpts.Metrics = obs.NewRegistry()
	rePath := filepath.Join(t.TempDir(), "rewritten.adusnap")
	rewrote, err := WriteDeployment(rePath, loadedDep, reOpts)
	if err != nil {
		t.Fatalf("WriteDeployment from loaded deployment: %v", err)
	}
	if rewrote.ContentHash != dense.ContentHash {
		t.Fatalf("snapshot-of-snapshot hash %s, original %s", rewrote.ContentHash, dense.ContentHash)
	}
}

// rewriteMeta parses a snapshot, applies mutate to its directory, recomputes
// the content hash, and rewrites the meta tail and prelude CRCs so the file
// is structurally valid again. Tests use it to forge semantically stale
// directories that pass every integrity check.
func rewriteMeta(t *testing.T, path string, mutate func(*fileMeta)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	metaOff := binary.LittleEndian.Uint64(data[16:24])
	var m fileMeta
	if err := json.Unmarshal(data[metaOff:], &m); err != nil {
		t.Fatalf("meta: %v", err)
	}
	mutate(&m)
	m.ContentHash = contentHash(&m)
	metaBytes, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data[:metaOff], metaBytes...)
	binary.LittleEndian.PutUint64(data[24:32], uint64(len(metaBytes)))
	binary.LittleEndian.PutUint32(data[32:36], crc32.Checksum(metaBytes, castagnoli))
	binary.LittleEndian.PutUint32(data[36:40], crc32.Checksum(data[0:36], castagnoli))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsStaleness(t *testing.T) {
	opts := snapOpts(11, 4096)
	path, _, _ := buildAndWrite(t, opts)

	load := func(o platform.DeployOptions) error {
		o.Metrics = obs.NewRegistry()
		_, _, err := LoadDeployment(path, o)
		return err
	}

	wrong := opts
	wrong.UniverseSize = 8192
	if err := load(wrong); !errors.Is(err, ErrUniverseMismatch) {
		t.Fatalf("universe mismatch: got %v", err)
	}

	wrong = opts
	wrong.ShardSpans = []population.Span{{Lo: 0, Hi: 2048}}
	if err := load(wrong); !errors.Is(err, ErrSpanMismatch) {
		t.Fatalf("span mismatch: got %v", err)
	}

	wrong = opts
	wrong.Seed = 12
	if err := load(wrong); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("seed skew: got %v", err)
	}

	wrong = opts
	wrong.NoLatentFactors = true
	if err := load(wrong); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("ablation skew: got %v", err)
	}

	// Engine knobs must NOT invalidate a snapshot: the same file serves the
	// exact-estimates ablation and metric registry changes.
	ok := opts
	ok.ExactEstimates = true
	if err := load(ok); err != nil {
		t.Fatalf("exact-estimates load should succeed, got %v", err)
	}
}

func TestLoadRejectsTamperedFile(t *testing.T) {
	opts := snapOpts(11, 4096)
	goodPath, _, _ := buildAndWrite(t, opts)
	good, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	load := func(p string) error {
		o := opts
		o.Metrics = obs.NewRegistry()
		_, _, err := LoadDeployment(p, o)
		return err
	}

	if err := load(write("empty", nil)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty file: got %v", err)
	}
	if err := load(write("short", good[:preludeSize-1])); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short prelude: got %v", err)
	}
	if err := load(write("badmagic", append([]byte("NOTASNAP"), good[8:]...))); !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("bad magic: got %v", err)
	}

	// Flip the version; the prelude CRC catches it before the version check,
	// so also re-sign the prelude to reach the version error itself.
	b := append([]byte(nil), good...)
	b[8]++
	if err := load(write("vercrc", b)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version flip without re-sign: got %v", err)
	}
	binary.LittleEndian.PutUint32(b[36:40], crc32.Checksum(b[0:36], castagnoli))
	if err := load(write("version", b)); !errors.Is(err, ErrVersion) {
		t.Fatalf("version skew: got %v", err)
	}

	// Truncate mid-sections: the recorded meta offset lands outside the file.
	if err := load(write("cut", good[:len(good)/2])); !errors.Is(err, ErrTruncated) {
		t.Fatalf("mid-file truncation: got %v", err)
	}

	// Flip one byte inside the meta JSON.
	b = append([]byte(nil), good...)
	b[len(b)-3] ^= 0x40
	if err := load(write("metaflip", b)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("meta flip: got %v", err)
	}

	// Flip one byte inside the first universe section: its CRC is verified
	// on every load.
	b = append([]byte(nil), good...)
	b[pageAlign+64] ^= 0x01
	if err := load(write("uniflip", b)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("universe flip: got %v", err)
	}

	// Builder-version skew, forged through a structurally valid directory.
	p := write("builder", good)
	rewriteMeta(t, p, func(m *fileMeta) { m.BuilderVersion = "adusnap-builder/0" })
	if err := load(p); !errors.Is(err, ErrVersion) {
		t.Fatalf("builder skew: got %v", err)
	}

	// Catalog-hash skew: the directory is intact and self-consistent, but
	// names a catalog the current code does not derive. This is the last
	// gate — it must fail even though every CRC passes.
	p = write("catalog", good)
	rewriteMeta(t, p, func(m *fileMeta) {
		m.CatalogHash = "0000000000000000000000000000000000000000000000000000000000000000"
	})
	if err := load(p); !errors.Is(err, ErrCatalogMismatch) {
		t.Fatalf("catalog skew: got %v", err)
	}
}

// TestVerifyFileCoversCatalogSections pins the one check loads deliberately
// skip: a flipped byte deep in a platform section passes LoadDeployment's
// structural validation (or not — either way it must never panic) but
// VerifyFile must always catch it by CRC.
func TestVerifyFileCoversCatalogSections(t *testing.T) {
	opts := snapOpts(11, 4096)
	path, _, info := buildAndWrite(t, opts)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find the last platform section and flip a payload byte in its middle.
	m, err := parseFile(data)
	if err != nil {
		t.Fatal(err)
	}
	last := m.Platforms[len(m.Platforms)-1]
	data[last.Off+last.Len/2] ^= 0x10
	bad := filepath.Join(t.TempDir(), "flipped.adusnap")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyFile(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("VerifyFile on flipped catalog byte: got %v", err)
	}
	if info.FileSize != int64(len(data)) {
		t.Fatalf("info size %d, file is %d", info.FileSize, len(data))
	}
}

// TestClusterRefusesCatalogSkew pins the coordinator preflight end to end:
// a shard reconstructed from a snapshot of a different seed carries a
// different catalog hash, and coordinator construction must refuse the ring.
func TestClusterRefusesCatalogSkew(t *testing.T) {
	const size = 4096
	nodes := []string{"a", "b"}
	ring, err := cluster.NewRing(nodes, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := cluster.NewLayout(ring, size, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	goodOpts := snapOpts(11, size)
	skewOpts := snapOpts(99, size)

	shardFromSnap := func(n string, opts platform.DeployOptions) cluster.Conn {
		sOpts := opts
		sOpts.Metrics = obs.NewRegistry()
		sOpts.ShardSpans = layout.ShardSpans(n)
		dep, err := platform.NewDeployment(sOpts)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), n+".adusnap")
		if _, err := WriteDeployment(path, dep, sOpts); err != nil {
			t.Fatal(err)
		}
		sOpts.Metrics = obs.NewRegistry()
		loaded, _, err := LoadDeployment(path, sOpts)
		if err != nil {
			t.Fatal(err)
		}
		s, err := cluster.NewShardFromDeployment(n, layout, loaded)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	conns := []cluster.Conn{shardFromSnap("a", goodOpts), shardFromSnap("b", skewOpts)}
	_, err = cluster.NewCoordinator(cluster.Options{
		Layout:  layout,
		Conns:   conns,
		Deploy:  snapOpts(11, size),
		Metrics: obs.NewRegistry(),
	})
	if !errors.Is(err, cluster.ErrCatalogSkew) {
		t.Fatalf("mixed-seed ring: got %v, want ErrCatalogSkew", err)
	}

	// Same snapshots, coherent ring: construction succeeds.
	conns = []cluster.Conn{shardFromSnap("a", goodOpts), shardFromSnap("b", goodOpts)}
	if _, err := cluster.NewCoordinator(cluster.Options{
		Layout:  layout,
		Conns:   conns,
		Deploy:  snapOpts(11, size),
		Metrics: obs.NewRegistry(),
	}); err != nil {
		t.Fatalf("coherent snapshot ring: %v", err)
	}
}

// TestShardFromDeploymentValidatesSpans pins NewShardFromDeployment's span
// check: a snapshot of the wrong node's slice must be refused.
func TestShardFromDeploymentValidatesSpans(t *testing.T) {
	const size = 4096
	ring, err := cluster.NewRing([]string{"a", "b"}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := cluster.NewLayout(ring, size, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	opts := snapOpts(11, size)
	opts.ShardSpans = layout.ShardSpans("a")
	dep, err := platform.NewDeployment(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.NewShardFromDeployment("b", layout, dep); err == nil {
		t.Fatal("node a's slice accepted as shard b")
	}
	if _, err := cluster.NewShardFromDeployment("a", layout, dep); err != nil {
		t.Fatalf("node a's own slice refused: %v", err)
	}
}

// TestWriteDeploymentRefusesWrongOptions pins the writer's own sanity
// checks: options that disagree with the deployment being serialized.
func TestWriteDeploymentRefusesWrongOptions(t *testing.T) {
	opts := snapOpts(11, 2048)
	d, err := platform.NewDeployment(opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.adusnap")
	bad := opts
	bad.Seed = 12
	if _, err := WriteDeployment(path, d, bad); err == nil {
		t.Fatal("wrong seed accepted")
	}
	bad = opts
	bad.UniverseSize = 4096
	if _, err := WriteDeployment(path, d, bad); err == nil {
		t.Fatal("wrong universe size accepted")
	}
	bad = opts
	bad.ShardSpans = []population.Span{{Lo: 0, Hi: 1024}}
	if _, err := WriteDeployment(path, d, bad); !errors.Is(err, ErrSpanMismatch) {
		t.Fatalf("wrong spans: got %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("refused writes must not leave a file behind")
	}
}

func TestSnapshotOverwriteIsAtomic(t *testing.T) {
	opts := snapOpts(11, 2048)
	path, d, first := buildAndWrite(t, opts)
	// Overwrite in place with the same content; the temp file must be gone
	// and the file must parse.
	second, err := WriteDeployment(path, d, opts)
	if err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if second.ContentHash != first.ContentHash {
		t.Fatalf("rewrite changed content: %s vs %s", second.ContentHash, first.ContentHash)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	if _, err := VerifyFile(path); err != nil {
		t.Fatalf("VerifyFile after overwrite: %v", err)
	}
}

// TestReadInfoErrors: reading a snapshot's Info without loading it, which
// VerifyFile does, fails on a missing file.
func TestReadInfoErrors(t *testing.T) {
	if _, err := VerifyFile(filepath.Join(t.TempDir(), "missing.adusnap")); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestSnapshotInfoString(t *testing.T) {
	opts := snapOpts(11, 2048)
	_, _, info := buildAndWrite(t, opts)
	if info.CreatedAt.IsZero() {
		t.Fatal("CreatedAt not set")
	}
	if info.FileSize <= 0 {
		t.Fatal("FileSize not set")
	}
	for _, h := range []string{info.ConfigHash, info.CatalogHash, info.ContentHash} {
		if len(h) != 64 {
			t.Fatalf("hash %q is not sha256 hex", h)
		}
	}
	if fmt.Sprintf("%.12s", info.ContentHash) == "" {
		t.Fatal("unreachable")
	}
}
