package population

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/audience"
)

// The golden pin: SHA-256 digests of every per-user array a build draws and
// of three materialized attributes, on a full universe and on a two-span
// shard. The other tests compare two outputs of the same code, so a change
// to the hash stream itself (a dropped or reordered word, a different
// domain, a moved threshold) passes them all; this one fails on it. The
// digests must never change: every committed artifact, snapshot and
// perfbench fingerprint rests on the same draws.

// goldenConfig is testConfig with the region and activity draws live, over
// a size that is not a multiple of 64 so the last bitset word is partial.
func goldenConfig() Config {
	cfg := testConfig()
	cfg.Size = 40_007
	cfg.USShare = 0.85
	cfg.ActivitySigma = 1.5
	return cfg
}

// goldenSpans are the shard's spans: an offset start and a final span that
// ends at the unaligned global size.
var goldenSpans = []Span{{Lo: 4096, Hi: 16384}, {Lo: 24576, Hi: 40_007}}

// goldenModels cover a factor-loaded attribute, one on no factor, and one
// whose BaseLogit saturates every threshold at 2^53.
var goldenModels = []AttrModel{
	{ID: 17, BaseLogit: Logit(0.06), GenderLoad: 1.3, AgeLoad: [NumAgeRanges]float64{0.4, 0.1, -0.1, -0.4}, Factor: 3, FactorBoost: 2.2},
	{ID: 18, BaseLogit: Logit(0.2), GenderLoad: -0.7, Factor: -1},
	{ID: 19, BaseLogit: 40, Factor: -1},
}

var goldenDigests = map[string]string{
	"full/cells":    "2ed94135f03aa497aa13b40d9e9e58ac921ab27abdb1a1b30499b11222b88b50",
	"full/factors":  "118092ad04223c27e48ecc5979150714b6db0fbc69ae2e329bc8e22c9feef6b3",
	"full/tiers":    "0de2660cf9293e888991457097852f5704507558589ecf11b0944cd85da45fe2",
	"full/regions":  "b028fa62bcc51138db6ad03ec45f11f7bfba087315f9a4159293a680e542338d",
	"full/attr17":   "3e4277738f774857471963dd4d63d59844d4ac101ebd3e84bf6707babe7ddda8",
	"full/attr18":   "3fa6a3c4c4ddd525d393dcd5c70150291d7138869cbae309a059ab661c712dbf",
	"full/attr19":   "93756acebdcaad9652971ad098d6706be2e65cadf8a49b575addeafb0782f0e8",
	"shard/cells":   "4450a8ee4dc67c335eb19ea6a9c05b43e60e8a0038f1c5415e6956a6ffb3adc8",
	"shard/factors": "7251e5d6c6635ff93669550ddb8353435729a14453c888537390c429ee6d3e6e",
	"shard/tiers":   "b27aa0f756c90777e250426fda7ca9bc815218cf735ec756c8576ac6d38180f5",
	"shard/regions": "f352f970c5d3cdeee78df2ff2661f0f3892a36f025dec2c86ffd6dda08a4976b",
	"shard/attr17":  "f0153007ef91b221e48edc7b40babc493589f6ee34766447608126bf0ae2e2d3",
	"shard/attr18":  "b77ab5073dba0cd8eb209b4ab0ae520defd334fe39d8b5e9bcd0a301f55b6f61",
	"shard/attr19":  "29b427450578c671fd894af438dc85054fb9ebd3673e64a07434bc611dddab35",
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// setDigest hashes a set's membership as little-endian 64-user words,
// independent of how audience stores it.
func setDigest(s *audience.Set) string {
	buf := make([]byte, 0, (s.Len()+63)/64*8)
	for lo := 0; lo < s.Len(); lo += 64 {
		var w uint64
		for i := lo; i < lo+64 && i < s.Len(); i++ {
			if s.Contains(i) {
				w |= 1 << uint(i-lo)
			}
		}
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return digest(buf)
}

// universeDigests names a digest for each per-user array and each golden
// model's materialized set.
func universeDigests(u *Universe) map[string]string {
	d := u.Data()
	cells := make([]byte, len(d.Cells))
	for i, c := range d.Cells {
		cells[i] = byte(c)
	}
	factors := make([]byte, 0, 4*len(d.Factors))
	for _, f := range d.Factors {
		factors = binary.LittleEndian.AppendUint32(factors, f)
	}
	out := map[string]string{
		"cells":   digest(cells),
		"factors": digest(factors),
		"tiers":   digest(d.Tiers),
		"regions": digest(d.Regions),
	}
	for _, m := range goldenModels {
		out[fmt.Sprintf("attr%d", m.ID)] = setDigest(u.Materialize(m))
	}
	return out
}

func TestGoldenDraws(t *testing.T) {
	full := mustNew(t, goldenConfig())
	shard, err := NewShard(goldenConfig(), goldenSpans)
	if err != nil {
		t.Fatal(err)
	}
	for name, u := range map[string]*Universe{"full": full, "shard": shard} {
		for part, got := range universeDigests(u) {
			key := name + "/" + part
			if want := goldenDigests[key]; got != want {
				t.Errorf("%s digest = %q, want %q", key, got, want)
			}
		}
	}
}
