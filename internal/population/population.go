// Package population synthesizes the user universe behind a simulated ad
// platform.
//
// The paper measured live platforms whose user databases are inaccessible;
// per the substitution rule we generate a population whose statistical
// structure produces the same phenomena the paper measures:
//
//   - Every user has a gender and an age range (the sensitive attributes the
//     paper studies) drawn from configurable platform-specific marginals.
//   - Every user holds a sparse set of latent interest factors. Factors model
//     the correlation between related attributes ("owns a sports car" and
//     "interested in engines") beyond what demographics explain, which is
//     what makes distinct skewed compositions overlap (paper Table 1).
//   - Attribute membership is a Bernoulli draw whose log-odds are
//     base rate + gender loading + age loading + factor boost. Conditional on
//     the demographic cell and factor, memberships are independent, so an
//     AND of two skewed attributes multiplies the conditional rates — the
//     composition-amplifies-skew effect at the heart of the paper.
//
// All draws are stateless hashes of (seed, entity ids), so membership needs
// no storage until a bitset is materialized, and the same universe is
// reproduced exactly from its Config.
package population

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/audience"
	"repro/internal/xrand"
)

// Gender is a user's gender. The paper (and the 2020-era platforms it
// audits) treat gender as binary for targeting purposes.
type Gender uint8

// Gender values.
const (
	Male Gender = iota
	Female
	NumGenders = 2
)

// String returns the display name of the gender.
func (g Gender) String() string {
	switch g {
	case Male:
		return "male"
	case Female:
		return "female"
	default:
		return fmt.Sprintf("Gender(%d)", uint8(g))
	}
}

// Other returns the opposite gender.
func (g Gender) Other() Gender {
	if g == Male {
		return Female
	}
	return Male
}

// AgeRange is one of the four age buckets common to all three platforms
// (paper §3 footnote 3).
type AgeRange uint8

// Age ranges.
const (
	Age18to24 AgeRange = iota
	Age25to34
	Age35to54
	Age55Plus
	NumAgeRanges = 4
)

// String returns the display name of the age range.
func (a AgeRange) String() string {
	switch a {
	case Age18to24:
		return "18-24"
	case Age25to34:
		return "25-34"
	case Age35to54:
		return "35-54"
	case Age55Plus:
		return "55+"
	default:
		return fmt.Sprintf("AgeRange(%d)", uint8(a))
	}
}

// AllAgeRanges lists the age ranges in order.
func AllAgeRanges() []AgeRange {
	return []AgeRange{Age18to24, Age25to34, Age35to54, Age55Plus}
}

// Cell is a demographic cell: one (gender, age range) combination. There are
// NumCells of them.
type Cell uint8

// NumCells is the number of demographic cells.
const NumCells = NumGenders * NumAgeRanges

// CellOf returns the cell for a gender and age range.
func CellOf(g Gender, a AgeRange) Cell {
	return Cell(uint8(g)*NumAgeRanges + uint8(a))
}

// Gender returns the gender component of the cell.
func (c Cell) Gender() Gender { return Gender(uint8(c) / NumAgeRanges) }

// Age returns the age-range component of the cell.
func (c Cell) Age() AgeRange { return AgeRange(uint8(c) % NumAgeRanges) }

// Region is a user's coarse location. The paper's methodology scopes every
// measurement to U.S.-based users via location targeting (§3: "we assume RA
// is the set of all U.S.-based users"); platforms also serve users
// elsewhere, so the universe carries a region dimension.
type Region uint8

// Regions.
const (
	RegionUS Region = iota
	RegionCanada
	RegionUK
	RegionIndia
	RegionBrazil
	RegionOther
	NumRegions = 6
)

// String names the region as targeting UIs do.
func (r Region) String() string {
	switch r {
	case RegionUS:
		return "US"
	case RegionCanada:
		return "CA"
	case RegionUK:
		return "GB"
	case RegionIndia:
		return "IN"
	case RegionBrazil:
		return "BR"
	case RegionOther:
		return "other"
	default:
		return fmt.Sprintf("Region(%d)", uint8(r))
	}
}

// MaxFactors is the maximum number of latent interest factors; factor
// membership is packed into a uint32 per user.
const MaxFactors = 32

// FactorModel describes one latent interest factor. A factor may itself be
// demographically skewed (men more likely to hold a "motorsports" factor),
// which is what lets a composition of two attributes on the same factor be
// *more* skewed than the product of their individual skews — the
// amplification visible in the paper's Tables 2–3 examples.
type FactorModel struct {
	// Rate is the baseline probability a user holds the factor.
	Rate float64
	// GenderLoad shifts the log-odds of holding the factor by ±GenderLoad/2
	// (positive = male-skewed), like AttrModel.GenderLoad.
	GenderLoad float64
	// AgeLoad shifts the log-odds per age range.
	AgeLoad [NumAgeRanges]float64
}

// RateIn returns the probability a user in cell c holds the factor.
func (f FactorModel) RateIn(c Cell) float64 {
	if f.Rate <= 0 {
		return 0
	}
	if f.Rate >= 1 {
		return 1
	}
	x := Logit(f.Rate) + f.AgeLoad[c.Age()]
	if c.Gender() == Male {
		x += f.GenderLoad / 2
	} else {
		x -= f.GenderLoad / 2
	}
	return sigmoid(x)
}

// Config describes a synthetic universe.
type Config struct {
	// Seed determines every random draw in the universe.
	Seed uint64
	// Size is the number of simulated users.
	Size int
	// ScaleFactor converts simulated counts to platform-scale counts for
	// reporting (e.g. a 2^18-user simulation of a 120M-user platform has
	// ScaleFactor ≈ 458). Metrics that are ratios are unaffected.
	ScaleFactor float64
	// MaleShare is the fraction of users that are male.
	MaleShare float64
	// AgeShare is the distribution over age ranges; it must sum to ~1.
	AgeShare [NumAgeRanges]float64
	// Factors are the latent interest factors (≤ MaxFactors).
	Factors []FactorModel
	// USShare is the fraction of users located in the US; the remainder is
	// split across the other regions in fixed proportions. Zero selects 1
	// (an all-US universe).
	USShare float64
	// ActivitySigma spreads a per-user activity offset (log-odds added to
	// every attribute membership) across ActivityTiers quantile tiers of a
	// normal with this standard deviation. Heavy-tailed activity makes
	// highly active users belong to many attributes at once, which is what
	// gives distinct AND-compositions substantial audience overlap (paper
	// Table 1: ≈22 % median pairwise overlap on Facebook's restricted
	// interface vs ≈0 % on LinkedIn). Zero disables the offset.
	ActivitySigma float64
}

// ActivityTiers is the number of discrete activity levels users are
// assigned to; offsets are the tier midpoint quantiles of
// N(0, ActivitySigma²).
const ActivityTiers = 8

// activityQuantiles are Φ⁻¹((t+0.5)/8) for t = 0..7: the standard-normal
// midpoint quantiles of eight equiprobable tiers.
var activityQuantiles = [ActivityTiers]float64{
	-1.5341, -0.8871, -0.4888, -0.1573, 0.1573, 0.4888, 0.8871, 1.5341,
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	if c.Size <= 0 {
		return errors.New("population: Size must be positive")
	}
	if c.MaleShare < 0 || c.MaleShare > 1 {
		return errors.New("population: MaleShare must be in [0, 1]")
	}
	var sum float64
	for _, s := range c.AgeShare {
		if s < 0 {
			return errors.New("population: AgeShare entries must be non-negative")
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("population: AgeShare sums to %v, want 1", sum)
	}
	if len(c.Factors) > MaxFactors {
		return fmt.Errorf("population: at most %d factors", MaxFactors)
	}
	for i, f := range c.Factors {
		if f.Rate < 0 || f.Rate > 1 {
			return fmt.Errorf("population: factor %d rate must be in [0, 1]", i)
		}
	}
	if c.ScaleFactor < 0 {
		return errors.New("population: ScaleFactor must be non-negative")
	}
	if c.ActivitySigma < 0 {
		return errors.New("population: ActivitySigma must be non-negative")
	}
	if c.USShare < 0 || c.USShare > 1 {
		return errors.New("population: USShare must be in [0, 1]")
	}
	return nil
}

// nonUSWeights splits the non-US share across the other regions.
var nonUSWeights = [NumRegions]float64{
	RegionCanada: 0.15, RegionUK: 0.15, RegionIndia: 0.30,
	RegionBrazil: 0.15, RegionOther: 0.25,
}

// UniformFactors returns n identical demographically-neutral factors with
// the given rate — a convenience for tests and ablations.
func UniformFactors(n int, rate float64) []FactorModel {
	fs := make([]FactorModel, n)
	for i := range fs {
		fs[i] = FactorModel{Rate: rate}
	}
	return fs
}

// AttrModel is the generative model of one targeting attribute: who is
// likely to hold it. Catalogs (internal/catalog) assign these.
type AttrModel struct {
	// ID uniquely identifies the attribute within the universe's draws.
	ID uint64
	// BaseLogit is the log-odds of membership for a baseline user.
	BaseLogit float64
	// GenderLoad shifts log-odds by +GenderLoad/2 for males and
	// -GenderLoad/2 for females (positive = male-skewed).
	GenderLoad float64
	// AgeLoad shifts log-odds per age range.
	AgeLoad [NumAgeRanges]float64
	// Factor is the index of the latent factor the attribute loads on, or -1.
	Factor int
	// FactorBoost is added to log-odds for users holding Factor.
	FactorBoost float64
}

// sigmoid is the standard logistic function.
func sigmoid(x float64) float64 {
	return 1 / (1 + math.Exp(-x))
}

// Logit returns log(p/(1-p)); the inverse of sigmoid.
func Logit(p float64) float64 {
	return math.Log(p / (1 - p))
}

// Rate returns the membership probability of the attribute for a user in the
// given cell with the given factor-held flag.
func (m AttrModel) Rate(c Cell, hasFactor bool) float64 {
	x := m.BaseLogit + m.AgeLoad[c.Age()]
	if c.Gender() == Male {
		x += m.GenderLoad / 2
	} else {
		x -= m.GenderLoad / 2
	}
	if hasFactor && m.Factor >= 0 {
		x += m.FactorBoost
	}
	return sigmoid(x)
}

// Span is one contiguous range of global user indices, inclusive of Lo and
// exclusive of Hi. Shard universes (NewShard) are described by ascending,
// non-overlapping spans of the global ID space.
type Span struct {
	Lo, Hi int
}

// Len returns the number of users the span covers.
func (s Span) Len() int { return s.Hi - s.Lo }

// Universe is a materialized synthetic user population — either the full
// configured ID space (New) or a shard holding only a set of spans of it
// (NewShard). All per-user draws hash global IDs, so a shard's users are
// bit-identical to the same users in the full universe.
type Universe struct {
	cfg       Config
	localSize int      // users materialized in this process
	spans     []Span   // nil = the full [0, cfg.Size) space
	cells     []Cell   // per-user demographic cell
	factors   []uint32 // per-user factor bitmask
	tiers     []uint8  // per-user activity tier
	regions   []uint8  // per-user region

	byGender [NumGenders]*audience.Set
	byAge    [NumAgeRanges]*audience.Set
	byCell   [NumCells]*audience.Set
	byRegion [NumRegions]*audience.Set
}

// draw domains, kept distinct so user demographics, factors, and attribute
// memberships use independent hash streams.
const (
	domainDemo     = 0x11
	domainFactor   = 0x22
	domainAttr     = 0x33
	domainActivity = 0x44
	domainRegion   = 0x55
)

// shardMinUsers is the smallest universe worth fanning out across workers;
// below it goroutine overhead exceeds the per-user hash work.
const shardMinUsers = 1 << 12

// forEachShard splits the user-index range [0, n) across up to workers
// goroutines and calls fn(lo, hi) for each shard. Shard boundaries are
// multiples of 64, so shards cover disjoint bitset words: workers may write
// shared audience sets without synchronization, and the combined output is
// bit-identical to a single fn(0, n) pass because every draw is a stateless
// hash of (seed, ids). Small ranges and workers <= 1 run inline.
func forEachShard(n, workers int, fn func(lo, hi int)) {
	if maxShards := (n + 63) / 64; workers > maxShards {
		workers = maxShards
	}
	if workers <= 1 || n < shardMinUsers {
		fn(0, n)
		return
	}
	per := (n/workers + 63) &^ 63
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}

// New builds a universe from the config. Building is O(Size × NumFactors),
// sharded across GOMAXPROCS workers, and done once; attribute bitsets are
// materialized later on demand. The result is bit-identical regardless of
// worker count.
func New(cfg Config) (*Universe, error) {
	return newWithWorkers(cfg, runtime.GOMAXPROCS(0))
}

// newWithWorkers is New with an explicit worker count (property tests
// compare sharded output against the workers=1 path).
func newWithWorkers(cfg Config, workers int) (*Universe, error) {
	return build(cfg, nil, workers)
}

// NewShard builds the sub-universe holding only the given spans of the
// global ID space. The result has Size() equal to the total span length,
// with local indices assigned in span order, while every random draw hashes
// the user's global ID — so each user a shard holds is bit-identical to
// that user in the full universe, and counts over disjoint spans sum to the
// full-universe count. Spans must be ascending and non-overlapping, with
// 64-aligned bounds (the final span may end at cfg.Size) so shard-local
// bitset words never straddle a span. An empty span list yields a zero-user
// metadata universe: the cluster coordinator uses one to validate and scale
// queries without materializing anybody.
func NewShard(cfg Config, spans []Span) (*Universe, error) {
	if err := validateSpans(cfg.Size, spans); err != nil {
		return nil, err
	}
	// Copy: the universe retains the slice beyond the call.
	held := make([]Span, len(spans))
	copy(held, spans)
	return build(cfg, held, runtime.GOMAXPROCS(0))
}

// validateSpans checks the shard-span invariants NewShard documents.
func validateSpans(size int, spans []Span) error {
	prev := 0
	for i, s := range spans {
		if s.Lo < prev || s.Hi <= s.Lo || s.Hi > size {
			return fmt.Errorf("population: span %d [%d, %d) not ascending within [0, %d)", i, s.Lo, s.Hi, size)
		}
		if s.Lo%64 != 0 || (s.Hi%64 != 0 && s.Hi != size) {
			return fmt.Errorf("population: span %d [%d, %d) not 64-aligned", i, s.Lo, s.Hi)
		}
		prev = s.Hi
	}
	return nil
}

// build constructs a universe over the given spans (nil = the full space).
func build(cfg Config, spans []Span, workers int) (*Universe, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ScaleFactor == 0 {
		cfg.ScaleFactor = 1
	}
	if cfg.USShare == 0 {
		cfg.USShare = 1
	}
	localSize := cfg.Size
	if spans != nil {
		localSize = 0
		for _, s := range spans {
			localSize += s.Len()
		}
	}
	u := &Universe{
		cfg:       cfg,
		localSize: localSize,
		spans:     spans,
		cells:     make([]Cell, localSize),
		factors:   make([]uint32, localSize),
		tiers:     make([]uint8, localSize),
		regions:   make([]uint8, localSize),
	}
	for g := 0; g < NumGenders; g++ {
		u.byGender[g] = audience.New(localSize)
	}
	for a := 0; a < NumAgeRanges; a++ {
		u.byAge[a] = audience.New(localSize)
	}
	for c := 0; c < NumCells; c++ {
		u.byCell[c] = audience.New(localSize)
	}
	for r := 0; r < NumRegions; r++ {
		u.byRegion[r] = audience.New(localSize)
	}

	d := &buildDraws{
		activity: xrand.MixPrefix(cfg.Seed, domainActivity),
		region:   xrand.MixPrefix(cfg.Seed, domainRegion),
		factors:  make([]factorDraw, len(cfg.Factors)),
	}

	// Cumulative region distribution: US first, then the fixed non-US mix.
	d.regionCum[RegionUS] = cfg.USShare
	acc0 := cfg.USShare
	for r := 1; r < NumRegions; r++ {
		acc0 += (1 - cfg.USShare) * nonUSWeights[r]
		d.regionCum[r] = acc0
	}

	// Cumulative age distribution for the inverse-CDF draw.
	acc := 0.0
	for i, s := range cfg.AgeShare {
		acc += s
		d.ageCum[i] = acc
	}

	// Precompute each factor's hash prefix and per-cell membership rates,
	// so the per-user loop is one hash round and a table lookup.
	for f, fm := range cfg.Factors {
		d.factors[f].prefix = xrand.MixPrefix(cfg.Seed, domainFactor, uint64(f))
		for c := 0; c < NumCells; c++ {
			d.factors[f].rate[c] = fm.RateIn(Cell(c))
		}
	}

	u.forEachSpan(workers, func(lo, hi, gOff int) {
		u.buildRange(lo, hi, gOff, d)
	})
	return u, nil
}

// buildDraws is what every user's draws in a build share: the cumulative
// age and region distributions, and each draw's hash prefix over the words
// that do not depend on the user.
type buildDraws struct {
	ageCum    [NumAgeRanges]float64
	regionCum [NumRegions]float64
	activity  xrand.Prefix // (seed, domainActivity)
	region    xrand.Prefix // (seed, domainRegion)
	factors   []factorDraw
}

// factorDraw is one latent factor's hash prefix (seed, domainFactor, f) and
// its membership rate in each demographic cell.
type factorDraw struct {
	prefix xrand.Prefix
	rate   [NumCells]float64
}

// forEachSpan fans fn out over the universe's local index space, span by
// span, passing each worker range the span's local-to-global offset. Span
// bounds are 64-aligned (validateSpans), so worker ranges within a span stay
// word-disjoint in the local bitsets.
func (u *Universe) forEachSpan(workers int, fn func(lo, hi, gOff int)) {
	if u.spans == nil {
		forEachShard(u.localSize, workers, func(lo, hi int) { fn(lo, hi, 0) })
		return
	}
	llo := 0
	for _, s := range u.spans {
		gOff := s.Lo - llo
		base := llo
		forEachShard(s.Len(), workers, func(lo, hi int) { fn(base+lo, base+hi, gOff) })
		llo += s.Len()
	}
}

// buildRange draws users with local indices [lo, hi): demographic cell,
// factor mask, activity tier, and region. Draw hashes use the global ID
// (local index + gOff), so every draw is a stateless hash of (seed, global
// ids) and the range decomposition — worker count or shard spans — has no
// effect on any user's draw; per-user slices are index-disjoint across
// shards and the shared bitsets are written through 64-aligned shard
// boundaries (see forEachShard).
func (u *Universe) buildRange(lo, hi, gOff int, d *buildDraws) {
	cfg := u.cfg
	for i := lo; i < hi; i++ {
		g64 := uint64(i + gOff)
		demo := xrand.MixPrefix(cfg.Seed, domainDemo, g64)
		g := Female
		if xrand.Uniform01(demo.Then(0)) < cfg.MaleShare {
			g = Male
		}
		ua := xrand.Uniform01(demo.Then(1))
		age := Age55Plus
		for r := 0; r < NumAgeRanges; r++ {
			if ua < d.ageCum[r] {
				age = AgeRange(r)
				break
			}
		}
		cell := CellOf(g, age)
		u.cells[i] = cell
		u.byGender[g].Add(i)
		u.byAge[age].Add(i)
		u.byCell[cell].Add(i)

		var mask uint32
		for f := range d.factors {
			fd := &d.factors[f]
			if fd.prefix.Bernoulli(fd.rate[cell], g64) {
				mask |= 1 << uint(f)
			}
		}
		u.factors[i] = mask
		u.tiers[i] = uint8(d.activity.Then(g64) % ActivityTiers)

		ur := xrand.Uniform01(d.region.Then(g64))
		region := RegionOther
		for r := 0; r < NumRegions; r++ {
			if ur < d.regionCum[r] {
				region = Region(r)
				break
			}
		}
		u.regions[i] = uint8(region)
		u.byRegion[region].Add(i)
	}
}

// Config returns the universe's configuration.
func (u *Universe) Config() Config { return u.cfg }

// Size returns the number of users materialized in this process: the full
// configured size for New universes, the total span length for shards.
func (u *Universe) Size() int { return u.localSize }

// GlobalSize returns the configured size of the whole ID space, regardless
// of how much of it this universe holds.
func (u *Universe) GlobalSize() int { return u.cfg.Size }

// Spans returns the global-ID spans this universe holds (shared; do not
// modify), or nil for a full universe.
func (u *Universe) Spans() []Span { return u.spans }

// ScaleFactor returns the simulated-to-platform count multiplier.
func (u *Universe) ScaleFactor() float64 { return u.cfg.ScaleFactor }

// GenderSet returns the set of users with the given gender (shared; do not
// modify).
func (u *Universe) GenderSet(g Gender) *audience.Set { return u.byGender[g] }

// AgeSet returns the set of users in the given age range (shared; do not
// modify).
func (u *Universe) AgeSet(a AgeRange) *audience.Set { return u.byAge[a] }

// CellOfUser returns the demographic cell of user i.
func (u *Universe) CellOfUser(i int) Cell { return u.cells[i] }

// NumFactors returns the number of latent factors in the universe.
func (u *Universe) NumFactors() int { return len(u.cfg.Factors) }

// HasFactor reports whether user i holds latent factor f.
func (u *Universe) HasFactor(i, f int) bool {
	return f >= 0 && f < len(u.cfg.Factors) && u.factors[i]&(1<<uint(f)) != 0
}

// Materialize builds the membership bitset of an attribute, sharding the
// per-user draws across GOMAXPROCS workers. The draw for each user is a
// deterministic hash, so repeated calls return equal sets regardless of the
// worker count.
func (u *Universe) Materialize(m AttrModel) *audience.Set {
	return u.materializeWithWorkers(m, runtime.GOMAXPROCS(0))
}

// materializeWithWorkers is Materialize with an explicit worker count
// (property tests compare sharded output against the workers=1 path).
func (u *Universe) materializeWithWorkers(m AttrModel, workers int) *audience.Set {
	// Membership probability depends only on (cell, hasFactor, activity
	// tier); precompute the thresholds in hash space so the per-user work
	// is one hash round and one compare.
	const mantissa = 1 << 53
	var thresh [NumCells][2][ActivityTiers]uint64
	for c := 0; c < NumCells; c++ {
		for t := 0; t < ActivityTiers; t++ {
			off := u.cfg.ActivitySigma * activityQuantiles[t]
			thresh[c][0][t] = uint64(u.rateAt(m, Cell(c), false, off) * mantissa)
			thresh[c][1][t] = uint64(u.rateAt(m, Cell(c), true, off) * mantissa)
		}
	}
	factorBit := uint32(0)
	if m.Factor >= 0 && m.Factor < len(u.cfg.Factors) {
		factorBit = 1 << uint(m.Factor)
	}
	// Every user's draw hashes (seed, domainAttr, m.ID, global id): hash
	// the first three words once and finish each user with one round.
	attr := xrand.MixPrefix(u.cfg.Seed, domainAttr, m.ID)
	set := audience.New(u.localSize)
	u.forEachSpan(workers, func(lo, hi, gOff int) {
		for i := lo; i < hi; i++ {
			h := attr.Then(uint64(i + gOff))
			fi := 0
			if u.factors[i]&factorBit != 0 {
				fi = 1
			}
			if h>>11 < thresh[u.cells[i]][fi][u.tiers[i]] {
				set.Add(i)
			}
		}
	})
	return set
}

// rateAt is AttrModel.Rate with an extra log-odds activity offset.
func (u *Universe) rateAt(m AttrModel, c Cell, hasFactor bool, activityOffset float64) float64 {
	x := m.BaseLogit + m.AgeLoad[c.Age()] + activityOffset
	if c.Gender() == Male {
		x += m.GenderLoad / 2
	} else {
		x -= m.GenderLoad / 2
	}
	if hasFactor && m.Factor >= 0 {
		x += m.FactorBoost
	}
	return sigmoid(x)
}

// ActivityTier returns the activity tier of user i.
func (u *Universe) ActivityTier(i int) int { return int(u.tiers[i]) }

// RegionSet returns the set of users in the given region (shared; do not
// modify).
func (u *Universe) RegionSet(r Region) *audience.Set { return u.byRegion[r] }

// CellCounts returns the number of users in each demographic cell.
func (u *Universe) CellCounts() [NumCells]int {
	var out [NumCells]int
	for c := 0; c < NumCells; c++ {
		out[c] = u.byCell[c].Count()
	}
	return out
}
