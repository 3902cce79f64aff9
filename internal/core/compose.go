package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/targeting"
	"repro/internal/xrand"
)

// Direction selects which end of the skew distribution a greedy discovery
// targets.
type Direction int

// Directions.
const (
	// Top discovers compositions most skewed toward the class.
	Top Direction = iota
	// Bottom discovers compositions most skewed away from the class.
	Bottom
)

// String names the direction as the paper's figure labels do.
func (d Direction) String() string {
	if d == Bottom {
		return "Bottom"
	}
	return "Top"
}

// ComposeConfig parameterizes composition discovery.
type ComposeConfig struct {
	// K is the number of compositions to discover (paper: 1,000).
	K int
	// Arity is the number of options ANDed together (2 or 3).
	Arity int
	// Direction picks the skew end for greedy discovery (ignored by
	// RandomCompositions).
	Direction Direction
	// Seed drives sampling.
	Seed uint64
}

// withDefaults fills zero fields with the paper's parameters.
func (cfg ComposeConfig) withDefaults() ComposeConfig {
	if cfg.K == 0 {
		cfg.K = 1000
	}
	if cfg.Arity == 0 {
		cfg.Arity = 2
	}
	return cfg
}

// ErrCrossFeatureArity marks an unsupported request: on cross-feature
// platforms only pairwise composition is possible (Google offers exactly two
// AND-able features with size statistics).
var ErrCrossFeatureArity = errors.New("core: cross-feature platforms only support 2-way composition")

// sortBySkew orders measurements by representation ratio: descending for
// Top, ascending for Bottom. Infinite ratios land at the skewed end. Ties
// break by description for determinism.
func sortBySkew(ms []Measurement, dir Direction) []Measurement {
	out := append([]Measurement(nil), ms...)
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].RepRatio, out[j].RepRatio
		if ri != rj {
			if dir == Top {
				return ri > rj
			}
			return ri < rj
		}
		return out[i].Desc < out[j].Desc
	})
	return out
}

// choose returns C(n, k) without overflow for the small arguments used here.
func choose(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c
}

// seedCount returns the smallest m such that C(m, arity) >= k — the paper's
// "46 most skewed individual attributes, resulting in 1,035 pairs" rule.
func seedCount(k, arity, available int) (int, error) {
	for m := arity; m <= available; m++ {
		if choose(m, arity) >= k {
			return m, nil
		}
	}
	if choose(available, arity) > 0 {
		return available, nil
	}
	return 0, fmt.Errorf("core: only %d individuals available for %d-way composition", available, arity)
}

// combinations invokes fn with every k-combination of [0, n).
func combinations(n, k int, fn func(idx []int)) {
	idx := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			fn(idx)
			return
		}
		for i := start; i < n; i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

// auditSpecs measures the given specs, keeping those at or above the floor.
// The specs go out as one batched fan-out (see auditMany), so the
// composition-audit loop — thousands of measurements per figure — costs two
// batched calls.
func (a *Auditor) auditSpecs(specs []targeting.Spec, c Class) ([]Measurement, error) {
	results, err := a.auditMany(specs, c)
	if err != nil {
		return nil, err
	}
	out := make([]Measurement, 0, len(specs))
	for _, r := range results {
		if errors.Is(r.err, ErrBelowFloor) {
			continue
		}
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, r.m)
	}
	return out, nil
}

// sampleSpecs draws up to k specs uniformly without replacement, in
// deterministic order.
func sampleSpecs(specs []targeting.Spec, k int, seed uint64) []targeting.Spec {
	if len(specs) <= k {
		return specs
	}
	rng := xrand.New(xrand.Mix(seed, uint64(len(specs)), uint64(k)))
	idx := rng.Sample(len(specs), k)
	sort.Ints(idx)
	out := make([]targeting.Spec, 0, k)
	for _, i := range idx {
		out = append(out, specs[i])
	}
	return out
}

// GreedyCompositions implements the paper's discovery method (§3,
// "Discovering the most skewed compositions"): greedily combine the most
// skewed individual targetings. individuals must already be audited against
// c (e.g. via Individuals). On same-feature platforms it composes the top m
// individuals with C(m, arity) >= K; on cross-feature platforms it pairs the
// top attributes with the top topics such that their product reaches K. The
// resulting candidate set is sampled down to K and audited; compositions
// below the reach floor are dropped, as in the paper.
func (a *Auditor) GreedyCompositions(individuals []Measurement, c Class, cfg ComposeConfig) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	if cfg.Arity < 2 {
		return nil, fmt.Errorf("core: composition arity must be >= 2, got %d", cfg.Arity)
	}
	if a.p.CrossFeature() {
		if cfg.Arity != 2 {
			return nil, ErrCrossFeatureArity
		}
		return a.greedyCrossFeature(individuals, c, cfg)
	}
	ranked := sortBySkew(individuals, cfg.Direction)
	m, err := seedCount(cfg.K, cfg.Arity, len(ranked))
	if err != nil {
		return nil, err
	}
	seeds := ranked[:m]
	var specs []targeting.Spec
	combinations(m, cfg.Arity, func(idx []int) {
		parts := make([]targeting.Spec, cfg.Arity)
		for j, i := range idx {
			parts[j] = seeds[i].Spec
		}
		specs = append(specs, targeting.And(parts...))
	})
	return a.auditSpecs(sampleSpecs(specs, cfg.K, cfg.Seed), c)
}

// greedyCrossFeature builds attribute × topic pairs (Google; paper fn. 9:
// "the number of skewed individual options from each feature necessary to
// obtain 1,000 skewed compositions ... has to be computed in each case").
func (a *Auditor) greedyCrossFeature(individuals []Measurement, c Class, cfg ComposeConfig) ([]Measurement, error) {
	var attrs, topics []Measurement
	for _, m := range individuals {
		refs := targeting.Refs(m.Spec)
		if len(refs) != 1 {
			return nil, fmt.Errorf("core: individual measurement %q is not a single option", m.Desc)
		}
		switch refs[0].Kind {
		case targeting.KindAttribute:
			attrs = append(attrs, m)
		case targeting.KindTopic:
			topics = append(topics, m)
		default:
			return nil, fmt.Errorf("core: individual measurement %q has kind %s", m.Desc, refs[0].Kind)
		}
	}
	if len(attrs) == 0 || len(topics) == 0 {
		return nil, errors.New("core: cross-feature composition needs both attribute and topic individuals")
	}
	ra := sortBySkew(attrs, cfg.Direction)
	rt := sortBySkew(topics, cfg.Direction)
	// Grow both seed sets in lockstep until their product covers K.
	na, nt := 1, 1
	for na*nt < cfg.K && (na < len(ra) || nt < len(rt)) {
		if na <= nt && na < len(ra) {
			na++
		} else if nt < len(rt) {
			nt++
		} else if na < len(ra) {
			na++
		}
	}
	var specs []targeting.Spec
	for i := 0; i < na; i++ {
		for j := 0; j < nt; j++ {
			specs = append(specs, targeting.And(ra[i].Spec, rt[j].Spec))
		}
	}
	return a.auditSpecs(sampleSpecs(specs, cfg.K, cfg.Seed), c)
}

// RandomCompositions audits K uniformly random compositions — the paper's
// "Random 2-way" set, modelling what an honest advertiser combining options
// might do. Same-feature platforms pair distinct attributes; cross-feature
// platforms pair an attribute with a topic.
func (a *Auditor) RandomCompositions(c Class, cfg ComposeConfig) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	rng := xrand.New(xrand.Mix(cfg.Seed, xrand.HashString(a.p.Name()), uint64(cfg.Arity)))
	seen := make(map[string]bool)
	var specs []targeting.Spec
	// Draw more candidates than K to absorb duplicates; audit filters reach.
	for attempts := 0; len(specs) < cfg.K && attempts < cfg.K*20; attempts++ {
		var spec targeting.Spec
		if a.p.CrossFeature() {
			if cfg.Arity != 2 {
				return nil, ErrCrossFeatureArity
			}
			if len(a.attrNames) == 0 || len(a.topicNames) == 0 {
				return nil, errors.New("core: random cross-feature composition needs attributes and topics")
			}
			spec = targeting.And(
				targeting.Attr(rng.Intn(len(a.attrNames))),
				targeting.Topic(rng.Intn(len(a.topicNames))),
			)
		} else {
			if len(a.attrNames) < cfg.Arity {
				return nil, errors.New("core: not enough attributes for random composition")
			}
			ids := rng.Sample(len(a.attrNames), cfg.Arity)
			parts := make([]targeting.Spec, cfg.Arity)
			for j, id := range ids {
				parts[j] = targeting.Attr(id)
			}
			spec = targeting.And(parts...)
		}
		key := targeting.Canonical(spec)
		if seen[key] {
			continue
		}
		seen[key] = true
		specs = append(specs, spec)
	}
	return a.auditSpecs(specs, c)
}

// TopOf returns the n most skewed measurements toward the class (descending
// rep ratio). Used for the top-100 overlap and top-10 union analyses.
func TopOf(ms []Measurement, n int) []Measurement {
	ranked := sortBySkew(ms, Top)
	if n > len(ranked) {
		n = len(ranked)
	}
	return ranked[:n]
}
