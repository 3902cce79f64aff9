package core

import (
	"errors"
	"fmt"

	"repro/internal/targeting"
)

// BeamConfig parameterizes beam-search composition discovery.
type BeamConfig struct {
	// Arity is the target composition depth (>= 2).
	Arity int
	// Width is the beam width: how many partial compositions survive each
	// level. Zero selects 50.
	Width int
	// Seeds is how many top-ranked individuals serve as extension
	// candidates at each level. Zero selects 46 (the paper's pairwise seed
	// count).
	Seeds int
	// Direction picks the skew end to chase.
	Direction Direction
}

// withDefaults fills zero fields.
func (cfg BeamConfig) withDefaults() BeamConfig {
	if cfg.Width == 0 {
		cfg.Width = 50
	}
	if cfg.Seeds == 0 {
		cfg.Seeds = 46
	}
	return cfg
}

// BeamCompositions discovers k-way skewed compositions by beam search — an
// extension of the paper's greedy method. The paper's discovery composes
// the top-m individuals combinatorially, which explodes for arity ≥ 3
// (C(46,3) = 15,180 candidate triples); beam search instead keeps the Width
// most skewed partial compositions at each level and extends each with the
// top Seeds individuals, costing O(Arity × Width × Seeds) measurements.
// The paper anticipates exactly this escalation: "higher degrees of
// targeting compositions could potentially again enable highly skewed ad
// targeting" (Appendix A).
//
// individuals must be audited against c. On cross-feature platforms only
// arity 2 is expressible, as with the greedy method.
func (a *Auditor) BeamCompositions(individuals []Measurement, c Class, cfg BeamConfig) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	if cfg.Arity < 2 {
		return nil, fmt.Errorf("core: beam arity must be >= 2, got %d", cfg.Arity)
	}
	if a.p.CrossFeature() {
		if cfg.Arity != 2 {
			return nil, ErrCrossFeatureArity
		}
		// With exactly two AND-able features the beam degenerates to the
		// greedy pairwise product; reuse it.
		return a.GreedyCompositions(individuals, c, ComposeConfig{
			K: cfg.Width * cfg.Seeds, Direction: cfg.Direction,
		})
	}
	if len(individuals) == 0 {
		return nil, errors.New("core: beam search needs audited individuals")
	}

	ranked := sortBySkew(individuals, cfg.Direction)
	nSeeds := cfg.Seeds
	if nSeeds > len(ranked) {
		nSeeds = len(ranked)
	}
	seeds := ranked[:nSeeds]

	beam := ranked
	if len(beam) > cfg.Width {
		beam = beam[:cfg.Width]
	}
	for level := 2; level <= cfg.Arity; level++ {
		// Collect the level's deduplicated extension candidates first, then
		// audit them as one batch: the whole frontier is measured in two
		// batched calls instead of one serial Audit per candidate.
		seen := make(map[string]bool)
		var cands []targeting.Spec
		for _, partial := range beam {
			partialIDs := make(map[string]bool)
			for _, r := range targeting.Refs(partial.Spec) {
				partialIDs[r.String()] = true
			}
			for _, s := range seeds {
				refs := targeting.Refs(s.Spec)
				if len(refs) != 1 || partialIDs[refs[0].String()] {
					continue // already contains this option
				}
				spec := targeting.And(partial.Spec, s.Spec)
				key := targeting.Canonical(spec)
				if seen[key] {
					continue
				}
				seen[key] = true
				cands = append(cands, spec)
			}
		}
		results, err := a.auditMany(cands, c)
		if err != nil {
			return nil, fmt.Errorf("beam level %d: %w", level, err)
		}
		var next []Measurement
		for _, r := range results {
			if errors.Is(r.err, ErrBelowFloor) {
				continue
			}
			if r.err != nil {
				return nil, fmt.Errorf("beam level %d: %w", level, r.err)
			}
			next = append(next, r.m)
		}
		if len(next) == 0 {
			return nil, fmt.Errorf("%w: no level-%d compositions above the reach floor", ErrBelowFloor, level)
		}
		next = sortBySkew(next, cfg.Direction)
		if len(next) > cfg.Width {
			next = next[:cfg.Width]
		}
		beam = next
	}
	return beam, nil
}
