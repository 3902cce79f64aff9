package population

import (
	"fmt"

	"repro/internal/audience"
)

// UniverseData is the raw per-user state a built universe carries: exactly
// the arrays buildRange draws, nothing derivable from Config. A snapshot
// (internal/snapshot) persists these arrays so a later boot can reconstruct
// the universe with FromData — one linear pass over the arrays, zero hash
// draws — instead of re-running the full generative build.
//
// The slices are shared with the universe they came from; treat them as
// read-only.
type UniverseData struct {
	Cells   []Cell   // per-user demographic cell
	Factors []uint32 // per-user latent-factor bitmask
	Tiers   []uint8  // per-user activity tier
	Regions []uint8  // per-user region
}

// Data exposes the universe's per-user arrays for snapshotting. The slices
// alias the universe's own storage; callers must not modify them.
func (u *Universe) Data() UniverseData {
	return UniverseData{Cells: u.cells, Factors: u.factors, Tiers: u.tiers, Regions: u.regions}
}

// FromData reconstructs the universe build(cfg, spans, …) would produce,
// taking the per-user draws from data instead of re-hashing them. The
// resulting universe is indistinguishable from a built one — same config
// defaults, same demographic bitsets (rebuilt from the cell/region arrays
// in one pass) — so Materialize and every accessor behave identically.
// data must describe exactly the users the spans select, in local index
// order; pass nil spans for a full universe. The arrays are retained, not
// copied.
func FromData(cfg Config, spans []Span, data UniverseData) (*Universe, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := validateSpans(cfg.Size, spans); err != nil {
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
	if len(data.Cells) != localSize || len(data.Factors) != localSize ||
		len(data.Tiers) != localSize || len(data.Regions) != localSize {
		return nil, fmt.Errorf("population: data arrays hold %d/%d/%d/%d users, spans select %d",
			len(data.Cells), len(data.Factors), len(data.Tiers), len(data.Regions), localSize)
	}
	factorLimit := uint32(0)
	if n := len(cfg.Factors); n > 0 {
		factorLimit = ^uint32(0) >> uint(32-n)
	}
	for i := 0; i < localSize; i++ {
		if data.Cells[i] >= NumCells {
			return nil, fmt.Errorf("population: user %d cell %d out of range", i, data.Cells[i])
		}
		if data.Tiers[i] >= ActivityTiers {
			return nil, fmt.Errorf("population: user %d activity tier %d out of range", i, data.Tiers[i])
		}
		if data.Regions[i] >= NumRegions {
			return nil, fmt.Errorf("population: user %d region %d out of range", i, data.Regions[i])
		}
		if data.Factors[i]&^factorLimit != 0 {
			return nil, fmt.Errorf("population: user %d factor mask %#x exceeds %d configured factors", i, data.Factors[i], len(cfg.Factors))
		}
	}

	var held []Span
	if spans != nil {
		held = make([]Span, len(spans))
		copy(held, spans)
	}
	u := &Universe{
		cfg:       cfg,
		localSize: localSize,
		spans:     held,
		cells:     data.Cells,
		factors:   data.Factors,
		tiers:     data.Tiers,
		regions:   data.Regions,
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
	for i := 0; i < localSize; i++ {
		cell := data.Cells[i]
		u.byGender[cell.Gender()].Add(i)
		u.byAge[cell.Age()].Add(i)
		u.byCell[cell].Add(i)
		u.byRegion[data.Regions[i]].Add(i)
	}
	return u, nil
}
