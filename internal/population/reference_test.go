package population

import "repro/internal/audience"

// Accessors and the analytic model that only this package's tests read.

// All returns a set of every user in the universe.
func (u *Universe) All() *audience.Set {
	s := audience.New(u.localSize)
	s.Fill()
	return s
}

// CellSet returns the set of users in the given demographic cell (shared; do
// not modify).
func (u *Universe) CellSet(c Cell) *audience.Set { return u.byCell[c] }

// RegionOfUser returns the region of user i.
func (u *Universe) RegionOfUser(i int) Region { return Region(u.regions[i]) }

// FactorRateIn returns the probability a user in cell c holds factor f.
func (u *Universe) FactorRateIn(f int, c Cell) float64 {
	if f < 0 || f >= len(u.cfg.Factors) {
		return 0
	}
	return u.cfg.Factors[f].RateIn(c)
}

// ExpectedCount returns the analytically expected audience size of the
// attribute under the generative model, which materialization is checked
// against.
func (u *Universe) ExpectedCount(m AttrModel) float64 {
	var total float64
	for c := 0; c < NumCells; c++ {
		n := float64(u.byCell[c].Count())
		pf := u.FactorRateIn(m.Factor, Cell(c))
		var mean float64
		for t := 0; t < ActivityTiers; t++ {
			off := u.cfg.ActivitySigma * activityQuantiles[t]
			mean += pf*u.rateAt(m, Cell(c), true, off) + (1-pf)*u.rateAt(m, Cell(c), false, off)
		}
		total += n * mean / ActivityTiers
	}
	return total
}
