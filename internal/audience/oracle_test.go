package audience

import "math/bits"

// Reference code the tests compare the program's kernels against: naive
// Set algebra with no tiling or registers.

// CountRange returns the number of users in the set with indices in
// [lo, hi). Out-of-range bounds are clamped to the universe.
func (s *Set) CountRange(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > s.n {
		hi = s.n
	}
	if lo >= hi {
		return 0
	}
	wlo, whi := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << uint(lo&63)
	hiMask := ^uint64(0) >> uint(63-(hi-1)&63)
	if wlo == whi {
		return bits.OnesCount64(s.words[wlo] & loMask & hiMask)
	}
	c := bits.OnesCount64(s.words[wlo]&loMask) + bits.OnesCount64(s.words[whi]&hiMask)
	return c + countWords(s.words[wlo+1:whi])
}

// CountAndNot returns |a \ b| without allocating.
func CountAndNot(a, b *Set) int {
	a.checkCompat(b)
	c := 0
	for i, w := range a.words {
		c += bits.OnesCount64(w &^ b.words[i])
	}
	return c
}

// CountOr returns |a ∪ b| without allocating.
func CountOr(a, b *Set) int {
	a.checkCompat(b)
	c := 0
	for i, w := range a.words {
		c += bits.OnesCount64(w | b.words[i])
	}
	return c
}

// IntersectAll returns the intersection of all given sets. It panics on an
// empty argument list.
func IntersectAll(sets ...*Set) *Set {
	if len(sets) == 0 {
		panic("audience: IntersectAll of nothing")
	}
	out := sets[0].Clone()
	for _, t := range sets[1:] {
		out.AndWith(t)
	}
	return out
}

// UnionAll returns the union of all given sets. It panics on an empty
// argument list.
func UnionAll(sets ...*Set) *Set {
	if len(sets) == 0 {
		panic("audience: UnionAll of nothing")
	}
	out := sets[0].Clone()
	for _, t := range sets[1:] {
		out.OrWith(t)
	}
	return out
}

// Indices returns all user indices in the set, in increasing order.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// Containers reports how many non-empty chunks the set stores.
func (c *CSet) Containers() int { return len(c.keys) }

// ExecPlans compiles and executes a batch over the whole universe in one
// shot, a convenience for tests and benchmarks.
func ExecPlans(plans []*Plan) []int {
	counts, _ := CompileBatch(plans).Exec(nil)
	return counts
}
