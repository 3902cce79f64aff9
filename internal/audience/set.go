// Package audience implements dense bitset audience sets over a user
// universe. An audience is the set of users matched by a targeting; the
// platform simulators intersect, union, and count these sets to answer
// size-estimate queries.
//
// Sets are fixed-size at creation (the universe size). Size queries, the
// hot path of every experiment, count through compiled plans (plan.go) over
// dense or compressed (cset.go) operands; the Set algebra here builds the
// operands and serves as the reference evaluator.
package audience

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Set is a fixed-size bitset over user indices [0, Len()).
// The zero value is an empty set of length 0; use New to create a usable set.
type Set struct {
	n     int
	id    uint64
	words []uint64
}

// setIDs hands out a process-unique id per constructed Set. The plan
// compiler numbers a batch's operands by these ids, so every constructor
// must mint a fresh one.
var setIDs atomic.Uint64

// ID returns a process-unique identifier for the set, assigned at
// construction. Two sets with the same id are the same object; the zero
// value Set has id 0, which no constructed set ever gets.
func (s *Set) ID() uint64 { return s.id }

// New returns an empty set over a universe of n users.
func New(n int) *Set {
	if n < 0 {
		panic("audience: negative universe size")
	}
	return &Set{n: n, id: setIDs.Add(1), words: make([]uint64, (n+63)/64)}
}

// NewFromFunc returns a set over n users containing every index i for which
// member(i) is true.
func NewFromFunc(n int, member func(i int) bool) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if member(i) {
			s.words[i>>6] |= 1 << uint(i&63)
		}
	}
	return s
}

// Len returns the universe size of the set.
func (s *Set) Len() int { return s.n }

// Add inserts user index i into the set. It panics if i is out of range.
func (s *Set) Add(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("audience: index %d out of range [0, %d)", i, s.n))
	}
	s.words[i>>6] |= 1 << uint(i&63)
}

// Remove deletes user index i from the set. It panics if i is out of range.
func (s *Set) Remove(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("audience: index %d out of range [0, %d)", i, s.n))
	}
	s.words[i>>6] &^= 1 << uint(i&63)
}

// Contains reports whether user index i is in the set.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i>>6]&(1<<uint(i&63)) != 0
}

// Count returns the number of users in the set. Trailing zero words —
// the common tail of mostly-empty scratch sets — are skipped with a
// backward scan (one load-compare per word) instead of popcounted.
func (s *Set) Count() int {
	hi := len(s.words)
	for hi > 0 && s.words[hi-1] == 0 {
		hi--
	}
	return countWords(s.words[:hi])
}

// Clone returns a copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, id: setIDs.Add(1), words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Fill adds every user in the universe to the set.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// Clear removes every user from the set.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// trim zeroes the bits beyond the universe size in the final word.
func (s *Set) trim() {
	if rem := s.n & 63; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(rem)) - 1
	}
}

// checkCompat panics if t is not over the same universe size as s.
func (s *Set) checkCompat(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("audience: universe size mismatch %d != %d", s.n, t.n))
	}
}

// AndWith intersects s with t in place.
func (s *Set) AndWith(t *Set) {
	s.checkCompat(t)
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
}

// OrWith unions t into s in place.
func (s *Set) OrWith(t *Set) {
	s.checkCompat(t)
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
}

// AndNotWith removes from s every user present in t.
func (s *Set) AndNotWith(t *Set) {
	s.checkCompat(t)
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
}

// And returns a new set holding the intersection of a and b.
func And(a, b *Set) *Set {
	a.checkCompat(b)
	out := &Set{n: a.n, id: setIDs.Add(1), words: make([]uint64, len(a.words))}
	for i := range out.words {
		out.words[i] = a.words[i] & b.words[i]
	}
	return out
}

// Or returns a new set holding the union of a and b.
func Or(a, b *Set) *Set {
	a.checkCompat(b)
	out := &Set{n: a.n, id: setIDs.Add(1), words: make([]uint64, len(a.words))}
	for i := range out.words {
		out.words[i] = a.words[i] | b.words[i]
	}
	return out
}

// AndNot returns a new set holding a minus b.
func AndNot(a, b *Set) *Set {
	a.checkCompat(b)
	out := &Set{n: a.n, id: setIDs.Add(1), words: make([]uint64, len(a.words))}
	for i := range out.words {
		out.words[i] = a.words[i] &^ b.words[i]
	}
	return out
}

// CountAnd returns |a ∩ b| without allocating.
func CountAnd(a, b *Set) int {
	a.checkCompat(b)
	c := 0
	for i, w := range a.words {
		c += bits.OnesCount64(w & b.words[i])
	}
	return c
}

// Equal reports whether a and b contain exactly the same users. Trailing
// words that are zero in both sets — the common tail when comparing
// mostly-empty scratch sets — are skipped with a cheap OR scan.
func Equal(a, b *Set) bool {
	if a.n != b.n {
		return false
	}
	hi := len(a.words)
	for hi > 0 && a.words[hi-1]|b.words[hi-1] == 0 {
		hi--
	}
	for i := 0; i < hi; i++ {
		if a.words[i] != b.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every user index in the set, in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi<<6 + b)
			w &= w - 1
		}
	}
}
