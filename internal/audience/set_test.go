package audience

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// randomSet builds a pseudo-random set of n users with inclusion rate p.
func randomSet(seed uint64, n int, p float64) *Set {
	return NewFromFunc(n, func(i int) bool {
		return xrand.Bernoulli(p, seed, uint64(i))
	})
}

func TestCountAndNot(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000} {
		a := randomSet(7, n, 0.4)
		b := randomSet(8, n, 0.3)
		want := AndNot(a, b).Count()
		if got := CountAndNot(a, b); got != want {
			t.Fatalf("n=%d: CountAndNot = %d, want %d", n, got, want)
		}
	}
}

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if s.Count() != 0 || s.Len() != 100 {
		t.Fatalf("new set: count=%d len=%d", s.Count(), s.Len())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) should panic")
		}
	}()
	New(-1)
}

func TestAddRemoveContains(t *testing.T) {
	s := New(130) // crosses a word boundary
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("Contains(%d) false after Add", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d, want 8", s.Count())
	}
	s.Remove(64)
	if s.Contains(64) || s.Count() != 7 {
		t.Fatalf("Remove(64) failed: count=%d", s.Count())
	}
	// Removing an absent element is a no-op.
	s.Remove(64)
	if s.Count() != 7 {
		t.Fatal("double Remove changed count")
	}
}

func TestAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of range should panic")
		}
	}()
	New(10).Add(10)
}

func TestContainsOutOfRange(t *testing.T) {
	s := New(10)
	if s.Contains(-1) || s.Contains(10) {
		t.Fatal("Contains out of range should be false")
	}
}

func TestFillClearTrim(t *testing.T) {
	s := New(70)
	s.Fill()
	if s.Count() != 70 {
		t.Fatalf("Fill count = %d, want 70 (trim failed?)", s.Count())
	}
	s.Clear()
	if s.Count() != 0 {
		t.Fatalf("Clear count = %d", s.Count())
	}
}

func TestClone(t *testing.T) {
	s := randomSet(1, 200, 0.3)
	c := s.Clone()
	if !Equal(s, c) {
		t.Fatal("clone differs")
	}
	c.Add(0)
	c.Remove(0)
	c.Add(199)
	if Equal(s, c) && !s.Contains(199) {
		t.Fatal("clone shares storage with original")
	}
}

func TestBooleanOps(t *testing.T) {
	const n = 300
	a := randomSet(2, n, 0.4)
	b := randomSet(3, n, 0.4)
	and := And(a, b)
	or := Or(a, b)
	diff := AndNot(a, b)
	for i := 0; i < n; i++ {
		ia, ib := a.Contains(i), b.Contains(i)
		if and.Contains(i) != (ia && ib) {
			t.Fatalf("And wrong at %d", i)
		}
		if or.Contains(i) != (ia || ib) {
			t.Fatalf("Or wrong at %d", i)
		}
		if diff.Contains(i) != (ia && !ib) {
			t.Fatalf("AndNot wrong at %d", i)
		}
	}
}

func TestInPlaceOpsMatchFunctional(t *testing.T) {
	const n = 257
	a := randomSet(4, n, 0.5)
	b := randomSet(5, n, 0.5)

	x := a.Clone()
	x.AndWith(b)
	if !Equal(x, And(a, b)) {
		t.Fatal("AndWith != And")
	}
	y := a.Clone()
	y.OrWith(b)
	if !Equal(y, Or(a, b)) {
		t.Fatal("OrWith != Or")
	}
	z := a.Clone()
	z.AndNotWith(b)
	if !Equal(z, AndNot(a, b)) {
		t.Fatal("AndNotWith != AndNot")
	}
}

func TestCountAndOr(t *testing.T) {
	a := randomSet(6, 500, 0.3)
	b := randomSet(7, 500, 0.3)
	if CountAnd(a, b) != And(a, b).Count() {
		t.Fatal("CountAnd mismatch")
	}
	if CountOr(a, b) != Or(a, b).Count() {
		t.Fatal("CountOr mismatch")
	}
}

func TestInclusionExclusionIdentity(t *testing.T) {
	// Property: |A| + |B| == |A∪B| + |A∩B|.
	if err := quick.Check(func(seed uint64) bool {
		a := randomSet(seed, 320, 0.4)
		b := randomSet(seed+1, 320, 0.4)
		return a.Count()+b.Count() == CountOr(a, b)+CountAnd(a, b)
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDeMorgan(t *testing.T) {
	// Property: complement(A ∪ B) == complement(A) ∩ complement(B).
	if err := quick.Check(func(seed uint64) bool {
		const n = 192
		a := randomSet(seed, n, 0.5)
		b := randomSet(seed^77, n, 0.5)
		full := New(n)
		full.Fill()
		notA := AndNot(full, a)
		notB := AndNot(full, b)
		left := AndNot(full, Or(a, b))
		right := And(notA, notB)
		return Equal(left, right)
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestIntersectUnionAll(t *testing.T) {
	a := randomSet(11, 100, 0.5)
	b := randomSet(12, 100, 0.5)
	c := randomSet(13, 100, 0.5)
	if !Equal(IntersectAll(a, b, c), And(And(a, b), c)) {
		t.Fatal("IntersectAll mismatch")
	}
	if !Equal(UnionAll(a, b, c), Or(Or(a, b), c)) {
		t.Fatal("UnionAll mismatch")
	}
	if !Equal(IntersectAll(a), a) {
		t.Fatal("IntersectAll single mismatch")
	}
}

func TestIntersectAllEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntersectAll() should panic")
		}
	}()
	IntersectAll()
}

func TestMismatchedSizesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And on mismatched sizes should panic")
		}
	}()
	And(New(10), New(20))
}

func TestForEachAndIndices(t *testing.T) {
	s := New(200)
	want := []int{3, 64, 65, 190}
	for _, i := range want {
		s.Add(i)
	}
	got := s.Indices()
	if len(got) != len(want) {
		t.Fatalf("Indices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices = %v, want %v", got, want)
		}
	}
}

func TestEqualDifferentSizes(t *testing.T) {
	if Equal(New(10), New(20)) {
		t.Fatal("sets of different sizes must not be equal")
	}
}

func TestNewFromFunc(t *testing.T) {
	s := NewFromFunc(100, func(i int) bool { return i%3 == 0 })
	if s.Count() != 34 {
		t.Fatalf("count = %d, want 34", s.Count())
	}
	for i := 0; i < 100; i++ {
		if s.Contains(i) != (i%3 == 0) {
			t.Fatalf("wrong membership at %d", i)
		}
	}
}

func BenchmarkCountAnd(b *testing.B) {
	x := randomSet(1, 1<<20, 0.05)
	y := randomSet(2, 1<<20, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CountAnd(x, y)
	}
}

func BenchmarkNewFromFunc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NewFromFunc(1<<16, func(j int) bool { return j&7 == 0 })
	}
}

// Set identity and mutation accessors: ids are process-unique and nonzero,
// Remove undoes Add, and a compiled plan reports its universe size.
func TestSetIdentityAndPlanLen(t *testing.T) {
	a := New(128)
	b := New(128)
	if a.ID() == 0 || b.ID() == 0 {
		t.Fatalf("constructed set with zero id: %d, %d", a.ID(), b.ID())
	}
	if a.ID() == b.ID() {
		t.Fatalf("two sets share id %d", a.ID())
	}
	a.Add(5)
	a.Remove(5)
	if a.Contains(5) {
		t.Fatal("Remove left index 5 in the set")
	}
	a.Add(7)
	p := CompilePlan(128, []PlanClause{{Op: Operand{Set: a}}})
	if p.Len() != 128 {
		t.Fatalf("plan Len = %d, want 128", p.Len())
	}
}
