package audience

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/xrand"
)

// csetSizes exercises every chunk-boundary shape: sub-chunk, exactly one
// chunk, one bit either side of the boundary, and multi-chunk universes
// whose last chunk is partial.
var csetSizes = []int{1, 63, 64, 65, 1000, chunkSize - 1, chunkSize, chunkSize + 1, 3*chunkSize + 777}

// csetShapes builds sets that force each container form: near-empty
// (array), heavy (bitmap), clustered (run), and striped mixes so one CSet
// holds several forms at once.
func csetShapes(n int) map[string]*Set {
	return map[string]*Set{
		"empty":  New(n),
		"sparse": randomSet(11, n, 0.0005),
		"dense":  randomSet(12, n, 0.5),
		"full": NewFromFunc(n, func(i int) bool {
			return true
		}),
		"runs": NewFromFunc(n, func(i int) bool {
			return (i/997)%2 == 0
		}),
		"mixed": NewFromFunc(n, func(i int) bool {
			switch (i >> chunkBits) % 3 {
			case 0:
				return xrand.Bernoulli(0.001, 13, uint64(i))
			case 1:
				return (i/513)%2 == 1
			default:
				return xrand.Bernoulli(0.6, 14, uint64(i))
			}
		}),
		"gapped": NewFromFunc(n, func(i int) bool {
			return (i>>chunkBits)%2 == 0 && xrand.Bernoulli(0.01, 15, uint64(i))
		}),
	}
}

func TestCSetRoundTrip(t *testing.T) {
	for _, n := range csetSizes {
		for name, s := range csetShapes(n) {
			c := FromSet(s)
			if c.Len() != s.Len() {
				t.Fatalf("n=%d %s: Len = %d, want %d", n, name, c.Len(), s.Len())
			}
			if c.Count() != s.Count() {
				t.Fatalf("n=%d %s: Count = %d, want %d", n, name, c.Count(), s.Count())
			}
			if back := c.ToSet(); !Equal(back, s) {
				t.Fatalf("n=%d %s: ToSet(FromSet(s)) != s", n, name)
			}
		}
	}
}

func TestCSetContains(t *testing.T) {
	for _, n := range csetSizes {
		for name, s := range csetShapes(n) {
			c := FromSet(s)
			step := 1
			if n > 4096 {
				step = 61 // prime stride still hits every word class
			}
			for i := -1; i <= n; i += step {
				if got, want := c.Contains(i), s.Contains(i); got != want {
					t.Fatalf("n=%d %s: Contains(%d) = %v, want %v", n, name, i, got, want)
				}
			}
		}
	}
}

// TestSetCountRange checks the dense CountRange against a naive scan, since
// the windowed plan tests use it as the reference.
func TestSetCountRange(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 129, 1000} {
		s := randomSet(21, n, 0.37)
		for lo := -2; lo <= n+1; lo += 1 + n/37 {
			for hi := lo; hi <= n+2; hi += 1 + n/31 {
				want := 0
				for i := lo; i < hi; i++ {
					if s.Contains(i) {
						want++
					}
				}
				if got := s.CountRange(lo, hi); got != want {
					t.Fatalf("n=%d: CountRange(%d,%d) = %d, want %d", n, lo, hi, got, want)
				}
			}
		}
	}
}

// shapeNames lists csetShapes' keys in a fixed order for pairwise tests.
var shapeNames = []string{"empty", "sparse", "dense", "full", "runs", "mixed", "gapped"}

// TestCSetCountKernels pins the plan a compressed catalog's option takes
// as the base of a spec whose other operands are dense (demographics,
// unions, custom audiences) on every shape pair: the base read through a
// register, intersected with a dense operand or with one subtracted, over
// the whole universe and over an unaligned window, must count exactly like
// the dense set algebra.
func TestCSetCountKernels(t *testing.T) {
	for _, n := range csetSizes {
		shapes := csetShapes(n)
		none, all := New(n), New(n)
		all.Fill()
		w := []Window{{n/3 + 1, n - n/5 - 1}}
		for _, an := range shapeNames {
			a := shapes[an]
			ca := FromSet(a)
			for _, bn := range shapeNames {
				b := shapes[bn]
				for _, tc := range []struct {
					name      string
					got, want int
				}{
					{"and", basePlan(ca, b, none, nil), CountAnd(a, b)},
					{"andnot", basePlan(ca, all, b, nil), CountAndNot(a, b)},
					{"and window", basePlan(ca, b, none, w), And(a, b).CountRange(w[0].Lo, w[0].Hi)},
					{"andnot window", basePlan(ca, all, b, w), AndNot(a, b).CountRange(w[0].Lo, w[0].Hi)},
				} {
					if tc.got != tc.want {
						t.Fatalf("n=%d %s %s %s: register count = %d, want %d", n, an, tc.name, bn, tc.got, tc.want)
					}
				}
			}
		}
	}
}

// regCount counts a ∩ b, or a \ b when negate is set, over windows as a
// batch of one whose operands are both compressed-only: the schedule reads
// them through registers.
func regCount(a, b *CSet, negate bool, windows []Window) int {
	p := CompilePlan(a.Len(), []PlanClause{{Op: Operand{C: a}}, {Op: Operand{C: b}, Negate: negate}})
	counts, _ := CompileBatch([]*Plan{p}).Exec(windows)
	return counts[0]
}

// planCountRange counts c's members in [lo, hi) the way a shard counts a
// lone compressed-only option: a one-operand plan executed over that
// window, read through a register tile by tile.
func planCountRange(c *CSet, lo, hi int) int {
	p := CompilePlan(c.Len(), []PlanClause{{Op: Operand{C: c}}})
	counts, _ := CompileBatch([]*Plan{p}).Exec([]Window{{lo, hi}})
	return counts[0]
}

// TestCSetMaterializingOps checks the register-backed execution on every
// shape pair: two compressed-only operands intersected or subtracted, over
// the whole universe and over an unaligned window, and their Union, must
// equal the dense set algebra.
func TestCSetMaterializingOps(t *testing.T) {
	for _, n := range csetSizes {
		shapes := csetShapes(n)
		window := []Window{{n / 3, n - n/5}}
		for _, an := range shapeNames {
			for _, bn := range shapeNames {
				a, b := shapes[an], shapes[bn]
				ca, cb := FromSet(a), FromSet(b)
				if got, want := regCount(ca, cb, false, nil), CountAnd(a, b); got != want {
					t.Fatalf("n=%d %s∩%s: registers count %d, want %d", n, an, bn, got, want)
				}
				if got, want := regCount(ca, cb, true, nil), CountAndNot(a, b); got != want {
					t.Fatalf("n=%d %s\\%s: registers count %d, want %d", n, an, bn, got, want)
				}
				if got, want := regCount(ca, cb, false, window), And(a, b).CountRange(window[0].Lo, window[0].Hi); got != want {
					t.Fatalf("n=%d %s∩%s window: registers count %d, want %d", n, an, bn, got, want)
				}
				u := Union(n, []Operand{{C: ca}, {Set: b}})
				if !Equal(u.Set, Or(a, b)) {
					t.Fatalf("n=%d %s∪%s: Union mismatch", n, an, bn)
				}
			}
		}
	}
}

// TestCSetMaterializedCardinality checks that every container's cached card
// matches its membership, for built and decoded sets alike, and that the
// register-backed execution and Union never write through to an operand's
// blob — the bytes a snapshot-backed set aliases.
func TestCSetMaterializedCardinality(t *testing.T) {
	n := 2*chunkSize + 100
	a := FromSet(randomSet(31, n, 0.3))
	b := randomSet(32, n, 0.02)
	for name, c := range decodedForms(t, FromSet(b)) {
		sum := 0
		for ci, key := range c.keys {
			s := New(n)
			base := int(key) * chunkWords
			expandChunk(&c.conts[ci], s.words[base:min(base+chunkWords, len(s.words))])
			if got := s.Count(); got != c.conts[ci].card {
				t.Fatalf("%s: container %d caches card %d, holds %d", name, ci, c.conts[ci].card, got)
			}
			sum += c.conts[ci].card
		}
		if sum != c.Count() || c.Count() != b.Count() {
			t.Fatalf("%s: Count %d, containers sum %d, want %d", name, c.Count(), sum, b.Count())
		}
		before := append([]byte(nil), c.Blob()...)
		regCount(a, c, false, nil)
		regCount(a, c, true, []Window{{7, n - 7}})
		Union(n, []Operand{{C: a}, {C: c}})
		if !bytes.Equal(before, c.Blob()) || !Equal(c.ToSet(), b) {
			t.Fatalf("%s: kernels mutated their operand", name)
		}
	}
}

// buildSetPattern fills a dense set with a deterministic mixture that forces
// all three container forms: a sparse salt (array chunks), a dense band
// (bitmap chunks), long runs (run chunks), and empty chunks in between.
func buildSetPattern(n int, seed uint64) *Set {
	return NewFromFunc(n, func(i int) bool {
		switch (i >> chunkBits) % 4 {
		case 0: // sparse
			return xrand.Mix(seed, 1, uint64(i))%97 == 0
		case 1: // dense
			return xrand.Mix(seed, 2, uint64(i))%3 != 0
		case 2: // runs
			return (i>>9)%2 == 0
		default: // mostly empty, a few stragglers
			return xrand.Mix(seed, 3, uint64(i))%5011 == 0
		}
	})
}

// checkCSetOps compares the compiled path over compressed-only operands —
// intersection and difference through registers, over the whole universe
// and a window cutting words — and Union against the dense set algebra.
func checkCSetOps(t *testing.T, a, b *Set) {
	t.Helper()
	n := a.Len()
	ca, cb := FromSet(a), FromSet(b)
	w := []Window{{n/7 + 3, n - n/9 - 1}}
	for _, tc := range []struct {
		name      string
		got, want int
	}{
		{"and", regCount(ca, cb, false, nil), CountAnd(a, b)},
		{"andnot", regCount(ca, cb, true, nil), CountAndNot(a, b)},
		{"and window", regCount(ca, cb, false, w), And(a, b).CountRange(w[0].Lo, w[0].Hi)},
		{"andnot window", regCount(ca, cb, true, w), AndNot(a, b).CountRange(w[0].Lo, w[0].Hi)},
	} {
		if tc.got != tc.want {
			t.Fatalf("n=%d %s: got %d, want %d (|a|=%d |b|=%d)", n, tc.name, tc.got, tc.want, a.Count(), b.Count())
		}
	}
	if u := Union(n, []Operand{{Set: a}, {C: cb}}); !Equal(u.Set, Or(a, b)) {
		t.Fatalf("n=%d: Union mismatch (|a|=%d |b|=%d)", n, a.Count(), b.Count())
	}
}

// TestSetCSetOpsMatchDense pins the dense × compressed operations of the
// compiled path against their dense × dense counterparts at
// container-boundary sizes.
func TestSetCSetOpsMatchDense(t *testing.T) {
	for _, n := range []int{63, 1000, chunkSize - 1, chunkSize, chunkSize + 1, 2*chunkSize + 100, 4*chunkSize + 63} {
		checkCSetOps(t, buildSetPattern(n, 11), buildSetPattern(n, 22))
	}
}

// TestSetCSetOpsEdgeSets covers the degenerate operands: empty and full
// compressed sets against empty, full, and patterned ones.
func TestSetCSetOpsEdgeSets(t *testing.T) {
	const n = chunkSize + 513
	empty := New(n)
	full := New(n)
	full.Fill()
	pat := buildSetPattern(n, 7)
	for _, a := range []*Set{empty, full, pat} {
		for _, b := range []*Set{empty, full, pat} {
			checkCSetOps(t, a, b)
		}
	}
}

// TestCSetCompression sanity-checks the container choices: sparse data must
// not pick bitmaps, clustered data must compress far below dense size.
func TestCSetCompression(t *testing.T) {
	n := 4 * chunkSize
	dense := 8 * ((n + 63) / 64)

	sparse := FromSet(randomSet(41, n, 0.001))
	if sparse.Bytes() >= dense/8 {
		t.Fatalf("sparse set compressed to %d bytes, want far under dense %d", sparse.Bytes(), dense)
	}
	runs := FromSet(NewFromFunc(n, func(i int) bool { return (i/2048)%2 == 0 }))
	if runs.Bytes() >= dense/8 {
		t.Fatalf("run-structured set compressed to %d bytes, want far under dense %d", runs.Bytes(), dense)
	}
	if g := FromSet(New(n)); g.Containers() != 0 || g.Bytes() != 0 {
		t.Fatalf("empty set stores %d containers / %d bytes", g.Containers(), g.Bytes())
	}
}

// TestCSetChecksCompat: the compiler and Union refuse a compressed operand
// over a different universe.
func TestCSetChecksCompat(t *testing.T) {
	c := FromSet(randomSet(1, 1000, 0.1))
	for name, op := range map[string]func(){
		"plan":  func() { CompilePlan(2000, []PlanClause{{Op: Operand{Set: New(2000)}}, {Op: Operand{C: c}}}) },
		"union": func() { Union(2000, []Operand{{C: c}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: universe mismatch did not panic", name)
				}
			}()
			op()
		}()
	}
}

// BenchmarkCSetKernels times every compressed kernel — a register-backed
// plan intersecting and subtracting the set from a compressed-only
// operand, Union into a dense operand, and a plan whose compressed-only
// base is the set, ANDed with one dense operand and excluding another — at
// 2^17 and 2^22 users on random sets of four densities and a
// run-clustered set. Each case runs on
// the set FromSet builds and on a DecodeCSet view of a copy of its blob,
// the form snapshot-booted shards serve.
func BenchmarkCSetKernels(b *testing.B) {
	for _, n := range []int{1 << 17, 1 << 22} {
		acc := FromSet(randomSet(51, n, 0.5))
		scope := randomSet(52, n, 0.5)
		excl := randomSet(53, n, 0.3)
		shapes := []struct {
			name string
			s    *Set
		}{
			{"0.2%", randomSet(54, n, 0.002)},
			{"1%", randomSet(55, n, 0.01)},
			{"5%", randomSet(56, n, 0.05)},
			{"30%", randomSet(57, n, 0.3)},
			{"runs", NewFromFunc(n, func(i int) bool { return (i/997)%2 == 0 })},
		}
		for _, sh := range shapes {
			built := FromSet(sh.s)
			decoded, err := DecodeCSet(append([]byte(nil), built.Blob()...))
			if err != nil {
				b.Fatal(err)
			}
			if littleEndian && !aliases(decoded) {
				b.Fatal("decoded blob copy is not aliased")
			}
			for _, form := range []struct {
				name string
				c    *CSet
			}{{"built", built}, {"decoded", decoded}} {
				c := form.c
				prefix := fmt.Sprintf("n=%d/set=%s/form=%s/op=", n, sh.name, form.name)
				for _, k := range []struct {
					op  string
					run func() int
				}{
					{"and", func() int { return regCount(acc, c, false, nil) }},
					{"andnot", func() int { return regCount(acc, c, true, nil) }},
					{"or", func() int { return Union(n, []Operand{{C: acc}, {C: c}}).Set.Count() }},
					{"plan", func() int { return basePlan(c, scope, excl, nil) }},
				} {
					b.Run(prefix+k.op, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							sinkInt = k.run()
						}
					})
				}
			}
		}
	}
}

var sinkInt int
