package xrand

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestMixDeterministic(t *testing.T) {
	a := Mix(1, 2, 3)
	b := Mix(1, 2, 3)
	if a != b {
		t.Fatalf("Mix not deterministic: %x vs %x", a, b)
	}
	if Mix(1, 2, 3) == Mix(3, 2, 1) {
		t.Fatalf("Mix should be order sensitive")
	}
}

// TestMixGolden pins Mix to literal values. Every stateless draw in the
// repository is a Mix, so these values change only if every artifact does.
func TestMixGolden(t *testing.T) {
	for _, c := range []struct {
		words []uint64
		want  uint64
	}{
		{nil, 0x517cc1b727220a95},
		{[]uint64{0}, 0x35f576a4e31cf92b},
		{[]uint64{1, 2, 3}, 0x9d2d29d540550453},
		{[]uint64{42, 0x33, 17, 40_006}, 0x9430a7da46bf6fdc},
		{[]uint64{42, 0x22, 3, 0, 1}, 0xa8039cb6b07a92fb},
		{[]uint64{^uint64(0), 0x9e3779b97f4a7c15}, 0x92eb61a1da2004b0},
	} {
		if got := Mix(c.words...); got != c.want {
			t.Errorf("Mix(%#x) = %#x, want %#x", c.words, got, c.want)
		}
	}
}

// TestPrefixContinuesMix pins the prefix contract: for every split of a
// word list, the empty prefix included, the prefix over the head continued
// with the tail equals Mix over the whole list. Then finishes one word, so
// a longer tail is carried word by word through the state each round
// leaves; the split before the last word is the program's case.
func TestPrefixContinuesMix(t *testing.T) {
	r := New(2024)
	edge := []uint64{0, 1, ^uint64(0), 0x9e3779b97f4a7c15}
	for trial := 0; trial < 5000; trial++ {
		words := make([]uint64, 1+r.Intn(6))
		for i := range words {
			if r.Intn(4) == 0 {
				words[i] = edge[r.Intn(len(edge))]
			} else {
				words[i] = r.Uint64()
			}
		}
		want := Mix(words...)
		last := len(words) - 1
		for k := 0; k <= last; k++ {
			p := MixPrefix(words[:k]...)
			for _, w := range words[k:last] {
				p = Prefix{p.Then(w)}
			}
			if got := p.Then(words[last]); got != want {
				t.Fatalf("MixPrefix(%#x) continued with %#x = %#x, want Mix = %#x", words[:k], words[k:], got, want)
			}
		}
	}
}

// TestPrefixBernoulli checks the prefix coin flip against Bernoulli over
// the full word list, the p <= 0 and p >= 1 edges included.
func TestPrefixBernoulli(t *testing.T) {
	r := New(5)
	ps := []float64{math.Inf(-1), -0.5, 0, 1e-9, 0.3, 0.5, 0.999, 1, 1.5, math.Inf(1), math.NaN()}
	for trial := 0; trial < 2000; trial++ {
		a, b, w := r.Uint64(), r.Uint64()%8, r.Uint64()
		p := MixPrefix(a, b)
		for _, q := range append(ps, r.Float64()) {
			if got, want := p.Bernoulli(q, w), Bernoulli(q, a, b, w); got != want {
				t.Fatalf("MixPrefix(%#x, %#x).Bernoulli(%v, %#x) = %v, Bernoulli = %v", a, b, q, w, got, want)
			}
		}
	}
	p := MixPrefix(1, 2)
	if p.Bernoulli(0, 3) || p.Bernoulli(-0.5, 3) {
		t.Error("prefix Bernoulli(p <= 0) must be false")
	}
	if !p.Bernoulli(1, 3) || !p.Bernoulli(1.5, 3) {
		t.Error("prefix Bernoulli(p >= 1) must be true")
	}
}

func TestMixDistinctInputs(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 10000; i++ {
		h := Mix(42, i)
		if seen[h] {
			t.Fatalf("collision at input %d", i)
		}
		seen[h] = true
	}
}

func TestUniform01Range(t *testing.T) {
	if err := quick.Check(func(h uint64) bool {
		u := Uniform01(h)
		return u >= 0 && u < 1
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestUniform01Mean(t *testing.T) {
	r := New(7)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += Uniform01(r.Uint64())
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean of Uniform01 = %v, want ~0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	if Bernoulli(0, 1, 2) {
		t.Error("Bernoulli(0) must be false")
	}
	if !Bernoulli(1, 1, 2) {
		t.Error("Bernoulli(1) must be true")
	}
	if Bernoulli(-0.5, 9) {
		t.Error("Bernoulli(negative) must be false")
	}
	if !Bernoulli(1.5, 9) {
		t.Error("Bernoulli(>1) must be true")
	}
}

func TestBernoulliRate(t *testing.T) {
	const p = 0.3
	const n = 100000
	count := 0
	for i := uint64(0); i < n; i++ {
		if Bernoulli(p, 123, i) {
			count++
		}
	}
	got := float64(count) / n
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli rate = %v, want ~%v", got, p)
	}
}

func TestBernoulliDeterministic(t *testing.T) {
	for i := uint64(0); i < 1000; i++ {
		if Bernoulli(0.5, 7, i) != Bernoulli(0.5, 7, i) {
			t.Fatalf("Bernoulli not deterministic at %d", i)
		}
	}
}

func TestRandReproducible(t *testing.T) {
	a, b := New(99), New(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at step %d", i)
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(11)
	const n, buckets = 100000, 10
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("bucket %d count %d, want ~%v", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of range", f)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(17)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestLogUniformRange(t *testing.T) {
	r := New(23)
	for i := 0; i < 10000; i++ {
		v := r.LogUniform(0.001, 0.2)
		if v < 0.001 || v > 0.2 {
			t.Fatalf("LogUniform out of range: %v", v)
		}
	}
}

func TestLogUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LogUniform(0, 1) should panic")
		}
	}()
	New(1).LogUniform(0, 1)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(31)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation element %d", v)
		}
		seen[v] = true
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(37)
	s := r.Sample(50, 10)
	if len(s) != 10 {
		t.Fatalf("Sample returned %d elements, want 10", len(s))
	}
	seen := make(map[int]bool)
	for _, v := range s {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("bad sample element %d", v)
		}
		seen[v] = true
	}
}

func TestSampleKGreaterThanN(t *testing.T) {
	r := New(41)
	s := r.Sample(5, 10)
	if len(s) != 5 {
		t.Fatalf("Sample(5,10) returned %d elements, want 5", len(s))
	}
}

func TestSampleUniformCoverage(t *testing.T) {
	// Every element should be sampled roughly equally often.
	counts := make([]int, 20)
	r := New(43)
	const rounds = 20000
	for i := 0; i < rounds; i++ {
		for _, v := range r.Sample(20, 5) {
			counts[v]++
		}
	}
	want := float64(rounds) * 5 / 20
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("element %d sampled %d times, want ~%v", i, c, want)
		}
	}
}

func TestShuffle(t *testing.T) {
	r := New(47)
	vals := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	seen := make([]bool, 10)
	for _, v := range vals {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("element %d lost in shuffle", i)
		}
	}
}

func TestHashStringStable(t *testing.T) {
	if HashString("facebook") != HashString("facebook") {
		t.Fatal("HashString not stable")
	}
	if HashString("facebook") == HashString("linkedin") {
		t.Fatal("HashString collision on distinct inputs")
	}
	if HashString("") == HashString("a") {
		t.Fatal("HashString collision on empty vs non-empty")
	}
}

func TestMul64(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkMix(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= Mix(uint64(i), 42)
	}
	_ = sink
}

func BenchmarkBernoulli(b *testing.B) {
	n := 0
	for i := 0; i < b.N; i++ {
		if Bernoulli(0.1, uint64(i), 7) {
			n++
		}
	}
	_ = n
}

// sampleFisherYates is the partial Fisher–Yates Sample used to run over a
// full n-element index slice; Sample must draw and return exactly what it
// did.
func sampleFisherYates(r *Rand, n, k int) []int {
	if k >= n {
		return r.Perm(n)
	}
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k]
}

// TestSampleMatchesFisherYates: for n up to 700 and k in {0, 1, 2, 3, n−1,
// n, n+1}, Sample returns the ids the full-slice shuffle returns and leaves
// the generator in the same state, over many seeds.
func TestSampleMatchesFisherYates(t *testing.T) {
	meta := New(1)
	for trial := 0; trial < 400; trial++ {
		seed := meta.Uint64()
		n := meta.Intn(701)
		if trial < 8 {
			n = trial // the smallest universes, 0 included
		}
		for _, k := range []int{0, 1, 2, 3, n - 1, n, n + 1} {
			if k < 0 {
				continue
			}
			a, b := New(seed), New(seed)
			got, want := a.Sample(n, k), sampleFisherYates(b, n, k)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: Sample(%d, %d) = %v, want %v", seed, n, k, got, want)
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("seed %d: Sample(%d, %d) left the generator in another state", seed, n, k)
			}
		}
	}
}
