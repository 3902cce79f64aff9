package targeting

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// fbRules mirrors Facebook's full interface: attributes + demographics,
// exclusion allowed, AND within a feature allowed.
func fbRules() Rules {
	return Rules{
		Interface:         "facebook",
		Kinds:             []Kind{KindAttribute, KindGender, KindAge},
		AllowExclude:      true,
		AllowDemographics: true,
		AndWithinFeature:  true,
		OptionCount: func(k Kind) int {
			switch k {
			case KindAttribute:
				return 100
			case KindGender:
				return 2
			case KindAge:
				return 4
			}
			return 0
		},
	}
}

// restrictedRules mirrors Facebook's restricted interface: no demographics,
// no exclusion.
func restrictedRules() Rules {
	r := fbRules()
	r.Interface = "facebook-restricted"
	r.Kinds = []Kind{KindAttribute}
	r.AllowExclude = false
	r.AllowDemographics = false
	return r
}

// googleRules mirrors Google: attributes + topics + demographics, no AND
// within a feature.
func googleRules() Rules {
	return Rules{
		Interface:         "google",
		Kinds:             []Kind{KindAttribute, KindTopic, KindGender, KindAge},
		AllowExclude:      true,
		AllowDemographics: true,
		AndWithinFeature:  false,
		OptionCount: func(k Kind) int {
			switch k {
			case KindAttribute:
				return 100
			case KindTopic:
				return 200
			case KindGender:
				return 2
			case KindAge:
				return 4
			}
			return 0
		},
	}
}

func TestValidateSimpleAttr(t *testing.T) {
	if err := fbRules().Validate(Attr(5)); err != nil {
		t.Fatalf("simple attr rejected: %v", err)
	}
}

func TestValidateEmptySpec(t *testing.T) {
	err := fbRules().Validate(Spec{})
	if !errors.Is(err, ErrEmptySpec) {
		t.Fatalf("want ErrEmptySpec, got %v", err)
	}
}

func TestValidateEmptyClause(t *testing.T) {
	err := fbRules().Validate(Spec{Include: []Clause{{}}})
	if !errors.Is(err, ErrEmptyClause) {
		t.Fatalf("want ErrEmptyClause, got %v", err)
	}
}

func TestValidateMixedClause(t *testing.T) {
	s := Spec{Include: []Clause{{
		{Kind: KindAttribute, ID: 1},
		{Kind: KindGender, ID: 0},
	}}}
	err := fbRules().Validate(s)
	if !errors.Is(err, ErrMixedClause) {
		t.Fatalf("want ErrMixedClause, got %v", err)
	}
}

func TestValidateDuplicateRef(t *testing.T) {
	s := AnyAttr(3, 3)
	err := fbRules().Validate(s)
	if !errors.Is(err, ErrDuplicateRef) {
		t.Fatalf("want ErrDuplicateRef, got %v", err)
	}
}

func TestRestrictedForbidsDemographics(t *testing.T) {
	err := restrictedRules().Validate(WithGender(Attr(1), 0))
	if !errors.Is(err, ErrDemoForbidden) {
		t.Fatalf("want ErrDemoForbidden, got %v", err)
	}
	err = restrictedRules().Validate(WithAge(Attr(1), 0, 1))
	if !errors.Is(err, ErrDemoForbidden) {
		t.Fatalf("want ErrDemoForbidden, got %v", err)
	}
}

func TestRestrictedForbidsExclusion(t *testing.T) {
	err := restrictedRules().Validate(Excluding(Attr(1), Attr(2)))
	if !errors.Is(err, ErrExcludeForbidden) {
		t.Fatalf("want ErrExcludeForbidden, got %v", err)
	}
}

func TestRestrictedAllowsAttrComposition(t *testing.T) {
	// Compositions of plain attributes are exactly what the restricted
	// interface still allows — the paper's §4.1 finding depends on this.
	if err := restrictedRules().Validate(And(Attr(1), Attr(2), Attr(3))); err != nil {
		t.Fatalf("attr composition rejected on restricted interface: %v", err)
	}
}

func TestGoogleForbidsAndWithinFeature(t *testing.T) {
	err := googleRules().Validate(And(Attr(1), Attr(2)))
	if !errors.Is(err, ErrAndWithinFeature) {
		t.Fatalf("want ErrAndWithinFeature, got %v", err)
	}
	err = googleRules().Validate(And(Topic(1), Topic(2)))
	if !errors.Is(err, ErrAndWithinFeature) {
		t.Fatalf("want ErrAndWithinFeature for topics, got %v", err)
	}
}

func TestGoogleAllowsCrossFeatureAnd(t *testing.T) {
	// Attribute ∧ topic is Google's AND-composition route (paper fn. 8).
	if err := googleRules().Validate(And(Attr(1), Topic(2))); err != nil {
		t.Fatalf("cross-feature AND rejected: %v", err)
	}
}

func TestGoogleAllowsOrWithinFeature(t *testing.T) {
	if err := googleRules().Validate(AnyAttr(1, 2, 3)); err != nil {
		t.Fatalf("within-feature OR rejected: %v", err)
	}
}

func TestTopicForbiddenOnFacebook(t *testing.T) {
	err := fbRules().Validate(Topic(1))
	if !errors.Is(err, ErrKindForbidden) {
		t.Fatalf("want ErrKindForbidden, got %v", err)
	}
}

func TestOptionBounds(t *testing.T) {
	err := fbRules().Validate(Attr(100)) // catalog has 100 → max index 99
	if !errors.Is(err, ErrUnknownOption) {
		t.Fatalf("want ErrUnknownOption, got %v", err)
	}
	err = fbRules().Validate(Attr(-1))
	if !errors.Is(err, ErrUnknownOption) {
		t.Fatalf("want ErrUnknownOption for negative, got %v", err)
	}
}

func TestMaxClauses(t *testing.T) {
	r := fbRules()
	r.MaxClauses = 2
	if err := r.Validate(And(Attr(1), Attr(2))); err != nil {
		t.Fatalf("two clauses rejected: %v", err)
	}
	err := r.Validate(And(Attr(1), Attr(2), Attr(3)))
	if !errors.Is(err, ErrTooManyClauses) {
		t.Fatalf("want ErrTooManyClauses, got %v", err)
	}
}

func TestAndConcatenates(t *testing.T) {
	s := And(Attr(1), WithGender(Attr(2), 1))
	if len(s.Include) != 3 {
		t.Fatalf("And produced %d clauses, want 3", len(s.Include))
	}
}

// TestConstructorsShareClausesInExactLists pins the immutability contract
// of Clause and Spec: every constructor shares its inputs' clauses, copying
// none, and returns fresh outer lists with len == cap, so that appending
// to a result reallocates and never shows in an input or in a sibling
// result appended from the same one.
func TestConstructorsShareClausesInExactLists(t *testing.T) {
	// The input's lists have spare capacity, as a hand-built spec may.
	in := Spec{
		Include: append(make([]Clause, 0, 4), Clause{{KindAttribute, 1}}, Clause{{KindAttribute, 2}, {KindAttribute, 3}}),
		Exclude: append(make([]Clause, 0, 4), Clause{{KindAttribute, 4}}),
	}
	other := Excluding(Topic(5), Attr(6))
	want := Canonical(in)
	for _, tc := range []struct {
		name string
		f    func(Spec) Spec
	}{
		{"And", func(s Spec) Spec { return And(s, other) }},
		{"And/one", func(s Spec) Spec { return And(s) }},
		{"WithLocation", func(s Spec) Spec { return WithLocation(s, 0, 2) }},
		{"WithGender", func(s Spec) Spec { return WithGender(s, 1) }},
		{"WithAge", func(s Spec) Spec { return WithAge(s, 0, 3) }},
		{"Excluding", func(s Spec) Spec { return Excluding(s, other) }},
	} {
		r := tc.f(in)
		if len(r.Include) != cap(r.Include) || len(r.Exclude) != cap(r.Exclude) {
			t.Errorf("%s: include len %d cap %d, exclude len %d cap %d", tc.name,
				len(r.Include), cap(r.Include), len(r.Exclude), cap(r.Exclude))
		}
		if &r.Include[0] == &in.Include[0] || &r.Exclude[0] == &in.Exclude[0] {
			t.Errorf("%s: returned its input's list", tc.name)
		}
		for i, cl := range in.Include {
			if &r.Include[i][0] != &cl[0] {
				t.Errorf("%s: include clause %d copied, not shared", tc.name, i)
			}
		}
		if &r.Exclude[0][0] != &in.Exclude[0][0] {
			t.Errorf("%s: exclude clause copied, not shared", tc.name)
		}
		x, y := Clause{{KindTopic, 8}}, Clause{{KindTopic, 9}}
		inc1, inc2 := append(r.Include, x), append(r.Include, y)
		exc1, exc2 := append(r.Exclude, x), append(r.Exclude, y)
		if inc1[len(inc1)-1][0] != x[0] || exc1[len(exc1)-1][0] != x[0] ||
			inc2[len(inc2)-1][0] != y[0] || exc2[len(exc2)-1][0] != y[0] {
			t.Errorf("%s: sibling appends overwrote each other", tc.name)
		}
		if got := Canonical(in); got != want {
			t.Errorf("%s: input changed to %s", tc.name, got)
		}
	}
}

// allocSink keeps a measured result alive, so the compiler cannot drop
// the call an allocation count measures.
var allocSink Spec

// TestAndAllocs pins And of two one-clause specs at one allocation: the
// outer list, its clauses shared.
func TestAndAllocs(t *testing.T) {
	a, b := Attr(1), Attr(2)
	if n := testing.AllocsPerRun(100, func() { allocSink = And(a, b) }); n != 1 {
		t.Errorf("And of two one-clause specs: %v allocations, want 1", n)
	}
}

func TestWithGenderDoesNotMutate(t *testing.T) {
	a := Attr(1)
	_ = WithGender(a, 0)
	if len(a.Include) != 1 {
		t.Fatal("WithGender mutated its input")
	}
}

func TestExcluding(t *testing.T) {
	s := Excluding(Attr(1), AnyAttr(2, 3))
	if len(s.Exclude) != 1 || len(s.Exclude[0]) != 2 {
		t.Fatalf("Excluding shape wrong: %+v", s)
	}
	if err := fbRules().Validate(s); err != nil {
		t.Fatalf("exclusion spec rejected on full interface: %v", err)
	}
}

func TestCanonicalOrderInsensitive(t *testing.T) {
	a := And(Attr(1), Attr(2))
	b := And(Attr(2), Attr(1))
	if Canonical(a) != Canonical(b) {
		t.Fatalf("canonical forms differ: %q vs %q", Canonical(a), Canonical(b))
	}
	c := Spec{Include: []Clause{{{KindAttribute, 1}, {KindAttribute, 2}}}}
	d := Spec{Include: []Clause{{{KindAttribute, 2}, {KindAttribute, 1}}}}
	if Canonical(c) != Canonical(d) {
		t.Fatal("canonical forms differ for reordered clause refs")
	}
	if Canonical(a) == Canonical(c) {
		t.Fatal("AND of singletons must differ from a single OR clause")
	}
}

func TestCanonicalDeduplicates(t *testing.T) {
	// x ∨ x ≡ x inside a clause.
	dupRef := Spec{Include: []Clause{{{KindAttribute, 1}, {KindAttribute, 1}, {KindAttribute, 2}}}}
	if got, want := Canonical(dupRef), Canonical(AnyAttr(1, 2)); got != want {
		t.Errorf("duplicate ref not collapsed: %q vs %q", got, want)
	}
	// c ∧ c ≡ c at the spec level.
	dupClause := And(Attr(3), Attr(3), Attr(4))
	if got, want := Canonical(dupClause), Canonical(And(Attr(3), Attr(4))); got != want {
		t.Errorf("duplicate clause not collapsed: %q vs %q", got, want)
	}
	// Duplicated clauses that differ only by internal ref order collapse too.
	e := Spec{Include: []Clause{
		{{KindAttribute, 1}, {KindAttribute, 2}},
		{{KindAttribute, 2}, {KindAttribute, 1}},
	}}
	if got, want := Canonical(e), Canonical(AnyAttr(1, 2)); got != want {
		t.Errorf("reordered duplicate clause not collapsed: %q vs %q", got, want)
	}
	// Excluded disjunctions deduplicate the same way.
	ex := Excluding(Attr(1), Attr(2))
	exDup := Excluding(Excluding(Attr(1), Attr(2)), Attr(2))
	if got, want := Canonical(exDup), Canonical(ex); got != want {
		t.Errorf("duplicate exclude clause not collapsed: %q vs %q", got, want)
	}
	// Deduplication must not conflate genuinely different audiences.
	if Canonical(AnyAttr(1, 2)) == Canonical(AnyAttr(1, 2, 3)) {
		t.Error("distinct OR clauses conflated")
	}
	if Canonical(And(Attr(1), Attr(2))) == Canonical(Attr(1)) {
		t.Error("distinct AND specs conflated")
	}
}

func TestCanonicalExcludeDistinct(t *testing.T) {
	with := Excluding(Attr(1), Attr(2))
	without := Attr(1)
	if Canonical(with) == Canonical(without) {
		t.Fatal("exclusion must alter the canonical form")
	}
}

func TestCanonicalProperty(t *testing.T) {
	// Property: shuffling clause order never changes the canonical form.
	if err := quick.Check(func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + r.Intn(4)
		specs := make([]Spec, n)
		for i := range specs {
			specs[i] = Attr(r.Intn(50))
		}
		orig := And(specs...)
		r.Shuffle(n, func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
		shuffled := And(specs...)
		return Canonical(orig) == Canonical(shuffled)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRefs(t *testing.T) {
	s := WithGender(Attr(5), 1)
	refs := Refs(s)
	if len(refs) != 2 {
		t.Fatalf("Refs = %v", refs)
	}
	if refs[1].Kind != KindGender || refs[1].ID != 1 {
		t.Fatalf("Refs = %v", refs)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindAttribute: "attribute",
		KindTopic:     "topic",
		KindGender:    "gender",
		KindAge:       "age",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestValidateErrorMentionsInterface(t *testing.T) {
	err := restrictedRules().Validate(Spec{})
	if err == nil || !errors.Is(err, ErrEmptySpec) {
		t.Fatalf("unexpected: %v", err)
	}
	if got := err.Error(); got[:len("facebook-restricted")] != "facebook-restricted" {
		t.Fatalf("error %q does not lead with interface name", got)
	}
}

// canonicalRef is the straightforward string-slice implementation Canonical
// had before the pooled rewrite, kept verbatim as the reference: the durable
// store content-addresses measurements by this exact text, so the rewrite
// must reproduce it byte for byte on every input.
func canonicalRef(s Spec) string {
	dedupSorted := func(ss []string) []string {
		out := ss[:0]
		for i, s := range ss {
			if i == 0 || s != ss[i-1] {
				out = append(out, s)
			}
		}
		return out
	}
	part := func(cs []Clause) string {
		strs := make([]string, len(cs))
		for i, c := range cs {
			refs := make([]string, len(c))
			for j, r := range c {
				refs[j] = r.String()
			}
			sort.Strings(refs)
			strs[i] = "(" + strings.Join(dedupSorted(refs), "|") + ")"
		}
		sort.Strings(strs)
		return strings.Join(dedupSorted(strs), "&")
	}
	out := part(s.Include)
	if len(s.Exclude) > 0 {
		out += "!-" + part(s.Exclude)
	}
	return out
}

// TestCanonicalMatchesReference drives the rewritten Canonical against the
// reference on adversarial fixed cases — multi-digit IDs whose decimal and
// numeric orders differ, negative IDs, invalid kinds, empty clauses — and a
// large randomized sweep.
func TestCanonicalMatchesReference(t *testing.T) {
	fixed := []Spec{
		{},
		{Include: []Clause{{}}},
		{Include: []Clause{{}, {}}},
		Attr(0),
		AnyAttr(9, 10, 1, 100), // "10" < "9" in string order
		{Include: []Clause{{{KindAttribute, -3}, {KindAttribute, 2}, {KindAttribute, -14}}}},
		{Include: []Clause{{{Kind(200), 1}, {KindAttribute, 1}, {Kind(9), 5}}}},
		{Include: []Clause{{{KindTopic, 7}}}, Exclude: []Clause{{}}},
		Excluding(And(Attr(12), Attr(3)), AnyAttr(21, 2)),
		{
			Include: []Clause{
				{{KindGender, 1}, {KindAge, 2}, {KindGender, 1}},
				{{KindCustomAudience, 44}, {KindLocation, 0}},
				{{KindPlacement, 5}},
				{{KindGender, 1}, {KindAge, 2}},
			},
			Exclude: []Clause{{{KindAttribute, 10}}, {{KindAttribute, 9}}},
		},
	}
	for i, s := range fixed {
		if got, want := Canonical(s), canonicalRef(s); got != want {
			t.Errorf("fixed case %d: Canonical = %q, reference = %q", i, got, want)
		}
	}

	rng := xrand.New(333)
	kinds := []Kind{KindAttribute, KindTopic, KindGender, KindAge, KindCustomAudience, KindLocation, KindPlacement, Kind(99)}
	for trial := 0; trial < 2000; trial++ {
		var s Spec
		for c := 0; c < 1+rng.Intn(4); c++ {
			var cl Clause
			for r := 0; r < rng.Intn(4); r++ {
				id := rng.Intn(2000) - 20
				cl = append(cl, Ref{Kind: kinds[rng.Intn(len(kinds))], ID: id})
			}
			s.Include = append(s.Include, cl)
		}
		for c := 0; c < rng.Intn(3); c++ {
			var cl Clause
			for r := 0; r < rng.Intn(3); r++ {
				cl = append(cl, Ref{Kind: kinds[rng.Intn(len(kinds))], ID: rng.Intn(50)})
			}
			s.Exclude = append(s.Exclude, cl)
		}
		if got, want := Canonical(s), canonicalRef(s); got != want {
			t.Fatalf("trial %d: Canonical(%+v) = %q, reference = %q", trial, s, got, want)
		}
	}
}

// TestCanonicalConcurrent checks the scratch pool under parallel callers.
func TestCanonicalConcurrent(t *testing.T) {
	specs := make([]Spec, 32)
	want := make([]string, len(specs))
	for i := range specs {
		specs[i] = Excluding(And(Attr(i), AnyAttr(i+1, i+2), WithGender(Attr(i%7), i%2)), Attr(50-i))
		want[i] = canonicalRef(specs[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				i := iter % len(specs)
				if got := Canonical(specs[i]); got != want[i] {
					t.Errorf("spec %d: %q, want %q", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkCanonical measures the canonicalization hot path on the audit
// loop's typical shape: a conditioned composition with an exclusion.
func BenchmarkCanonical(b *testing.B) {
	spec := Excluding(
		And(Attr(17), AnyAttr(3, 41, 8), WithGender(Attr(29), 1)),
		AnyAttr(55, 12),
	)
	b.ReportAllocs()
	var sink string
	for i := 0; i < b.N; i++ {
		sink = Canonical(spec)
	}
	benchSink = sink
}

// BenchmarkCanonicalReference measures the pre-rewrite implementation on
// the same spec, for comparison against BenchmarkCanonical.
func BenchmarkCanonicalReference(b *testing.B) {
	spec := Excluding(
		And(Attr(17), AnyAttr(3, 41, 8), WithGender(Attr(29), 1)),
		AnyAttr(55, 12),
	)
	b.ReportAllocs()
	var sink string
	for i := 0; i < b.N; i++ {
		sink = canonicalRef(spec)
	}
	benchSink = sink
}

var benchSink string
