// Package targeting models advertiser targeting expressions and the
// per-platform rules constraining how they may be composed.
//
// A Spec is a boolean formula in the shape every studied platform supports:
// a logical AND of OR-clauses over targeting options, optionally minus a set
// of excluded clauses ("and of or-terms", paper §2.1 footnote 2). Platforms
// differ in which features exist, whether exclusion is allowed (Facebook's
// restricted interface forbids it), whether demographics are a separate
// dimension (Facebook, Google) or ordinary attributes combined via AND of
// ORs (LinkedIn, paper §3 footnote 4), and whether options within one
// feature may be ANDed (Google only ORs attributes within a feature, so
// AND-composition there spans features, e.g. attribute ∧ topic).
package targeting

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Kind identifies a targeting feature family.
type Kind uint8

// Feature kinds.
const (
	// KindAttribute is a default-list user attribute (interests, industries,
	// behaviours) — the feature the paper crawls on every platform.
	KindAttribute Kind = iota
	// KindTopic is Google's webpage-topic placement targeting.
	KindTopic
	// KindGender targets a gender value.
	KindGender
	// KindAge targets an age-range value.
	KindAge
	// KindCustomAudience targets a previously created audience: a PII-match
	// (customer list) audience, a tracking-pixel (website activity)
	// audience, or a lookalike/special-ad audience expanded from either
	// (paper §2.1: PII-based, activity-based, and lookalike targeting).
	KindCustomAudience
	// KindLocation targets users by region; the paper's methodology scopes
	// every audience to U.S.-based users this way (§3).
	KindLocation
	// KindPlacement targets where the ad appears: specific publisher
	// websites/apps in the platform's network (paper §2.1, Google "managed
	// placements"). The reached audience is the placement's visitors.
	KindPlacement
	numKinds
)

// String returns the feature kind's name.
func (k Kind) String() string {
	switch k {
	case KindAttribute:
		return "attribute"
	case KindTopic:
		return "topic"
	case KindGender:
		return "gender"
	case KindAge:
		return "age"
	case KindCustomAudience:
		return "custom-audience"
	case KindLocation:
		return "location"
	case KindPlacement:
		return "placement"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Ref names one targeting option: a feature kind plus the option's index
// within that feature (for KindAttribute/KindTopic, an index into the
// platform catalog; for KindGender/KindAge, the demographic enum value).
type Ref struct {
	Kind Kind `json:"kind"`
	ID   int  `json:"id"`
}

// String formats the ref as kind:id.
func (r Ref) String() string { return fmt.Sprintf("%s:%d", r.Kind, r.ID) }

// Clause is a logical OR of refs. A user matches the clause if they match
// any ref in it.
//
// A built clause is immutable: nothing writes into it, so specs share
// clauses instead of copying them. A clause carried by a spec may be read
// by any number of specs, caches and goroutines at once.
type Clause []Ref

// Spec is a full targeting expression: (AND over Include clauses) AND NOT
// (OR over Exclude clauses). A user is in the audience if they match every
// include clause and no exclude clause.
//
// A built spec is immutable too. The constructors below share their
// inputs' clauses and copy only the outer Include and Exclude lists, into
// fresh lists of exact length (len == cap, nil when empty): appending to a
// result's list reallocates, so it never shows in an input or in another
// result. Nothing writes into a received spec's lists.
type Spec struct {
	Include []Clause `json:"include"`
	Exclude []Clause `json:"exclude,omitempty"`
}

// Validation errors.
var (
	ErrEmptySpec        = errors.New("targeting: spec has no include clauses")
	ErrEmptyClause      = errors.New("targeting: empty clause")
	ErrMixedClause      = errors.New("targeting: clause mixes feature kinds")
	ErrExcludeForbidden = errors.New("targeting: exclusion targeting not allowed on this interface")
	ErrKindForbidden    = errors.New("targeting: feature kind not offered by this interface")
	ErrDemoForbidden    = errors.New("targeting: demographic targeting not allowed on this interface")
	ErrAndWithinFeature = errors.New("targeting: interface cannot AND options within one feature")
	ErrTooManyClauses   = errors.New("targeting: too many clauses")
	ErrUnknownOption    = errors.New("targeting: unknown targeting option")
	ErrDuplicateRef     = errors.New("targeting: duplicate option within clause")
	ErrInvalidDemoValue = errors.New("targeting: invalid demographic value")
)

// Rules is a platform interface's composition policy.
type Rules struct {
	// Interface is the human-readable interface name (for error text).
	Interface string
	// Kinds lists the feature kinds the interface offers.
	Kinds []Kind
	// AllowExclude reports whether exclusion targeting is permitted.
	// Facebook's restricted interface sets this false (paper §2.2).
	AllowExclude bool
	// AllowDemographics reports whether gender/age may appear at all.
	// Facebook's restricted interface sets this false.
	AllowDemographics bool
	// DemographicsAsAttributes marks LinkedIn-style interfaces where gender
	// and age are ordinary detailed-targeting attributes combined by AND of
	// ORs rather than a separate campaign dimension.
	DemographicsAsAttributes bool
	// AndWithinFeature reports whether two clauses of the same feature kind
	// may be ANDed. Google's size-reporting surface only ORs options within
	// a feature, so AND-composition must span features (paper §3 footnote 8).
	AndWithinFeature bool
	// MaxClauses bounds the number of include clauses (0 = unlimited).
	MaxClauses int
	// OptionCount returns the number of options for a kind (catalog sizes),
	// used to bounds-check refs. Nil disables the check.
	OptionCount func(Kind) int
}

// allows reports whether kind k is offered.
func (r Rules) allows(k Kind) bool {
	for _, kk := range r.Kinds {
		if kk == k {
			return true
		}
	}
	return false
}

// Validate checks a spec against the interface's rules. It returns the first
// violation found, wrapped with the interface name.
func (r Rules) Validate(s Spec) error {
	if err := r.validate(s); err != nil {
		return fmt.Errorf("%s: %w", r.Interface, err)
	}
	return nil
}

func (r Rules) validate(s Spec) error {
	if len(s.Include) == 0 {
		return ErrEmptySpec
	}
	if len(s.Exclude) > 0 && !r.AllowExclude {
		return ErrExcludeForbidden
	}
	if r.MaxClauses > 0 && len(s.Include) > r.MaxClauses {
		return fmt.Errorf("%w: %d include clauses, limit %d", ErrTooManyClauses, len(s.Include), r.MaxClauses)
	}
	// Validation sits on the hot measurement path: kinds are counted in a
	// small array and duplicates found by scanning, so a valid spec checks
	// without allocating.
	var kindSeen [numKinds]int
	for _, group := range [][]Clause{s.Include, s.Exclude} {
		for _, cl := range group {
			k, err := r.validateClause(cl)
			if err != nil {
				return err
			}
			kindSeen[k]++
		}
	}
	if !r.AndWithinFeature {
		for k, n := range kindSeen {
			if n > 1 && (Kind(k) == KindAttribute || Kind(k) == KindTopic || Kind(k) == KindPlacement) {
				return fmt.Errorf("%w: %d %s clauses", ErrAndWithinFeature, n, Kind(k))
			}
		}
	}
	return nil
}

// validateClause checks one clause and returns its (homogeneous) kind.
func (r Rules) validateClause(cl Clause) (Kind, error) {
	if len(cl) == 0 {
		return 0, ErrEmptyClause
	}
	k := cl[0].Kind
	for i, ref := range cl {
		if ref.Kind != k {
			return 0, ErrMixedClause
		}
		for _, prev := range cl[:i] {
			if prev == ref {
				return 0, fmt.Errorf("%w: %s", ErrDuplicateRef, ref)
			}
		}
		if err := r.validateRef(ref); err != nil {
			return 0, err
		}
	}
	return k, nil
}

func (r Rules) validateRef(ref Ref) error {
	if ref.Kind >= numKinds {
		return fmt.Errorf("%w: %s", ErrKindForbidden, ref)
	}
	isDemo := ref.Kind == KindGender || ref.Kind == KindAge
	if isDemo && !r.AllowDemographics {
		return fmt.Errorf("%w: %s", ErrDemoForbidden, ref)
	}
	if !r.allows(ref.Kind) {
		return fmt.Errorf("%w: %s", ErrKindForbidden, ref)
	}
	if ref.ID < 0 {
		return fmt.Errorf("%w: %s", ErrUnknownOption, ref)
	}
	if r.OptionCount != nil {
		if n := r.OptionCount(ref.Kind); ref.ID >= n {
			return fmt.Errorf("%w: %s (have %d options)", ErrUnknownOption, ref, n)
		}
	}
	return nil
}

// --- constructors and combinators ---

// Attr returns a single-attribute spec.
func Attr(id int) Spec {
	return Spec{Include: []Clause{{{Kind: KindAttribute, ID: id}}}}
}

// Topic returns a single-topic spec.
func Topic(id int) Spec {
	return Spec{Include: []Clause{{{Kind: KindTopic, ID: id}}}}
}

// Placement returns a single-placement spec.
func Placement(id int) Spec {
	return Spec{Include: []Clause{{{Kind: KindPlacement, ID: id}}}}
}

// CustomAudience returns a spec targeting one custom audience by id.
func CustomAudience(id int) Spec {
	return Spec{Include: []Clause{{{Kind: KindCustomAudience, ID: id}}}}
}

// AnyAttr returns a spec matching users holding any of the given attributes
// (a single OR clause).
func AnyAttr(ids ...int) Spec {
	cl := make(Clause, len(ids))
	for i, id := range ids {
		cl[i] = Ref{Kind: KindAttribute, ID: id}
	}
	return Spec{Include: []Clause{cl}}
}

// And returns the conjunction of specs: all include clauses concatenated,
// all exclude clauses concatenated. This is how the paper composes
// targetings (logical AND of individual targetings). The clauses are
// shared with the inputs; both lists share one allocation.
func And(specs ...Spec) Spec {
	var nInc, nExc int
	for _, s := range specs {
		nInc += len(s.Include)
		nExc += len(s.Exclude)
	}
	out := lists(nInc, nExc)
	i, j := 0, 0
	for _, s := range specs {
		i += copy(out.Include[i:], s.Include)
		j += copy(out.Exclude[j:], s.Exclude)
	}
	return out
}

// WithLocation returns s AND (region ∈ regions), a single OR clause.
func WithLocation(s Spec, regions ...int) Spec {
	cl := make(Clause, len(regions))
	for i, r := range regions {
		cl[i] = Ref{Kind: KindLocation, ID: r}
	}
	return with(s, cl)
}

// WithGender returns s AND (gender = g).
func WithGender(s Spec, g int) Spec {
	return with(s, Clause{{Kind: KindGender, ID: g}})
}

// WithAge returns s AND (age ∈ ages), a single OR clause over age ranges.
func WithAge(s Spec, ages ...int) Spec {
	cl := make(Clause, len(ages))
	for i, a := range ages {
		cl[i] = Ref{Kind: KindAge, ID: a}
	}
	return with(s, cl)
}

// Excluding returns s AND NOT other's include clauses.
func Excluding(s Spec, other Spec) Spec {
	out := lists(len(s.Include), len(s.Exclude)+len(other.Include))
	copy(out.Include, s.Include)
	copy(out.Exclude[copy(out.Exclude, s.Exclude):], other.Include)
	return out
}

// with returns s AND cl, cl after s's include clauses.
func with(s Spec, cl Clause) Spec {
	out := lists(len(s.Include)+1, len(s.Exclude))
	out.Include[copy(out.Include, s.Include)] = cl
	copy(out.Exclude, s.Exclude)
	return out
}

// lists returns a spec with nInc include and nExc exclude slots, each list
// of exact length and nil when empty, both carved from one allocation.
func lists(nInc, nExc int) Spec {
	var out Spec
	if nInc+nExc == 0 {
		return out
	}
	buf := make([]Clause, nInc+nExc)
	if nInc > 0 {
		out.Include = buf[:nInc:nInc]
	}
	if nExc > 0 {
		out.Exclude = buf[nInc:]
	}
	return out
}

// Canonical returns a canonical string form of the spec: clauses sorted,
// refs within clauses sorted, and duplicates collapsed at both levels —
// a repeated ref inside a clause (x ∨ x ≡ x) and a repeated clause inside
// the spec (c ∧ c ≡ c, and likewise for the excluded disjunction) denote
// the same audience. Two specs denoting the same formula therefore have
// the same canonical form, which the audit layer uses for dedup and
// caching and the durable store hashes into its content address; a spec
// that differs only by clause order, ref order, or duplication must never
// cost a second upstream query or a second store record.
func Canonical(s Spec) string {
	cs := canonPool.Get().(*canonScratch)
	defer canonPool.Put(cs)
	cs.arena = cs.arena[:0]
	cs.spans = cs.spans[:0]
	incEnd := cs.lowerPart(s.Include)
	excEnd := incEnd
	if len(s.Exclude) > 0 {
		excEnd = cs.lowerPart(s.Exclude)
	}

	total := 0
	for _, sp := range cs.spans {
		total += sp.end - sp.start
	}
	if incEnd > 1 {
		total += incEnd - 1 // '&' between include clauses
	}
	if n := excEnd - incEnd; n > 0 {
		total += len("!-") + n - 1
	}

	var b strings.Builder
	b.Grow(total)
	for i := 0; i < incEnd; i++ {
		if i > 0 {
			b.WriteByte('&')
		}
		b.Write(cs.arena[cs.spans[i].start:cs.spans[i].end])
	}
	if excEnd > incEnd {
		b.WriteString("!-")
		for i := incEnd; i < excEnd; i++ {
			if i > incEnd {
				b.WriteByte('&')
			}
			b.Write(cs.arena[cs.spans[i].start:cs.spans[i].end])
		}
	}
	return b.String()
}

// canonScratch holds the reusable buffers one Canonical call needs: a byte
// arena the clause strings are rendered into once, the span list addressing
// them, and a ref scratch for per-clause sorting. Pooled so a hot audit loop
// canonicalizing thousands of specs allocates only each call's result
// string.
type canonScratch struct {
	arena []byte
	spans []canonSpan
	refs  []Ref
}

// canonSpan addresses one rendered clause inside the arena.
type canonSpan struct{ start, end int }

var canonPool = sync.Pool{New: func() any { return new(canonScratch) }}

// lowerPart renders one clause list (include or exclude) into the arena:
// each clause's refs sorted and deduplicated, then the clauses themselves
// sorted byte-wise and deduplicated — identical text and order to sorting
// the formatted strings. Returns the new length of cs.spans.
func (cs *canonScratch) lowerPart(clauses []Clause) int {
	base := len(cs.spans)
	for _, c := range clauses {
		cs.refs = append(cs.refs[:0], c...)
		// Insertion sort: clauses hold a handful of refs, and unlike
		// sort.Slice this allocates nothing.
		for i := 1; i < len(cs.refs); i++ {
			for j := i; j > 0 && refCompare(cs.refs[j], cs.refs[j-1]) < 0; j-- {
				cs.refs[j], cs.refs[j-1] = cs.refs[j-1], cs.refs[j]
			}
		}
		start := len(cs.arena)
		cs.arena = append(cs.arena, '(')
		wrote := false
		for j, r := range cs.refs {
			if j > 0 && r == cs.refs[j-1] {
				continue
			}
			if wrote {
				cs.arena = append(cs.arena, '|')
			}
			cs.arena = appendRef(cs.arena, r)
			wrote = true
		}
		cs.arena = append(cs.arena, ')')
		cs.spans = append(cs.spans, canonSpan{start, len(cs.arena)})
	}
	part := cs.spans[base:]
	for i := 1; i < len(part); i++ {
		for j := i; j > 0 && bytes.Compare(cs.arena[part[j].start:part[j].end], cs.arena[part[j-1].start:part[j-1].end]) < 0; j-- {
			part[j], part[j-1] = part[j-1], part[j]
		}
	}
	kept := base
	for i, sp := range part {
		if i > 0 {
			prev := cs.spans[kept-1]
			if bytes.Equal(cs.arena[sp.start:sp.end], cs.arena[prev.start:prev.end]) {
				continue
			}
		}
		cs.spans[kept] = sp
		kept++
	}
	cs.spans = cs.spans[:kept]
	return kept
}

// appendRef renders r exactly as Ref.String does, without fmt.
func appendRef(b []byte, r Ref) []byte {
	b = append(b, kindName(r.Kind)...)
	b = append(b, ':')
	return strconv.AppendInt(b, int64(r.ID), 10)
}

// kindNames mirrors Kind.String for the valid kinds, indexable without a
// switch on the canonicalization hot path.
var kindNames = [numKinds]string{
	KindAttribute:      "attribute",
	KindTopic:          "topic",
	KindGender:         "gender",
	KindAge:            "age",
	KindCustomAudience: "custom-audience",
	KindLocation:       "location",
	KindPlacement:      "placement",
}

func kindName(k Kind) string {
	if k < numKinds {
		return kindNames[k]
	}
	return k.String()
}

// refCompare orders refs exactly as sort.Strings orders their formatted
// forms. Kind names are compared directly (no valid name is a prefix of
// another, and the fmt fallback names embed their distinct numbers), and
// equal kinds compare their IDs' decimal renderings byte-wise — "10" sorts
// before "9", matching the string sort the rendered arena would produce.
func refCompare(a, b Ref) int {
	if a.Kind != b.Kind {
		return strings.Compare(kindName(a.Kind), kindName(b.Kind))
	}
	var ba, bb [20]byte
	return bytes.Compare(strconv.AppendInt(ba[:0], int64(a.ID), 10), strconv.AppendInt(bb[:0], int64(b.ID), 10))
}

// Refs returns every ref in the include clauses in order of appearance.
func Refs(s Spec) []Ref {
	var out []Ref
	for _, cl := range s.Include {
		out = append(out, cl...)
	}
	return out
}
