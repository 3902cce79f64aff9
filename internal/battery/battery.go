// Package battery draws the one seeded spec battery every door is checked
// with: each spec shape an interface accepts or refuses, from plain
// attributes to the full demographic chain, exclusions, unknown ids, empty
// and mixed clauses, duplicate refs and repeated demographic kinds. It
// imports only targeting and xrand, so the tests of any package, platform
// included, can draw from it.
package battery

import (
	"repro/internal/targeting"
	"repro/internal/xrand"
)

// Case is one drawn battery entry.
type Case struct {
	// Shape names the spec shape that drew it: failure messages print it,
	// and tables of shapes a door cannot express are keyed by it.
	Shape string
	Spec  targeting.Spec
	// Objective and Cap are what a request-level door receives the spec
	// with: a platform.Objective (the empty default, each interface's own,
	// and one no interface offers) and a monthly frequency cap, out-of-range
	// ones included.
	Objective string
	Cap       int
}

// Catalog sizes the interface a battery is drawn for.
type Catalog struct{ Attributes, Topics int }

var (
	objectives = []string{"", "reach", "brand-awareness-and-reach", "brand-awareness", "traffic", "bogus"}
	caps       = []int{0, 0, 0, 1, 3, 30, 31, -2}
)

// draw is one battery draw in progress.
type draw struct {
	rng *xrand.Rand
	cat Catalog
}

func (d draw) attr() int { return d.rng.Intn(d.cat.Attributes) }

// a draws a one-attribute spec.
func (d draw) a() targeting.Spec { return targeting.Attr(d.attr()) }

// topic draws a topic id; on an interface with no topics it is id 0,
// which the interface refuses.
func (d draw) topic() int  { return d.rng.Intn(max(d.cat.Topics, 1)) }
func (d draw) gender() int { return d.rng.Intn(2) }
func (d draw) age() int    { return d.rng.Intn(4) }
func (d draw) region() int { return d.rng.Intn(4) }

// shapes are the battery's spec shapes, drawn in turn.
var shapes = []struct {
	name string
	spec func(d draw) targeting.Spec
}{
	{"attr", draw.a},
	{"and", func(d draw) targeting.Spec { return targeting.And(d.a(), d.a()) }},
	{"or", func(d draw) targeting.Spec { return targeting.AnyAttr(d.attr(), d.attr(), d.attr()) }},
	{"topic", func(d draw) targeting.Spec { return targeting.And(d.a(), targeting.Topic(d.topic())) }},
	{"topic-location", func(d draw) targeting.Spec { return targeting.WithLocation(targeting.Topic(d.topic()), 0, 3) }},
	{"gender", func(d draw) targeting.Spec { return targeting.WithGender(d.a(), d.gender()) }},
	{"chain", func(d draw) targeting.Spec {
		return targeting.WithLocation(targeting.WithAge(targeting.WithGender(d.a(), d.gender()), d.age()), d.region())
	}},
	{"age-or", func(d draw) targeting.Spec { return targeting.WithAge(d.a(), 1, 2) }},
	{"exclude", func(d draw) targeting.Spec { return targeting.Excluding(d.a(), d.a()) }},
	{"exclude-or", func(d draw) targeting.Spec {
		return targeting.Excluding(targeting.And(d.a(), targeting.Topic(d.topic())), targeting.AnyAttr(d.attr(), d.attr()))
	}},
	{"exclude-topic", func(d draw) targeting.Spec { return targeting.Excluding(d.a(), targeting.Topic(d.topic())) }},
	{"exclude-location", func(d draw) targeting.Spec {
		return targeting.Excluding(d.a(), targeting.WithLocation(targeting.Spec{}, d.region()))
	}},
	{"unknown", func(d draw) targeting.Spec {
		bad := d.cat.Attributes + d.rng.Intn(10)
		switch d.rng.Intn(5) {
		case 0:
			return targeting.Attr(bad)
		case 1:
			return targeting.Topic(d.cat.Topics + d.rng.Intn(10))
		case 2:
			return targeting.And(d.a(), targeting.Attr(bad))
		case 3:
			return targeting.Excluding(d.a(), targeting.Attr(bad))
		}
		return targeting.AnyAttr(d.attr(), bad)
	}},
	{"empty", func(draw) targeting.Spec { return targeting.Spec{} }},
	{"empty-clause", func(d draw) targeting.Spec { // an empty clause, alone or after an attribute
		return targeting.Spec{Include: []targeting.Clause{{{Kind: targeting.KindAttribute, ID: d.attr()}}, {}}[d.rng.Intn(2):]}
	}},
	{"mixed", func(d draw) targeting.Spec {
		return targeting.Spec{Include: []targeting.Clause{{{Kind: targeting.KindAttribute, ID: d.attr()}, {Kind: targeting.KindGender, ID: d.gender()}}}}
	}},
	{"duplicate-ref", func(d draw) targeting.Spec { a := d.attr(); return targeting.AnyAttr(a, a) }},
	{"two-genders", func(d draw) targeting.Spec {
		return targeting.WithGender(targeting.WithGender(d.a(), d.gender()), d.gender())
	}},
	{"two-ages", func(d draw) targeting.Spec { return targeting.WithAge(targeting.WithAge(d.a(), d.age()), d.age()) }},
	{"two-locations", func(d draw) targeting.Spec {
		return targeting.WithLocation(targeting.WithLocation(d.a(), 0), d.region())
	}},
}

// Shapes is the number of spec shapes: a draw of at least Shapes cases
// holds each one.
var Shapes = len(shapes)

// Draw returns n cases for an interface of catalog size cat. Case i has
// shape i mod Shapes; option ids, objectives and caps come from seed.
func Draw(seed uint64, n int, cat Catalog) []Case {
	d := draw{rng: xrand.New(xrand.Mix(seed, 99)), cat: cat}
	out := make([]Case, n)
	for i := range out {
		s := shapes[i%len(shapes)]
		out[i] = Case{
			Shape:     s.name,
			Spec:      s.spec(d),
			Objective: objectives[d.rng.Intn(len(objectives))],
			Cap:       caps[d.rng.Intn(len(caps))],
		}
	}
	return out
}

// Specs returns the cases' specs, in order.
func Specs(cases []Case) []targeting.Spec {
	out := make([]targeting.Spec, len(cases))
	for i, c := range cases {
		out[i] = c.Spec
	}
	return out
}
