package core

import (
	"reflect"
	"testing"

	"repro/internal/targeting"
	"repro/internal/xrand"
)

// retiredScoped is the construction Auditor.scoped replaced, kept as its
// reference: scoped(withClause(spec, cl)), where withClause appended one
// clause to a deep copy of the spec, made through a deep-copying And, and
// scoped was withClause of the location scope. A nil cl is left out.
func retiredScoped(spec targeting.Spec, cl, scope targeting.Clause) targeting.Spec {
	if cl != nil {
		spec = retiredWithClause(spec, cl)
	}
	return retiredWithClause(spec, scope)
}

func retiredWithClause(spec targeting.Spec, cl targeting.Clause) targeting.Spec {
	out := targeting.Spec{Include: deepCopy(spec.Include), Exclude: deepCopy(spec.Exclude)}
	out.Include = append(out.Include, append(targeting.Clause(nil), cl...))
	return out
}

func deepCopy(cs []targeting.Clause) []targeting.Clause {
	if len(cs) == 0 {
		return nil
	}
	out := make([]targeting.Clause, len(cs))
	for i, c := range cs {
		out[i] = append(targeting.Clause(nil), c...)
	}
	return out
}

// conditionings returns every class clause an audit conditions on, over
// StandardClasses and Table1Classes (base and complement clauses), plus
// nil for the unconditioned reach measurement.
func conditionings() []targeting.Clause {
	out := []targeting.Clause{nil}
	for _, c := range append(StandardClasses(), Table1Classes()...) {
		c.Excluded = false
		out = append(out, c.baseClause())
		out = append(out, c.otherClauses()...)
	}
	return out
}

// TestScopedMatchesRetiredConstruction: over seeded 2- and 3-way
// compositions (some with an exclusion) and every class conditioning, the
// scoped spec holds the retired construction's clauses, clause for clause
// in order, and has its canonical key byte for byte, the durable store's
// content address. Each result's lists are fresh and exact (len == cap),
// so an append to one never shows in the composition or in a sibling.
func TestScopedMatchesRetiredConstruction(t *testing.T) {
	a := auditorFor(t, testDeploy(t).Facebook)
	rng := xrand.New(28)
	conds := conditionings()
	for i := 0; i < 300; i++ {
		arity := 2 + i%2
		parts := make([]targeting.Spec, arity)
		for j, id := range rng.Sample(a.AttrCount(), arity) {
			parts[j] = targeting.Attr(id)
		}
		if i%7 == 0 {
			parts[0] = targeting.AnyAttr(rng.Intn(a.AttrCount()), rng.Intn(a.AttrCount()))
		}
		spec := targeting.And(parts...)
		if i%5 == 0 {
			spec = targeting.Excluding(spec, targeting.Attr(rng.Intn(a.AttrCount())))
		}
		specKey := targeting.Canonical(spec)
		for _, cl := range conds {
			got, want := a.scoped(spec, cl), retiredScoped(spec, cl, a.scope)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("scoped(%v, %v) = %v, retired construction %v", spec, cl, got, want)
			}
			if g, w := targeting.Canonical(got), targeting.Canonical(want); g != w {
				t.Fatalf("scoped(%v, %v): key %q, retired construction %q", spec, cl, g, w)
			}
			if len(got.Include) != cap(got.Include) || len(got.Exclude) != cap(got.Exclude) {
				t.Fatalf("scoped(%v, %v): include len %d cap %d, exclude len %d cap %d", spec, cl,
					len(got.Include), cap(got.Include), len(got.Exclude), cap(got.Exclude))
			}
			if &got.Include[0] == &spec.Include[0] || (spec.Exclude != nil && &got.Exclude[0] == &spec.Exclude[0]) {
				t.Fatalf("scoped(%v, %v) returned the composition's list", spec, cl)
			}
		}
		if targeting.Canonical(spec) != specKey {
			t.Fatalf("scoped changed its input %v", spec)
		}
	}
}

// scopedSink keeps a measured result alive for the allocation count.
var scopedSink targeting.Spec

// TestScopedAllocs pins the scoped, class-conditioned spec of a two-option
// composition at one allocation: its include list, the clauses shared.
func TestScopedAllocs(t *testing.T) {
	a := auditorFor(t, testDeploy(t).Facebook)
	spec := targeting.And(targeting.Attr(1), targeting.Attr(2))
	cl := male().baseClause()
	if n := testing.AllocsPerRun(100, func() { scopedSink = a.scoped(spec, cl) }); n != 1 {
		t.Errorf("scoped class-conditioned two-option spec: %v allocations, want 1", n)
	}
}
