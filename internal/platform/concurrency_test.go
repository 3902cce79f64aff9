package platform

import (
	"sync"
	"testing"

	"repro/internal/targeting"
)

// TestConcurrentMeasureWarm hammers one shared Interface with concurrent
// Measure, Estimate, Audience, and Warm calls under -race: the lock-free
// estimate path must return identical answers for identical specs, count
// every query, and materialize each option set exactly once.
func TestConcurrentMeasureWarm(t *testing.T) {
	d, err := NewDeployment(DeployOptions{Seed: 17, UniverseSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	p := d.FacebookRestricted
	nAttrs := len(p.Catalog().Attributes)
	specs := make([]targeting.Spec, 8)
	for i := range specs {
		specs[i] = targeting.And(targeting.Attr(i%nAttrs), targeting.Attr((i*5+1)%nAttrs))
	}
	// Serial ground truth from an identical fresh deployment.
	d2, err := NewDeployment(DeployOptions{Seed: 17, UniverseSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int64, len(specs))
	for i, s := range specs {
		if want[i], err = d2.FacebookRestricted.Measure(EstimateRequest{Spec: s}); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 8
	const iters = 25
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines+1)
	wg.Add(1)
	go func() { // Warm racing the queries
		defer wg.Done()
		p.Warm()
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(specs)
				got, err := p.Measure(EstimateRequest{Spec: specs[i]})
				if err != nil {
					errCh <- err
					return
				}
				if got != want[i] {
					t.Errorf("goroutine %d: Measure(spec %d) = %d, want %d", g, i, got, want[i])
					return
				}
				if _, err := p.Audience(specs[i]); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := p.QueryCount(); got != goroutines*iters {
		t.Fatalf("QueryCount = %d, want %d", got, goroutines*iters)
	}
}

// TestWarmReturnsInterface asserts Warm chains and leaves every catalog
// audience materialized (second Warm and queries are pure cache hits).
func TestWarmReturnsInterface(t *testing.T) {
	d, err := NewDeployment(DeployOptions{Seed: 18, UniverseSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	p := d.Google.Warm()
	if p != d.Google {
		t.Fatal("Warm did not return its receiver")
	}
	for k, d := range p.dims {
		for i := range d.dense {
			if !d.dense[i].done.Load() {
				t.Fatalf("%v option %d not materialized after Warm", optionKinds[k], i)
			}
		}
	}
}

// TestCountMatchedMatchesAudience cross-checks the allocation-free counting
// path against full Audience materialization across spec shapes: include-only
// ANDs, multi-ref OR clauses, and exclusions.
func TestCountMatchedMatchesAudience(t *testing.T) {
	d, err := NewDeployment(DeployOptions{Seed: 19, UniverseSize: 1 << 11})
	if err != nil {
		t.Fatal(err)
	}
	p := d.Facebook
	specs := []targeting.Spec{
		targeting.Attr(0),
		targeting.And(targeting.Attr(1), targeting.Attr(2)),
		targeting.And(targeting.Attr(0), targeting.Attr(3), targeting.Attr(7)),
		{Include: []targeting.Clause{{{Kind: targeting.KindAttribute, ID: 1}, {Kind: targeting.KindAttribute, ID: 4}}}},
		{
			Include: []targeting.Clause{{{Kind: targeting.KindAttribute, ID: 2}}},
			Exclude: []targeting.Clause{{{Kind: targeting.KindAttribute, ID: 5}}},
		},
		{
			Include: []targeting.Clause{
				{{Kind: targeting.KindAttribute, ID: 0}, {Kind: targeting.KindAttribute, ID: 1}},
				{{Kind: targeting.KindGender, ID: 0}},
			},
			Exclude: []targeting.Clause{
				{{Kind: targeting.KindAttribute, ID: 6}, {Kind: targeting.KindAttribute, ID: 7}},
			},
		},
	}
	for i, s := range specs {
		set, err := p.Audience(s)
		if err != nil {
			t.Fatalf("spec %d: Audience: %v", i, err)
		}
		got, err := p.countMatched(s)
		if err != nil {
			t.Fatalf("spec %d: countMatched: %v", i, err)
		}
		if got != set.Count() {
			t.Fatalf("spec %d: countMatched = %d, Audience.Count = %d", i, got, set.Count())
		}
	}
}
