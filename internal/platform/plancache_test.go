package platform

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/targeting"
)

// TestLRUCache unit-tests the compiler's bounded map: recency order,
// update-in-place, and eviction of the least recently used entry.
func TestLRUCache(t *testing.T) {
	l := newLRU[int](2)
	l.add("a", 1)
	l.add("b", 2)
	if v, ok := l.get("a"); !ok || v != 1 {
		t.Fatalf("get a = %d, %v", v, ok)
	}
	l.add("c", 3) // evicts b: a was touched more recently
	if _, ok := l.get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if v, ok := l.get("a"); !ok || v != 1 {
		t.Fatalf("a evicted instead: %d, %v", v, ok)
	}
	if v, ok := l.get("c"); !ok || v != 3 {
		t.Fatalf("get c = %d, %v", v, ok)
	}
	l.add("c", 30) // update moves to front, no eviction
	if v, _ := l.get("c"); v != 30 {
		t.Fatalf("c = %d after update", v)
	}
	if l.len() != 2 {
		t.Fatalf("len = %d, want 2", l.len())
	}
	if zero := newLRU[int](0); zero.cap != 1 {
		t.Fatalf("zero capacity clamps to %d, want 1", zero.cap)
	}
}

// TestPlanCacheCounters checks the compiler's observability contract: first
// sight of a spec is a miss that compiles, every repeat is a hit, and the
// batch's schedule is frozen once and reused.
func TestPlanCacheCounters(t *testing.T) {
	d, err := NewDeployment(DeployOptions{Seed: 41, UniverseSize: 1 << 11})
	if err != nil {
		t.Fatal(err)
	}
	p := d.Facebook
	// Counters live in the process-global default registry and accumulate
	// across deployments, so all assertions are deltas from here.
	h0, m0, c0 := p.mPlanHits.Value(), p.mPlanMisses.Value(), p.mPlansCompiled.Value()
	const n = 10
	reqs := make([]EstimateRequest, n)
	for i := range reqs {
		reqs[i].Spec = targeting.Attr(i)
	}
	if _, err := p.MeasureMany(reqs); err != nil {
		t.Fatal(err)
	}
	if h, m, c := p.mPlanHits.Value()-h0, p.mPlanMisses.Value()-m0, p.mPlansCompiled.Value()-c0; h != 0 || m != n || c != n {
		t.Fatalf("after first batch: hits=%d misses=%d compiled=%d, want 0/%d/%d", h, m, c, n, n)
	}
	plans, _, scheds := p.PlanCacheStats()
	if plans != n || scheds != 1 {
		t.Fatalf("cache stats: plans=%d scheds=%d, want %d/1", plans, scheds, n)
	}
	if _, err := p.MeasureMany(reqs); err != nil {
		t.Fatal(err)
	}
	if h, c := p.mPlanHits.Value()-h0, p.mPlansCompiled.Value()-c0; h != n || c != n {
		t.Fatalf("after repeat batch: hits=%d compiled=%d, want %d/%d", h, c, n, n)
	}
	if _, _, scheds := p.PlanCacheStats(); scheds != 1 {
		t.Fatalf("schedule cache grew to %d on a repeat batch", scheds)
	}
}

// TestPlanCompilerMatchesLegacy is the compiler's bit-identity gate across
// deployments: on all four interfaces, compiled batches on a dense and on a
// compressed-only deployment must equal the uncompiled oracle on a separate
// dense deployment of the same seed — dense set algebra over the option
// sets — slot for slot, sizes and errors both, cold and again on a second
// pass (from the plan and schedule caches on the dense deployment, compiled
// afresh on the compressed one). The reference deployment also answers
// every request on its serial door, which must match the oracle and leave
// the plan and schedule caches empty (unions are shared by design).
func TestPlanCompilerMatchesLegacy(t *testing.T) {
	const seed, size = 47, 1 << 12
	legacy, err := NewDeployment(DeployOptions{Seed: seed, UniverseSize: size})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []DeployOptions{
		{Seed: seed, UniverseSize: size},
		{Seed: seed, UniverseSize: size, Compressed: true},
	} {
		compiled, err := NewDeployment(opts)
		if err != nil {
			t.Fatal(err)
		}
		for pi, p := range compiled.Interfaces() {
			lp := legacy.Interfaces()[pi]
			reqs := randomBatch(p, 4242, 80)
			want := oracleMeasure(lp, reqs)
			for i, req := range reqs {
				size, err := lp.Measure(req)
				sameOutcome(t, lp.Name()+" serial", i, Estimate{Size: size, Err: err}, want[i].Size, want[i].Err)
			}
			if plans, _, scheds := lp.PlanCacheStats(); plans+scheds != 0 {
				t.Fatalf("%s: serial traffic populated the plan caches (%d plans, %d schedules)", lp.Name(), plans, scheds)
			}
			got, err := p.MeasureMany(reqs)
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			for i := range reqs {
				sameOutcome(t, fmt.Sprintf("%s compressed=%v", p.Name(), opts.Compressed), i, got[i], want[i].Size, want[i].Err)
			}
			// The second pass must be identical too.
			again, err := p.MeasureMany(reqs)
			if err != nil {
				t.Fatalf("%s warm: %v", p.Name(), err)
			}
			for i := range reqs {
				sameOutcome(t, p.Name()+" warm", i, again[i], want[i].Size, want[i].Err)
			}
		}
	}
}

// TestPlanCacheEviction shrinks the plan cache below the working set and
// checks both the bound (occupancy never exceeds capacity) and correctness
// under thrash (every answer still matches the oracle).
func TestPlanCacheEviction(t *testing.T) {
	d, err := NewDeployment(DeployOptions{Seed: 53, UniverseSize: 1 << 11})
	if err != nil {
		t.Fatal(err)
	}
	p := d.Facebook
	p.plans = newPlanCache(3) // far below the 12-spec working set
	c0 := p.mPlansCompiled.Value()
	reqs := make([]EstimateRequest, 12)
	for i := range reqs {
		reqs[i].Spec = targeting.And(targeting.Attr(i), targeting.Attr((i+1)%12))
	}
	want := oracleMeasure(p, reqs)
	for round := 0; round < 3; round++ {
		got, err := p.MeasureMany(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			sameOutcome(t, "evicting", i, got[i], want[i].Size, want[i].Err)
		}
		if plans, _, _ := p.PlanCacheStats(); plans > 3 {
			t.Fatalf("round %d: plan cache holds %d entries, capacity 3", round, plans)
		}
	}
	if compiled := p.mPlansCompiled.Value() - c0; compiled < 12 {
		t.Fatalf("compiled only %d plans across thrashing rounds", compiled)
	}
}

// TestCustomAudiencePlansUncached checks the deliberate cache bypass: specs
// touching custom audiences (dynamic per-advertiser state) recompile every
// time and never pin a schedule.
func TestCustomAudiencePlansUncached(t *testing.T) {
	d, err := NewDeployment(DeployOptions{Seed: 59, UniverseSize: 1 << 11})
	if err != nil {
		t.Fatal(err)
	}
	p := d.Facebook
	info, err := p.CreatePIIAudience("crm", uploadOf(p, 150))
	if err != nil {
		t.Fatal(err)
	}
	spec := targeting.And(targeting.CustomAudience(info.ID), targeting.Attr(0))
	if specCacheable(spec) {
		t.Fatal("custom-audience spec reported cacheable")
	}
	serial, serr := p.Measure(EstimateRequest{Spec: spec})
	if serr != nil {
		t.Fatal(serr)
	}
	h0, c0 := p.mPlanHits.Value(), p.mPlansCompiled.Value()
	for round := 0; round < 2; round++ {
		got, err := p.MeasureMany([]EstimateRequest{{Spec: spec}})
		if err != nil || got[0].Err != nil {
			t.Fatalf("round %d: %v / %v", round, err, got[0].Err)
		}
		if got[0].Size != serial {
			t.Fatalf("round %d: batch %d, serial %d", round, got[0].Size, serial)
		}
	}
	if h := p.mPlanHits.Value() - h0; h != 0 {
		t.Fatalf("custom-audience spec hit the plan cache %d times", h)
	}
	if c := p.mPlansCompiled.Value() - c0; c != 2 {
		t.Fatalf("compiled %d times, want 2 (once per batch)", c)
	}
	if plans, _, scheds := p.PlanCacheStats(); plans != 0 || scheds != 0 {
		t.Fatalf("uncacheable spec populated caches: plans=%d scheds=%d", plans, scheds)
	}
}

// TestPlanCacheConcurrentEviction hammers MeasureMany from many goroutines
// with overlapping spec batches while a tiny LRU continuously evicts plans
// and schedules, asserting every answer stays bit-identical to the oracle.
// This is the compiler's race gate: plan reuse, schedule reuse, eviction,
// and recompilation must all be invisible under -race.
func TestPlanCacheConcurrentEviction(t *testing.T) {
	d, err := NewDeployment(DeployOptions{Seed: 61, UniverseSize: 1 << 11})
	if err != nil {
		t.Fatal(err)
	}
	p := d.Google // widest catalog: attrs, topics, placements
	p.plans = newPlanCache(5)

	// A pool of valid specs; goroutines slide overlapping windows over it so
	// different batches continuously displace each other's plans.
	nAttr := len(p.Catalog().Attributes)
	nTopic := len(p.Catalog().Topics)
	pool := make([]EstimateRequest, 24)
	for i := range pool {
		var spec targeting.Spec
		switch i % 4 {
		case 0:
			spec = targeting.Attr(i % nAttr)
		case 1:
			spec = targeting.And(targeting.Attr(i%nAttr), targeting.Topic(i%nTopic))
		case 2:
			spec = targeting.Spec{Include: []targeting.Clause{{
				{Kind: targeting.KindAttribute, ID: i % nAttr},
				{Kind: targeting.KindAttribute, ID: (i + 7) % nAttr},
			}}}
		default:
			// Google ANDs only across features, so the exclusion must come
			// from a different feature than the include.
			spec = targeting.Attr(i % nAttr)
			spec.Exclude = []targeting.Clause{{{Kind: targeting.KindTopic, ID: (i + 3) % nTopic}}}
		}
		pool[i] = EstimateRequest{Spec: spec}
	}
	want := oracleMeasure(p, pool)
	for i := range pool {
		if want[i].Err != nil {
			t.Fatalf("pool spec %d invalid: %v", i, want[i].Err)
		}
	}

	const goroutines, iters, window = 8, 30, 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				start := (g*5 + it) % len(pool)
				batch := make([]EstimateRequest, window)
				for k := range batch {
					batch[k] = pool[(start+k)%len(pool)]
				}
				got, err := p.MeasureMany(batch)
				if err != nil {
					t.Errorf("g%d it%d: %v", g, it, err)
					return
				}
				for k := range batch {
					wi := (start + k) % len(pool)
					if got[k].Err != nil || got[k].Size != want[wi].Size {
						t.Errorf("g%d it%d slot %d: got (%d, %v), want %d",
							g, it, k, got[k].Size, got[k].Err, want[wi].Size)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if plans, _, _ := p.PlanCacheStats(); plans > 5 {
		t.Fatalf("plan cache exceeded capacity: %d > 5", plans)
	}
}

// oracleMeasure answers a batch one oracle call at a time on the measure
// door — the reference the compiled doors must match.
func oracleMeasure(p *Interface, reqs []EstimateRequest) []Estimate {
	out := make([]Estimate, len(reqs))
	for i, req := range reqs {
		out[i].Size, out[i].Err = oracle(p, DoorMeasure, req)
	}
	return out
}
