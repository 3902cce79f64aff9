package platform

import (
	"sync"
	"testing"

	"repro/internal/targeting"
	"repro/internal/xrand"
)

// randomBatch builds a mixed batch of requests against p: valid and invalid
// specs, OR clauses, demographics, exclusions, mixed objectives and
// frequency caps — every shape the serial door accepts or rejects.
func randomBatch(p *Interface, seed uint64, n int) []EstimateRequest {
	rng := xrand.New(xrand.Mix(seed, 99))
	nAttr := len(p.Catalog().Attributes)
	nTopic := len(p.Catalog().Topics)
	objectives := []Objective{"", ObjectiveReach, ObjectiveBrandAwarenessReach, ObjectiveBrandAwareness, ObjectiveTraffic, "bogus"}
	caps := []int{0, 0, 0, 1, 3, 30, 31, -2}
	reqs := make([]EstimateRequest, n)
	for i := range reqs {
		var spec targeting.Spec
		switch rng.Intn(8) {
		case 0: // single attribute
			spec = targeting.Attr(rng.Intn(nAttr))
		case 1: // AND of two attributes
			spec = targeting.And(targeting.Attr(rng.Intn(nAttr)), targeting.Attr(rng.Intn(nAttr)))
		case 2: // attribute ∧ topic (the only AND Google accepts)
			if nTopic > 0 {
				spec = targeting.And(targeting.Attr(rng.Intn(nAttr)), targeting.Topic(rng.Intn(nTopic)))
			} else {
				spec = targeting.Attr(rng.Intn(nAttr))
			}
		case 3: // OR clause of two attributes
			spec = targeting.Spec{Include: []targeting.Clause{{
				{Kind: targeting.KindAttribute, ID: rng.Intn(nAttr)},
				{Kind: targeting.KindAttribute, ID: rng.Intn(nAttr)},
			}}}
		case 4: // attribute conditioned on a demographic
			spec = targeting.And(targeting.Attr(rng.Intn(nAttr)))
			spec.Include = append(spec.Include, targeting.Clause{{Kind: targeting.KindGender, ID: rng.Intn(2)}})
		case 5: // attribute minus an attribute (exclusions are rule-gated)
			spec = targeting.Attr(rng.Intn(nAttr))
			spec.Exclude = []targeting.Clause{{{Kind: targeting.KindAttribute, ID: rng.Intn(nAttr)}}}
		case 6: // unknown option id
			spec = targeting.Attr(nAttr + rng.Intn(10))
		default: // empty spec
			spec = targeting.Spec{}
		}
		reqs[i] = EstimateRequest{
			Spec:                 spec,
			Objective:            objectives[rng.Intn(len(objectives))],
			FrequencyCapPerMonth: caps[rng.Intn(len(caps))],
		}
	}
	return reqs
}

// oracle answers one request the reference way, outside the query
// compiler: the door's parameter checks (QueryParams), the audience
// materialized by dense set algebra (Interface.Audience) and counted, then
// ScaleAndRound.
func oracle(p *Interface, door Door, req EstimateRequest) (int64, error) {
	eligible, impressions, err := p.QueryParams(door, req)
	if err != nil {
		return 0, err
	}
	set, err := p.Audience(req.Spec)
	if err != nil {
		return 0, err
	}
	return p.ScaleAndRound(int64(set.Count()), eligible, impressions), nil
}

// sameOutcome asserts one answer matches the reference outcome: the same
// size, or an error with the same text.
func sameOutcome(t *testing.T, name string, i int, got Estimate, size int64, err error) {
	t.Helper()
	if (got.Err == nil) != (err == nil) {
		t.Fatalf("%s req %d: got err=%v, want err=%v", name, i, got.Err, err)
	}
	if err != nil {
		if got.Err.Error() != err.Error() {
			t.Fatalf("%s req %d: got err %q, want err %q", name, i, got.Err, err)
		}
		return
	}
	if got.Size != size {
		t.Fatalf("%s req %d: got size %d, want size %d", name, i, got.Size, size)
	}
}

// TestMeasureManyMatchesSerial is the bit-identity property test: on all
// four interfaces, on a dense and on a compressed-only deployment,
// MeasureMany over a mixed batch and N serial Measure calls must both
// return exactly what the oracle returns — same sizes, same errors — in any
// slot order, and again on a second pass (from the plan and schedule caches
// on the dense deployment, compiled afresh on the compressed one).
func TestMeasureManyMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		opts      DeployOptions
		batchSeed uint64
	}{
		{DeployOptions{Seed: 23, UniverseSize: 1 << 12}, 1000},
		{DeployOptions{Seed: 47, UniverseSize: 1 << 12, Compressed: true}, 4242},
	} {
		d, err := NewDeployment(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range d.Interfaces() {
			reqs := randomBatch(p, tc.batchSeed+uint64(len(p.Name())), 80)
			// On the dense deployment the second pass runs from the plan and
			// schedule caches.
			for pass := 0; pass < 2; pass++ {
				measureManyMatchesSerial(t, p, reqs)
			}
		}
	}
}

// measureManyMatchesSerial checks one batch, and each of its requests on
// the serial door, against the oracle, in both slot orders.
func measureManyMatchesSerial(t *testing.T, p *Interface, reqs []EstimateRequest) {
	t.Helper()
	got, err := p.MeasureMany(reqs)
	if err != nil {
		t.Fatalf("%s: MeasureMany: %v", p.Name(), err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("%s: MeasureMany returned %d results for %d requests", p.Name(), len(got), len(reqs))
	}
	for i, req := range reqs {
		want, werr := oracle(p, DoorMeasure, req)
		sameOutcome(t, p.Name()+" batch", i, got[i], want, werr)
		size, serr := p.Measure(req)
		sameOutcome(t, p.Name()+" serial", i, Estimate{Size: size, Err: serr}, want, werr)
	}
	// Slot order must not matter: reverse the batch and re-check.
	rev := make([]EstimateRequest, len(reqs))
	for i := range reqs {
		rev[len(reqs)-1-i] = reqs[i]
	}
	gotRev, err := p.MeasureMany(rev)
	if err != nil {
		t.Fatalf("%s: MeasureMany(reversed): %v", p.Name(), err)
	}
	for i := range reqs {
		j := len(reqs) - 1 - i
		if (got[i].Err == nil) != (gotRev[j].Err == nil) || got[i].Size != gotRev[j].Size {
			t.Fatalf("%s req %d: order-dependent result: %+v vs %+v", p.Name(), i, got[i], gotRev[j])
		}
	}
}

// TestEstimateManyMatchesSerial checks the advertiser door the same way
// (its rules differ: FB-restricted rejects demographics and exclusions):
// EstimateMany and serial Estimate both against the oracle.
func TestEstimateManyMatchesSerial(t *testing.T) {
	d, err := NewDeployment(DeployOptions{Seed: 29, UniverseSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Interfaces() {
		reqs := randomBatch(p, 2000+uint64(len(p.Name())), 60)
		got, err := p.EstimateMany(reqs)
		if err != nil {
			t.Fatalf("%s: EstimateMany: %v", p.Name(), err)
		}
		for i, req := range reqs {
			want, werr := oracle(p, DoorEstimate, req)
			sameOutcome(t, p.Name()+" batch", i, got[i], want, werr)
			size, serr := p.Estimate(req)
			sameOutcome(t, p.Name()+" serial", i, Estimate{Size: size, Err: serr}, want, werr)
		}
	}
}

// TestMeasureManyEmpty covers the zero-length batch.
func TestMeasureManyEmpty(t *testing.T) {
	d, err := NewDeployment(DeployOptions{Seed: 31, UniverseSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.FacebookRestricted.MeasureMany(nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("MeasureMany(nil) = %v, %v; want empty, nil", got, err)
	}
}

// TestMeasureManyConcurrentWithSerial hammers one shared interface with
// concurrent batches and single-spec calls — the race detector's view of
// the batch path sharing lazyOperand caches and counters with serial traffic.
func TestMeasureManyConcurrentWithSerial(t *testing.T) {
	d, err := NewDeployment(DeployOptions{Seed: 37, UniverseSize: 1 << 11})
	if err != nil {
		t.Fatal(err)
	}
	p := d.Google // impression estimates: exercises the cap factor too
	reqs := randomBatch(p, 777, 32)
	want, err := p.MeasureMany(reqs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				got, err := p.MeasureMany(reqs)
				if err != nil {
					t.Errorf("MeasureMany: %v", err)
					return
				}
				for i := range got {
					if got[i].Size != want[i].Size {
						t.Errorf("req %d: concurrent batch size %d, want %d", i, got[i].Size, want[i].Size)
						return
					}
				}
			}
		}()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				i := (g*20 + iter) % len(reqs)
				size, serr := p.Measure(reqs[i])
				if (serr == nil) != (want[i].Err == nil) || size != want[i].Size {
					t.Errorf("req %d: concurrent serial (%d, %v), want (%d, %v)", i, size, serr, want[i].Size, want[i].Err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
