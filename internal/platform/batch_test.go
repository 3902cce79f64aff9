package platform

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/battery"
	"repro/internal/targeting"
)

// batteryRequests draws n battery cases for p as requests, with their
// objectives and frequency caps.
func batteryRequests(p *Interface, seed uint64, n int) []EstimateRequest {
	cat := battery.Catalog{Attributes: len(p.Catalog().Attributes), Topics: len(p.Catalog().Topics)}
	reqs := make([]EstimateRequest, n)
	for i, c := range battery.Draw(seed, n, cat) {
		reqs[i] = EstimateRequest{Spec: c.Spec, Objective: Objective(c.Objective), FrequencyCapPerMonth: c.Cap}
	}
	return reqs
}

// batterySpecs draws one battery case of each shape for p as requests
// that carry the spec alone.
func batterySpecs(p *Interface, seed uint64) []EstimateRequest {
	reqs := batteryRequests(p, seed, battery.Shapes)
	for i := range reqs {
		reqs[i] = EstimateRequest{Spec: reqs[i].Spec}
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

// TestEstimateManyMatchesSerial checks the batch body under the advertiser
// door the same way (its rules differ: FB-restricted rejects demographics
// and exclusions): sizeMany and serial Estimate both against the oracle.
func TestEstimateManyMatchesSerial(t *testing.T) {
	d, err := NewDeployment(DeployOptions{Seed: 29, UniverseSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Interfaces() {
		reqs := batteryRequests(p, 2000+uint64(len(p.Name())), 60)
		got := p.sizeMany(nil, DoorEstimate, reqs, nil)
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
	if got := d.FacebookRestricted.MeasureMany(nil); len(got) != 0 {
		t.Fatalf("MeasureMany(nil) = %v, want empty", got)
	}
}

// TestMeasureManyConcurrentWithSerial hammers one shared interface, on a
// dense and on a compressed-only deployment, with concurrent batches and
// single-spec calls, every answer checked against the oracle — the race
// detector's view of the batch path sharing lazyOperand slots and counters
// with serial traffic while each call compiles its own plans.
func TestMeasureManyConcurrentWithSerial(t *testing.T) {
	for _, opts := range []DeployOptions{
		{Seed: 37, UniverseSize: 1 << 11},
		{Seed: 37, UniverseSize: 1 << 11, Compressed: true},
	} {
		d, err := NewDeployment(opts)
		if err != nil {
			t.Fatal(err)
		}
		p := d.Google // impression estimates: exercises the cap factor too
		reqs := batteryRequests(p, 777, 32)
		want := oracleMeasure(p, reqs)
		name := fmt.Sprintf("compressed=%v", opts.Compressed)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for iter := 0; iter < 20; iter++ {
					got := p.MeasureMany(reqs)
					for i := range got {
						if (got[i].Err == nil) != (want[i].Err == nil) || got[i].Size != want[i].Size {
							t.Errorf("%s req %d: concurrent batch (%d, %v), want (%d, %v)",
								name, i, got[i].Size, got[i].Err, want[i].Size, want[i].Err)
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
						t.Errorf("%s req %d: concurrent serial (%d, %v), want (%d, %v)",
							name, i, size, serr, want[i].Size, want[i].Err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestCustomAudienceBatchMatchesSerial checks that a spec touching a custom
// audience (dynamic per-advertiser state) answers on the batch door what it
// answers on the serial door, round after round, and compiles once per
// batch.
func TestCustomAudienceBatchMatchesSerial(t *testing.T) {
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
	serial, serr := p.Measure(EstimateRequest{Spec: spec})
	if serr != nil {
		t.Fatal(serr)
	}
	c0 := p.mPlansCompiled.Value()
	for round := 0; round < 2; round++ {
		got := p.MeasureMany([]EstimateRequest{{Spec: spec}})
		if got[0].Err != nil {
			t.Fatalf("round %d: %v", round, got[0].Err)
		}
		if got[0].Size != serial {
			t.Fatalf("round %d: batch %d, serial %d", round, got[0].Size, serial)
		}
	}
	if c := p.mPlansCompiled.Value() - c0; c != 2 {
		t.Fatalf("compiled %d times, want 2 (once per batch)", c)
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
