package platform

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/targeting"
)

// TestConcurrentMeasureWarm hammers one shared Interface with concurrent
// Measure, Estimate, Audience, and Warm calls under -race: the lock-free
// estimate path must return identical answers for identical specs, count
// every query, and materialize each option set exactly once.
func TestConcurrentMeasureWarm(t *testing.T) {
	d, err := NewDeployment(DeployOptions{Seed: 17, UniverseSize: 1 << 12, Metrics: obs.NewRegistry()})
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
	if got := queriesServed(p); got != goroutines*iters {
		t.Fatalf("queries served = %d, want %d", got, goroutines*iters)
	}
}

// TestWarmReturnsInterface asserts Warm chains and fills every catalog
// slot in the catalog's one form: the dense set alone on a dense
// deployment, the compressed set alone on a Compressed and on a snapshot
// views deployment. On the compressed catalogs neither Warm nor the
// Audience oracle may leave a dense set behind.
func TestWarmReturnsInterface(t *testing.T) {
	opts := DeployOptions{Seed: 18, UniverseSize: 1 << 10}
	dense, err := NewDeployment(opts)
	if err != nil {
		t.Fatal(err)
	}
	copts := opts
	copts.Compressed = true
	comp, err := NewDeployment(copts)
	if err != nil {
		t.Fatal(err)
	}
	viewed, err := NewDeploymentFrom(opts, prebuiltFrom(t, dense))
	if err != nil {
		t.Fatal(err)
	}
	// An OR clause, a second feature and an exclusion: every catalog kind.
	spec := targeting.Spec{
		Include: []targeting.Clause{
			{{Kind: targeting.KindAttribute, ID: 0}, {Kind: targeting.KindAttribute, ID: 1}},
			{{Kind: targeting.KindTopic, ID: 0}},
		},
		Exclude: []targeting.Clause{{{Kind: targeting.KindPlacement, ID: 0}}},
	}
	for di, d := range []*Deployment{dense, comp, viewed} {
		name := []string{"dense", "compressed", "views"}[di]
		p := d.Google.Warm()
		if p != d.Google {
			t.Fatalf("%s: Warm did not return its receiver", name)
		}
		check := func(stage string) {
			t.Helper()
			for k, dim := range p.dims {
				for i := range dim.sets {
					s := &dim.sets[i]
					if !s.done.Load() {
						t.Fatalf("%s: %v option %d not built after %s", name, optionKinds[k], i, stage)
					}
					if wantDense := di == 0; (s.op.Set != nil) != wantDense || (s.op.C != nil) == wantDense {
						t.Fatalf("%s: %v option %d holds dense=%v compressed=%v after %s",
							name, optionKinds[k], i, s.op.Set != nil, s.op.C != nil, stage)
					}
				}
			}
		}
		check("Warm")
		if _, err := p.Audience(spec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check("Audience")
	}
}

// TestSerialDoorMatchesAudience cross-checks the serial doors against the
// oracle's full Audience materialization across spec shapes — include-only
// ANDs, multi-ref OR clauses, and exclusions — on every catalog posture,
// and pins that each serial query compiles one plan, which runs the tiled
// kernel on every posture.
func TestSerialDoorMatchesAudience(t *testing.T) {
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
	for di, d := range postures(t, DeployOptions{Seed: 19, UniverseSize: 1 << 11}) {
		p := d.Facebook
		for i, s := range specs {
			req := EstimateRequest{Spec: s}
			for _, door := range []Door{DoorMeasure, DoorEstimate} {
				want, werr := oracle(p, door, req)
				c0, b0 := p.mPlansCompiled.Value(), p.mBatchBlocks.Value()
				var got int64
				var err error
				if door == DoorMeasure {
					got, err = p.Measure(req)
				} else {
					got, err = p.Estimate(req)
				}
				name := fmt.Sprintf("%s %v", postureNames[di], door)
				sameOutcome(t, name, i, Estimate{Size: got, Err: err}, want, werr)
				if werr != nil {
					continue
				}
				if c, b := p.mPlansCompiled.Value()-c0, p.mBatchBlocks.Value()-b0; c != 1 || b < 1 {
					t.Fatalf("%s spec %d: compiled %d plans over %d kernel blocks, want 1 plan", name, i, c, b)
				}
			}
		}
	}
}
