package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/targeting"
)

// gateProvider answers Attr(id) with 1000+id. Attr(1) fails, and a call
// carrying Attr(3) signals entered and blocks until release is closed, so
// a second caller can be parked on its in-flight miss. Its serial door is
// its batch door with one slot.
type gateProvider struct {
	entered chan struct{}
	release chan struct{}
}

var errGate = errors.New("gate: refused")

func (g *gateProvider) Name() string             { return "gate" }
func (g *gateProvider) AttributeNames() []string { return []string{"a", "b", "c", "d"} }
func (g *gateProvider) TopicNames() []string     { return nil }
func (g *gateProvider) CrossFeature() bool       { return false }

func (g *gateProvider) Measure(spec targeting.Spec) (int64, error) {
	r := g.MeasureMany([]targeting.Spec{spec})[0]
	return r.Size, r.Err
}

func (g *gateProvider) MeasureMany(specs []targeting.Spec) []BatchResult {
	out := make([]BatchResult, len(specs))
	for i, s := range specs {
		switch id := targeting.Refs(s)[0].ID; id {
		case 1:
			out[i].Err = errGate
		case 3:
			g.entered <- struct{}{}
			<-g.release
			fallthrough
		default:
			out[i].Size = 1000 + int64(id)
		}
	}
	return out
}

// TestCachePerCallAccounting pins what one call through either cache door
// adds to the cache's counters, over a fixed sequence: a miss, a hit, a
// failed miss (refunded from UpstreamCalls), a store hit, and a second
// caller collapsing onto an in-flight miss of the same key. Each call is
// one hit or one miss, and each miss is one upstream latency observation:
// the counts perfbench fingerprints as cache_hits, upstream_queries and
// upstream_exchanges.
func TestCachePerCallAccounting(t *testing.T) {
	doors := []struct {
		name    string
		measure func(p Provider, spec targeting.Spec) (int64, error)
	}{
		{"Measure", func(p Provider, spec targeting.Spec) (int64, error) { return p.Measure(spec) }},
		{"MeasureMany", func(p Provider, spec targeting.Spec) (int64, error) {
			r := p.MeasureMany([]targeting.Spec{spec})[0]
			return r.Size, r.Err
		}},
	}
	for _, door := range doors {
		t.Run(door.name, func(t *testing.T) {
			st := openStore(t, t.TempDir())
			if err := st.PutMeasurement("gate", targeting.Canonical(targeting.Attr(2)), 4242); err != nil {
				t.Fatal(err)
			}
			g := &gateProvider{entered: make(chan struct{}), release: make(chan struct{})}
			cp := NewStoredProviderWith(g, st, obs.NewRegistry())

			steps := []struct {
				id   int
				want int64
				err  error
			}{
				{0, 1000, nil},  // miss
				{0, 1000, nil},  // hit
				{1, 0, errGate}, // failed miss, refunded
				{2, 4242, nil},  // store hit
			}
			for i, s := range steps {
				v, err := door.measure(cp, targeting.Attr(s.id))
				if v != s.want || !errors.Is(err, s.err) {
					t.Fatalf("step %d: (%d, %v), want (%d, %v)", i, v, err, s.want, s.err)
				}
			}

			// Collapse: the first caller's miss blocks upstream until the
			// second caller is counted as waiting on it.
			var wg sync.WaitGroup
			vals := make([]int64, 2)
			errs := make([]error, 2)
			call := func(k int) {
				defer wg.Done()
				vals[k], errs[k] = door.measure(cp, targeting.Attr(3))
			}
			wg.Add(2)
			go call(0)
			<-g.entered
			go call(1)
			deadline := time.Now().Add(10 * time.Second)
			for s, _ := StatsOf(cp); s.Collapsed == 0; s, _ = StatsOf(cp) {
				if time.Now().After(deadline) {
					t.Fatal("second caller never waited on the in-flight miss")
				}
				time.Sleep(time.Millisecond)
			}
			close(g.release)
			wg.Wait()
			for k := range vals {
				if vals[k] != 1003 || errs[k] != nil {
					t.Fatalf("collapsed caller %d: (%d, %v), want (1003, nil)", k, vals[k], errs[k])
				}
			}

			got, _ := StatsOf(cp)
			if got.Hits != 1 || got.Misses != 3 || got.Collapsed != 1 || got.StoreHits != 1 || got.StoreMisses != 3 {
				t.Errorf("hits/misses/collapsed/store hits/store misses = %d/%d/%d/%d/%d, want 1/3/1/1/3",
					got.Hits, got.Misses, got.Collapsed, got.StoreHits, got.StoreMisses)
			}
			if got.Upstream.Count != 3 {
				t.Errorf("upstream latency observations = %d, want 3 (one per miss)", got.Upstream.Count)
			}
			if n := UpstreamCalls(cp); n != 2 {
				t.Errorf("UpstreamCalls = %d, want 2 (the failed miss refunded)", n)
			}
		})
	}
}
