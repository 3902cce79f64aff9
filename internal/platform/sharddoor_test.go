package platform

import (
	"errors"
	"testing"

	"repro/internal/population"
	"repro/internal/targeting"
)

func TestDoorStringParse(t *testing.T) {
	for _, d := range []Door{DoorMeasure, DoorEstimate} {
		got, err := ParseDoor(d.String())
		if err != nil || got != d {
			t.Fatalf("ParseDoor(%q) = %v, %v", d.String(), got, err)
		}
	}
	if _, err := ParseDoor("back"); err == nil {
		t.Fatal("unknown door accepted")
	}
}

// postures builds one deployment per catalog posture over the same seed
// and universe: dense (the reference), a compressed shard spanning the
// whole universe (CSetOnly), and a snapshot-loaded deployment (Views). All
// three must answer every door identically.
func postures(t *testing.T, opts DeployOptions) []*Deployment {
	t.Helper()
	dense, err := NewDeployment(opts)
	if err != nil {
		t.Fatal(err)
	}
	shardOpts := opts
	shardOpts.Compressed = true
	shardOpts.ShardSpans = []population.Span{{Lo: 0, Hi: opts.UniverseSize}}
	shard, err := NewDeployment(shardOpts)
	if err != nil {
		t.Fatal(err)
	}
	viewed, err := NewDeploymentFrom(opts, prebuiltFrom(t, dense))
	if err != nil {
		t.Fatal(err)
	}
	return []*Deployment{dense, shard, viewed}
}

// postureNames labels postures' deployments in failure messages.
var postureNames = []string{"dense", "cset-only", "views"}

// TestRawCountsAdditive is the invariant the cluster is built on: raw counts
// over disjoint index ranges sum to the full-universe raw count, and pushing
// the sum through ScaleAndRound is bit-identical to the oracle and to the
// single-node door. Compressed-catalog postures must count exactly what the
// dense one does.
func TestRawCountsAdditive(t *testing.T) {
	const n = 1 << 12
	deps := postures(t, DeployOptions{Seed: 43, UniverseSize: n})
	// Three uneven windows covering [0, n) without gaps.
	windows := [][]IndexRange{
		{{Lo: 0, Hi: 1000}},
		{{Lo: 1000, Hi: 1064}, {Lo: 1064, Hi: 3000}},
		{{Lo: 3000, Hi: n}},
	}
	for pi, p := range deps[0].Interfaces() {
		reqs := batterySpecs(p, 43)
		for _, door := range []Door{DoorMeasure, DoorEstimate} {
			ref := p.RawCountMany(door, reqs, nil)
			for di, d := range deps {
				p := d.Interfaces()[pi]
				name := postureNames[di] + "/" + p.Name()
				full := p.RawCountMany(door, reqs, nil)
				for i := range reqs {
					eligible, impressions, err := p.QueryParams(door, reqs[i])
					if (err == nil) != (full[i].Err == nil) {
						t.Fatalf("%s %v slot %d: QueryParams err %v, RawCountMany err %v",
							name, door, i, err, full[i].Err)
					}
					if full[i].Count != ref[i].Count || (full[i].Err == nil) != (ref[i].Err == nil) {
						t.Fatalf("%s %v slot %d: counts %d (%v), dense counts %d (%v)",
							name, door, i, full[i].Count, full[i].Err, ref[i].Count, ref[i].Err)
					}
					want, werr := oracle(p, door, reqs[i])
					if full[i].Err != nil {
						if werr == nil || full[i].Err.Error() != werr.Error() {
							t.Fatalf("%s %v slot %d: RawCountMany err %v, oracle err %v", name, door, i, full[i].Err, werr)
						}
						continue
					}
					if werr != nil {
						t.Fatal(werr)
					}
					var sum int64
					for _, w := range windows {
						part := p.RawCountMany(door, reqs[i:i+1], w)
						if part[0].Err != nil {
							t.Fatalf("%s %v slot %d window %v: %v", name, door, i, w, part[0].Err)
						}
						sum += part[0].Count
					}
					if sum != full[i].Count {
						t.Fatalf("%s %v slot %d: windows sum %d, full count %d",
							name, door, i, sum, full[i].Count)
					}
					got := p.ScaleAndRound(sum, eligible, impressions)
					if got != want {
						t.Fatalf("%s %v slot %d: ScaleAndRound(sum)=%d, oracle=%d",
							name, door, i, got, want)
					}
					var served int64
					if door == DoorMeasure {
						served, err = p.Measure(reqs[i])
					} else {
						served, err = p.Estimate(reqs[i])
					}
					if err != nil {
						t.Fatal(err)
					}
					if served != want {
						t.Fatalf("%s %v slot %d: door=%d, oracle=%d",
							name, door, i, served, want)
					}
				}
			}
		}
	}
}

// TestRawCountManyDoorRules: the estimate door enforces advertiser rules, so
// a demographic spec that measures fine on facebook-restricted must fail in
// its slot — with the same error the oracle returns, on every posture —
// while the measure door counts what the oracle's audience holds.
func TestRawCountManyDoorRules(t *testing.T) {
	reqs := []EstimateRequest{{Spec: targeting.WithGender(targeting.Attr(0), 1)}}
	deps := postures(t, DeployOptions{Seed: 47, UniverseSize: 1 << 11})
	measured := deps[0].FacebookRestricted.RawCountMany(DoorMeasure, reqs, nil)
	for di, d := range deps {
		p := d.FacebookRestricted
		set, err := p.Audience(reqs[0].Spec)
		if err != nil {
			t.Fatal(err)
		}
		got := p.RawCountMany(DoorMeasure, reqs, nil)
		if got[0].Err != nil || got[0].Count != measured[0].Count || got[0].Count != int64(set.Count()) {
			t.Fatalf("%s: measure door counted %d (%v), dense %d, oracle %d",
				postureNames[di], got[0].Count, got[0].Err, measured[0].Count, set.Count())
		}
		_, wantErr := oracle(p, DoorEstimate, reqs[0])
		if wantErr == nil {
			t.Fatalf("%s: estimate door accepted demographics on restricted interface", postureNames[di])
		}
		got = p.RawCountMany(DoorEstimate, reqs, nil)
		if got[0].Err == nil || got[0].Err.Error() != wantErr.Error() {
			t.Fatalf("%s: slot error %v, oracle error %q", postureNames[di], got[0].Err, wantErr)
		}
	}
}

// TestShardDoorErrors: malformed specs and unknown refs surface the same
// typed errors, with the same text, on the shard door of every posture —
// a span-restricted compressed shard included — as on the dense path.
func TestShardDoorErrors(t *testing.T) {
	const n = 1 << 11
	deps := postures(t, DeployOptions{Seed: 59, UniverseSize: n})
	span, err := NewDeployment(DeployOptions{
		Seed: 59, UniverseSize: n, Compressed: true,
		ShardSpans: []population.Span{{Lo: 0, Hi: 1 << 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	deps = append(deps, span)
	names := append(postureNames[:3:3], "span")
	dense := deps[0].Google // offers both attributes and topics
	nAttr := len(dense.Catalog().Attributes)
	nTopic := len(dense.Catalog().Topics)
	cases := []struct {
		name string
		spec targeting.Spec
		want error
	}{
		{"empty spec", targeting.Spec{}, targeting.ErrEmptySpec},
		{"empty clause", targeting.Spec{Include: []targeting.Clause{{}}}, targeting.ErrEmptyClause},
		{"empty second clause", targeting.Spec{Include: []targeting.Clause{
			{targeting.Ref{Kind: targeting.KindAttribute, ID: 0}}, {},
		}}, targeting.ErrEmptyClause},
		{"unknown attr", targeting.Attr(nAttr + 3), targeting.ErrUnknownOption},
		{"unknown topic", targeting.Topic(nTopic + 3), targeting.ErrUnknownOption},
		{"unknown attr in and", targeting.And(targeting.Attr(0), targeting.Attr(nAttr+3)), targeting.ErrUnknownOption},
		{"unknown attr excluded", targeting.Excluding(targeting.Attr(0), targeting.Attr(nAttr+3)), targeting.ErrUnknownOption},
		{"unknown attr in union", targeting.AnyAttr(1, nAttr+3), targeting.ErrUnknownOption},
	}
	for _, tc := range cases {
		reqs := []EstimateRequest{{Spec: tc.spec}}
		want := dense.RawCountMany(DoorMeasure, reqs, []IndexRange{{Lo: 0, Hi: 64}})[0].Err
		if !errors.Is(want, tc.want) {
			t.Fatalf("%s: dense door got %v, want %v", tc.name, want, tc.want)
		}
		for di, d := range deps {
			got := d.Google.RawCountMany(DoorMeasure, reqs, []IndexRange{{Lo: 0, Hi: 64}})[0].Err
			if !errors.Is(got, tc.want) || got.Error() != want.Error() {
				t.Errorf("%s %s: got %v, want %v", names[di], tc.name, got, want)
			}
		}
	}
}
