package cluster

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/targeting"
)

// The coordinator's core.Provider adapter must answer the serial and batch
// doors identically, an unknown interface name must fail, and every shard
// must echo the layout fingerprint the coordinator was built from.
func TestClusterProviderContextDoors(t *testing.T) {
	opts := platform.DeployOptions{
		Seed:         eqSeed,
		UniverseSize: eqUniverse,
		Metrics:      obs.NewRegistry(),
	}
	coord, shards := buildCluster(t, []string{"a", "b"}, 1, opts, 4096)
	prov, err := coord.Provider("facebook")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Provider("nope"); err == nil {
		t.Fatal("Provider(nope) should fail")
	}

	spec := targeting.Attr(1)
	want, err := prov.Measure(spec)
	if err != nil {
		t.Fatal(err)
	}
	batch := prov.MeasureMany([]targeting.Spec{spec})
	if len(batch) != 1 || batch[0].Err != nil || batch[0].Size != want {
		t.Fatalf("MeasureMany = %+v, want size %d", batch, want)
	}

	fp := shards[0].RingHash()
	for _, s := range shards[1:] {
		if s.RingHash() != fp {
			t.Fatalf("shard %s ring hash %x differs from %x", s.ID(), s.RingHash(), fp)
		}
	}
}
