package adapi

import "testing"

func TestNewClusterCoordinatorErrors(t *testing.T) {
	base := ClusterSpec{Universe: 6000, Seed: 5}
	for name, shards := range map[string]string{
		"missing equals": "a=http://h1,borken",
		"empty name":     "=http://h1",
		"empty url":      "a=",
		"duplicate name": "a=http://h1,a=http://h2",
		"no shards":      " , ",
	} {
		spec := base
		spec.Shards = shards
		if _, err := NewClusterCoordinator(spec); err == nil {
			t.Errorf("%s (%q): accepted", name, shards)
		}
	}
	// Layout errors propagate too: a universe below one partition.
	if _, err := NewClusterCoordinator(ClusterSpec{
		Shards: "a=http://h1", Universe: -1, Seed: 5,
	}); err == nil {
		t.Error("negative universe accepted")
	}
}
