package experiments

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/platform"
)

// ExperimentNames returns every runnable experiment name in presentation
// order.
func ExperimentNames() []string {
	names := make([]string, len(phases))
	for i, p := range phases {
		names[i] = p.name
	}
	return names
}

func TestExperimentNames(t *testing.T) {
	names := ExperimentNames()
	if len(names) != len(phases) {
		t.Fatalf("got %d names, want %d", len(names), len(phases))
	}
	// The returned slice is a copy — mutating it must not corrupt the
	// package's ordering.
	names[0] = "clobbered"
	if ExperimentNames()[0] == "clobbered" {
		t.Fatal("ExperimentNames exposes internal state")
	}
	for _, n := range ExperimentNames() {
		if !ValidExperiment(n) {
			t.Errorf("listed experiment %q not valid", n)
		}
	}
	if !ValidExperiment("all") {
		t.Error(`"all" must be valid`)
	}
	if ValidExperiment("nosuch") {
		t.Error("unknown name accepted")
	}
	// Each phase is committed as its own results/ file.
	files := map[string]string{}
	for _, p := range phases {
		if !strings.HasSuffix(p.file, ".txt") {
			t.Errorf("%s: results file %q is not a .txt file", p.name, p.file)
		}
		if prev, ok := files[p.file]; ok {
			t.Errorf("%s and %s both write %s", prev, p.name, p.file)
		}
		files[p.file] = p.name
	}
}

func TestExpandExperiments(t *testing.T) {
	full, err := ExpandExperiments([]string{"all"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(phases) {
		t.Fatalf("all expanded to %d phases, want %d", len(full), len(phases))
	}

	portable, err := ExpandExperiments([]string{"all"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(portable) != 12 {
		t.Fatalf("remote-only expansion kept %d phases, want 12", len(portable))
	}
	for _, n := range portable {
		if phases[phaseIndex(n)].deploymentOnly {
			t.Errorf("deployment-only phase %q survived remote expansion", n)
		}
	}

	// Duplicates collapse, explicit names pass through in order.
	few, err := ExpandExperiments([]string{"fig2", "fig1", "fig2"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(few) != 2 || few[0] != "fig2" || few[1] != "fig1" {
		t.Fatalf("explicit list expanded to %v", few)
	}

	if _, err := ExpandExperiments([]string{"fig1", "nosuch"}, false); err == nil {
		t.Fatal("unknown name accepted")
	}
	if _, err := ExpandExperiments(nil, false); err == nil {
		t.Fatal("empty list accepted")
	}

	// A deployment-only phase named explicitly is refused for a remote
	// run, and kept for an in-process one; "all" drops it silently.
	for _, p := range phases {
		if !p.deploymentOnly {
			continue
		}
		if _, err := ExpandExperiments([]string{"fig1", p.name}, true); !errors.Is(err, ErrNeedsDeployment) {
			t.Errorf("remote expansion of %q: err %v, want ErrNeedsDeployment", p.name, err)
		}
		if got, err := ExpandExperiments([]string{p.name}, false); err != nil || len(got) != 1 {
			t.Errorf("in-process expansion of %q = %v, %v", p.name, got, err)
		}
	}
	if _, err := ExpandExperiments([]string{"all", "fig1"}, true); err != nil {
		t.Errorf("remote all: %v", err)
	}
}

// RunExperiment drives every named phase over the shared small deployment:
// each must produce rows and render non-trivial text, and the unknown name
// must be a typed refusal. This is the library entrypoint adauditctl and
// the job service both call.
func TestRunExperimentAllPhases(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// A dedicated deployment: the retargeting phase registers pixel sites
	// on it, so sharing testRunner's would collide with other tests.
	d, err := platform.NewDeployment(platform.DeployOptions{Seed: 33, UniverseSize: 12000})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{
		Deployment:      d,
		K:               60,
		OverlapTopN:     12,
		OverlapMaxPairs: 40,
		UnionTopN:       5,
		UnionMaxOrder:   3,
		RemovalSteps:    []float64{0, 10},
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := PhaseOptions{GranularityCalls: 200, Examples: 2}
	for _, name := range ExperimentNames() {
		res, err := r.RunExperiment(name, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Name != name || res.File != phases[phaseIndex(name)].file {
			t.Fatalf("%s: result named %q, file %q", name, res.Name, res.File)
		}
		if res.Rows == nil {
			t.Fatalf("%s: no rows", name)
		}
		var buf strings.Builder
		if err := res.Render(&buf); err != nil {
			t.Fatalf("%s: render: %v", name, err)
		}
		if buf.Len() < 50 {
			t.Fatalf("%s: render produced %d bytes", name, buf.Len())
		}
	}
	if _, err := r.RunExperiment("nosuch", PhaseOptions{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
