package experiments

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/mitigation"
)

// PhaseOptions parameterizes one named experiment run. Zero values select
// the paper's parameters.
type PhaseOptions struct {
	// GranularityCalls is the distinct-call target for the methodology
	// phase (paper: 80,000+; 0 selects the package default).
	GranularityCalls int
	// Examples is how many illustrative compositions the table phases
	// report per cell (0 selects the paper's 5).
	Examples int
}

func (o PhaseOptions) withDefaults() PhaseOptions {
	if o.Examples == 0 {
		o.Examples = 5
	}
	return o
}

// PhaseResult is one completed experiment phase: its name, the results/
// file cmd/figures writes it to, the rows the paper reports
// (JSON-encodable, the same values adauditctl -format json emits), and a
// text renderer over them.
type PhaseResult struct {
	Name string
	File string
	Rows any

	render func(w io.Writer) error
}

// Render writes the phase's text presentation — the same tables and series
// adauditctl prints.
func (p PhaseResult) Render(w io.Writer) error { return p.render(w) }

// phase is one named experiment, declared once in phases.
type phase struct {
	name string
	// file is the results/ file the phase's rendering is committed as.
	file string
	// deploymentOnly marks a phase that reaches into Deployment internals
	// (custom-audience seeding, the delivery simulator) and therefore
	// cannot run over remote providers.
	deploymentOnly bool
	run            func(r *Runner, opt PhaseOptions) (PhaseResult, error)
}

// newPhase declares a phase whose body returns rows of type T, presented
// by render.
func newPhase[T any](name, file string, deploymentOnly bool,
	body func(*Runner, PhaseOptions) (T, error), render func(io.Writer, T) error) phase {
	return phase{name, file, deploymentOnly, func(r *Runner, opt PhaseOptions) (PhaseResult, error) {
		rows, err := body(r, opt)
		if err != nil {
			return PhaseResult{}, err
		}
		return PhaseResult{Name: name, File: file, Rows: rows,
			render: func(w io.Writer) error { return render(w, rows) }}, nil
	}}
}

// titled binds a titled renderer to its title.
func titled[T any](render func(io.Writer, string, T) error, title string) func(io.Writer, T) error {
	return func(w io.Writer, rows T) error { return render(w, title, rows) }
}

// phases is every named experiment in presentation order, each entry its
// name, results/ file, deployment-only flag, body and renderer. "spec" (the
// ad-hoc composition audit) is a CLI-only verb and is deliberately absent:
// it needs selector resolution against one platform's option names.
var phases = []phase{
	newPhase("methodology", "methodology.txt", false, func(r *Runner, o PhaseOptions) ([]MethodologyRow, error) {
		return r.Methodology(MethodologyConfig{GranularityCalls: o.GranularityCalls})
	}, RenderMethodology),
	newPhase("rounding", "rounding_bounds.txt", false, func(r *Runner, _ PhaseOptions) ([]RoundingBoundsRow, error) {
		return r.RoundingBounds(classMale())
	}, RenderRoundingBounds),
	newPhase("fig1", "figure1.txt", false, func(r *Runner, _ PhaseOptions) ([]BoxRow, error) {
		return r.Figure1()
	}, titled(RenderBoxRows, "Figure 1: rep ratios on Facebook's restricted interface")),
	newPhase("fig2", "figure2.txt", false, func(r *Runner, _ PhaseOptions) ([]BoxRow, error) {
		return r.Figure2()
	}, titled(RenderBoxRows, "Figure 2: rep ratios on Facebook, Google, LinkedIn")),
	newPhase("fig3", "figure3.txt", false, func(r *Runner, _ PhaseOptions) ([]RemovalSeries, error) {
		return r.Figure3()
	}, titled(RenderRemovalSeries, "Figure 3: removal sweep (gender)")),
	newPhase("fig4", "figure4.txt", false, func(r *Runner, _ PhaseOptions) ([]BoxRow, error) {
		return r.Figure4()
	}, titled(RenderBoxRows, "Figure 4: rep ratios across age ranges")),
	newPhase("fig5", "figure5.txt", false, func(r *Runner, _ PhaseOptions) ([]RecallRow, error) {
		return r.Figure5()
	}, titled(RenderRecallRows, "Figure 5: recalls of skewed targetings")),
	newPhase("fig6", "figure6.txt", false, func(r *Runner, _ PhaseOptions) ([]RemovalSeries, error) {
		return r.Figure6()
	}, titled(RenderRemovalSeries, "Figure 6: removal sweeps across age ranges")),
	newPhase("tab1", "table1.txt", false, func(r *Runner, _ PhaseOptions) ([]Table1Row, error) {
		return r.Table1()
	}, RenderTable1),
	newPhase("tab2", "table2.txt", false, func(r *Runner, o PhaseOptions) ([]ExampleRow, error) {
		return r.Table2(o.Examples)
	}, titled(RenderExamples, "Table 2: illustrative gender-skewed compositions")),
	newPhase("tab3", "table3.txt", false, func(r *Runner, o PhaseOptions) ([]ExampleRow, error) {
		return r.Table3(o.Examples)
	}, titled(RenderExamples, "Table 3: illustrative age-skewed compositions")),
	newPhase("mitigation", "ext_mitigation.txt", false, func(r *Runner, _ PhaseOptions) ([]MitigationRow, error) {
		return r.MitigationStudy(classMale(), mitigation.EvalConfig{})
	}, RenderMitigationRows),
	newPhase("lookalike", "ext_lookalike.txt", true, func(r *Runner, _ PhaseOptions) ([]LookalikeRow, error) {
		return r.LookalikeStudy(classMale(), 0, 0)
	}, RenderLookalikeRows),
	newPhase("delivery", "ext_delivery.txt", true, func(r *Runner, _ PhaseOptions) ([]DeliveryRow, error) {
		return r.DeliveryStudy()
	}, RenderDeliveryRows),
	newPhase("retarget", "ext_retargeting.txt", true, func(r *Runner, _ PhaseOptions) ([]RetargetingRow, error) {
		return r.RetargetingStudy(classMale())
	}, RenderRetargetingRows),
}

// phaseIndex returns name's position in phases, or -1.
func phaseIndex(name string) int {
	return slices.IndexFunc(phases, func(p phase) bool { return p.name == name })
}

// ValidExperiment reports whether name is a runnable experiment ("all"
// included).
func ValidExperiment(name string) bool {
	return name == "all" || phaseIndex(name) >= 0
}

// ExpandExperiments resolves a requested experiment list, expanding "all"
// into the full battery — restricted to the portable phases when
// remoteOnly is set (providers without an in-process Deployment cannot run
// the deployment-only studies). Unknown names are an error, and so, when
// remoteOnly is set, is a deployment-only phase named explicitly: the error
// wraps ErrNeedsDeployment, so the list is refused before any phase runs.
func ExpandExperiments(names []string, remoteOnly bool) ([]string, error) {
	var out []string
	add := func(n string) {
		if !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	for _, name := range names {
		if name == "all" {
			for _, p := range phases {
				if !remoteOnly || !p.deploymentOnly {
					add(p.name)
				}
			}
			continue
		}
		if !ValidExperiment(name) {
			return nil, fmt.Errorf("experiments: unknown experiment %q", name)
		}
		if remoteOnly && phases[phaseIndex(name)].deploymentOnly {
			return nil, fmt.Errorf("%w: %q", ErrNeedsDeployment, name)
		}
		add(name)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: empty experiment list")
	}
	return out, nil
}

// RunExperiment runs one named experiment phase — the library entrypoint
// cmd/figures, adauditctl and the async job service (internal/jobs) drive.
// The returned result carries the rows for JSON encoding, the phase's
// results/ file and a text renderer.
func (r *Runner) RunExperiment(name string, opt PhaseOptions) (PhaseResult, error) {
	i := phaseIndex(name)
	if i < 0 {
		return PhaseResult{}, fmt.Errorf("experiments: unknown experiment %q", name)
	}
	return phases[i].run(r, opt.withDefaults())
}
