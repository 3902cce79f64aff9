package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/mitigation"
	"repro/internal/population"
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

// PhaseResult is one completed experiment phase: its name, the rows the
// paper reports (JSON-encodable, the same values adauditctl -format json
// emits), and a text renderer over them.
type PhaseResult struct {
	Name string
	Rows any

	render func(w io.Writer) error
}

// Render writes the phase's text presentation — the same tables and series
// adauditctl prints.
func (p PhaseResult) Render(w io.Writer) error { return p.render(w) }

// phaseOrder is every named experiment in presentation order. "spec" (the
// ad-hoc composition audit) is a CLI-only verb and is deliberately absent:
// it needs selector resolution against one platform's option names.
var phaseOrder = []string{
	"methodology", "rounding",
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
	"tab1", "tab2", "tab3",
	"mitigation", "lookalike", "delivery", "retarget",
}

// deploymentOnly marks the phases that reach into Deployment internals
// (custom-audience seeding, the delivery simulator) and therefore cannot run
// over remote providers.
var deploymentOnly = map[string]bool{
	"lookalike": true,
	"delivery":  true,
	"retarget":  true,
}

// ValidExperiment reports whether name is a runnable experiment ("all"
// included).
func ValidExperiment(name string) bool {
	if name == "all" {
		return true
	}
	for _, n := range phaseOrder {
		if n == name {
			return true
		}
	}
	return false
}

// ExpandExperiments resolves a requested experiment list, expanding "all"
// into the full battery — restricted to the portable phases when
// remoteOnly is set (providers without an in-process Deployment cannot run
// the deployment-only studies). Unknown names are an error.
func ExpandExperiments(names []string, remoteOnly bool) ([]string, error) {
	var out []string
	seen := make(map[string]bool)
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, name := range names {
		if name == "all" {
			for _, n := range phaseOrder {
				if remoteOnly && deploymentOnly[n] {
					continue
				}
				add(n)
			}
			continue
		}
		if !ValidExperiment(name) {
			return nil, fmt.Errorf("experiments: unknown experiment %q", name)
		}
		add(name)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: empty experiment list")
	}
	return out, nil
}

// RunExperiment runs one named experiment phase — the library entrypoint
// both adauditctl and the async job service (internal/jobs) drive. The
// returned result carries the rows for JSON encoding and a text renderer.
func (r *Runner) RunExperiment(name string, opt PhaseOptions) (PhaseResult, error) {
	opt = opt.withDefaults()
	res := PhaseResult{Name: name}
	fail := func(err error) (PhaseResult, error) { return PhaseResult{}, err }
	switch name {
	case "fig1":
		rows, err := r.Figure1()
		if err != nil {
			return fail(err)
		}
		res.Rows = rows
		res.render = func(w io.Writer) error {
			return RenderBoxRows(w, "Figure 1: rep ratios on Facebook's restricted interface", rows)
		}
	case "fig2":
		rows, err := r.Figure2()
		if err != nil {
			return fail(err)
		}
		res.Rows = rows
		res.render = func(w io.Writer) error {
			return RenderBoxRows(w, "Figure 2: rep ratios on Facebook, Google, LinkedIn", rows)
		}
	case "fig3":
		series, err := r.Figure3()
		if err != nil {
			return fail(err)
		}
		res.Rows = series
		res.render = func(w io.Writer) error {
			return RenderRemovalSeries(w, "Figure 3: removal of skewed individual targetings (gender)", series)
		}
	case "fig4":
		rows, err := r.Figure4()
		if err != nil {
			return fail(err)
		}
		res.Rows = rows
		res.render = func(w io.Writer) error {
			return RenderBoxRows(w, "Figure 4: rep ratios across age ranges", rows)
		}
	case "fig5":
		rows, err := r.Figure5()
		if err != nil {
			return fail(err)
		}
		res.Rows = rows
		res.render = func(w io.Writer) error {
			return RenderRecallRows(w, "Figure 5: recalls of skewed targetings", rows)
		}
	case "fig6":
		series, err := r.Figure6()
		if err != nil {
			return fail(err)
		}
		res.Rows = series
		res.render = func(w io.Writer) error {
			return RenderRemovalSeries(w, "Figure 6: removal sweeps across age ranges", series)
		}
	case "tab1":
		rows, err := r.Table1()
		if err != nil {
			return fail(err)
		}
		res.Rows = rows
		res.render = func(w io.Writer) error { return RenderTable1(w, rows) }
	case "tab2":
		rows, err := r.Table2(opt.Examples)
		if err != nil {
			return fail(err)
		}
		res.Rows = rows
		res.render = func(w io.Writer) error {
			return RenderExamples(w, "Table 2: illustrative gender-skewed compositions", rows)
		}
	case "tab3":
		rows, err := r.Table3(opt.Examples)
		if err != nil {
			return fail(err)
		}
		res.Rows = rows
		res.render = func(w io.Writer) error {
			return RenderExamples(w, "Table 3: illustrative age-skewed compositions", rows)
		}
	case "methodology":
		rows, err := r.Methodology(MethodologyConfig{GranularityCalls: opt.GranularityCalls})
		if err != nil {
			return fail(err)
		}
		res.Rows = rows
		res.render = func(w io.Writer) error { return RenderMethodology(w, rows) }
	case "rounding":
		rows, err := r.RoundingBounds(core.GenderClass(population.Male))
		if err != nil {
			return fail(err)
		}
		res.Rows = rows
		res.render = func(w io.Writer) error { return RenderRoundingBounds(w, rows) }
	case "lookalike":
		rows, err := r.LookalikeStudy(core.GenderClass(population.Male), 0, 0)
		if err != nil {
			return fail(err)
		}
		res.Rows = rows
		res.render = func(w io.Writer) error { return RenderLookalikeRows(w, rows) }
	case "mitigation":
		rows, err := r.MitigationStudy(core.GenderClass(population.Male), mitigation.EvalConfig{})
		if err != nil {
			return fail(err)
		}
		res.Rows = rows
		res.render = func(w io.Writer) error { return RenderMitigationRows(w, rows) }
	case "delivery":
		rows, err := r.DeliveryStudy()
		if err != nil {
			return fail(err)
		}
		res.Rows = rows
		res.render = func(w io.Writer) error { return RenderDeliveryRows(w, rows) }
	case "retarget":
		rows, err := r.RetargetingStudy(core.GenderClass(population.Male))
		if err != nil {
			return fail(err)
		}
		res.Rows = rows
		res.render = func(w io.Writer) error { return RenderRetargetingRows(w, rows) }
	default:
		return fail(fmt.Errorf("experiments: unknown experiment %q", name))
	}
	return res, nil
}
