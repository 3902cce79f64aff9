package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/audience"
	"repro/internal/core"
	"repro/internal/mitigation"
	"repro/internal/pii"
	"repro/internal/platform"
	"repro/internal/targeting"
	"repro/internal/xrand"
)

// The extension experiments go beyond the paper's measurements but stay
// inside its threat model: §2.1–2.2 document PII-based, activity-based, and
// lookalike targeting as part of the composition surface (Special Ad
// Audiences are Facebook's claimed mitigation), and §5 proposes
// outcome-based detection. Both are implemented substrates here, so the
// audit can measure them.

// ErrNeedsDeployment marks extension experiments that require direct
// platform access (audience creation), not just the size-estimate channel.
var ErrNeedsDeployment = errors.New("experiments: extension requires an in-process deployment")

// LookalikeRow is one audited audience in the lookalike-propagation study.
type LookalikeRow struct {
	Platform string
	// Audience names the audited object: seed, lookalike, or special-ad.
	Audience string
	// Class is the monitored sensitive class.
	Class string
	// RepRatio is the audience's representation ratio toward the class.
	RepRatio float64
	// Size is the audience's platform-scale estimate.
	Size int64
}

// LookalikeStudy measures how demographic skew propagates from a skewed
// customer list through lookalike expansion — and whether the restricted
// interface's "Special Ad Audience" adjustment (paper §2.2) actually
// removes it. The seed simulates an advertiser whose CRM skews toward the
// class (their product's existing customers do); the study audits the seed
// and its expansions with Equation 1.
func (r *Runner) LookalikeStudy(c core.Class, seedSize int, ratio float64) ([]LookalikeRow, error) {
	defer r.track("lookalike")()
	if r.cfg.Deployment == nil {
		return nil, ErrNeedsDeployment
	}
	if seedSize == 0 {
		seedSize = 400
	}
	if ratio == 0 {
		ratio = 0.05
	}
	var rows []LookalikeRow
	// Both Facebook interfaces share a universe: the same customer list
	// expands as a standard lookalike on the full interface and as a
	// Special Ad Audience on the restricted one.
	for _, p := range []*platform.Interface{r.cfg.Deployment.Facebook, r.cfg.Deployment.FacebookRestricted} {
		a, err := r.Auditor(p.Name())
		if err != nil {
			return nil, err
		}
		records, err := skewedCustomerList(p, c, seedSize, r.cfg.Seed)
		if err != nil {
			return nil, err
		}
		seed, err := p.CreatePIIAudience(fmt.Sprintf("%s-crm", c), records)
		if err != nil {
			return nil, fmt.Errorf("lookalike study on %s: %w", p.Name(), err)
		}
		look, err := p.CreateLookalike(fmt.Sprintf("%s-expansion", c), seed.ID, ratio)
		if err != nil {
			return nil, fmt.Errorf("lookalike study on %s: %w", p.Name(), err)
		}
		for _, target := range []platform.CustomAudienceInfo{seed, look} {
			m, err := a.Audit(targeting.CustomAudience(target.ID), c)
			if err != nil && !errors.Is(err, core.ErrBelowFloor) {
				return nil, err
			}
			rows = append(rows, LookalikeRow{
				Platform: p.Name(),
				Audience: string(target.Kind),
				Class:    c.String(),
				RepRatio: m.RepRatio,
				Size:     m.TotalReach,
			})
		}
	}
	return rows, nil
}

// skewedCustomerList simulates a CRM whose customers skew toward the class:
// members of the class are heavily over-represented among the sampled
// users, as they would be for a product the paper's skewed attributes
// describe.
func skewedCustomerList(p *platform.Interface, c core.Class, n int, seed uint64) ([]pii.HashedRecord, error) {
	uni := p.Universe()
	var classSet *audience.Set
	if c.IsAge {
		classSet = uni.AgeSet(c.Age)
	} else {
		classSet = uni.GenderSet(c.Gender)
	}
	dir := p.Directory()
	rng := xrand.New(xrand.Mix(seed, xrand.HashString(p.Name()), 0xC4))
	var recs []pii.Record
	for len(recs) < n {
		i := rng.Intn(uni.Size())
		// 90 % of the list comes from the class, 10 % from everyone else.
		if classSet.Contains(i) != (rng.Float64() < 0.9) {
			continue
		}
		recs = append(recs, dir.RecordOf(i))
	}
	return pii.HashAll(recs), nil
}

// MitigationRow is one platform's detector-evaluation result (paper §5's
// proposed outcome-based anomaly detection).
type MitigationRow struct {
	Platform string
	Class    string
	AUC      float64
	TPR      float64
	// FalsePositives counts flagged honest advertisers.
	FalsePositives   int
	HonestMeanScore  float64
	DiscrimMeanScore float64
	// GateBlockRate is the fraction of greedily discovered skewed
	// compositions the outcome-based composition gate rejects pre-flight;
	// GateCollateral is the fraction of random honest compositions it also
	// blocks (nonzero because honest compositions are often inadvertently
	// skewed — §4.3).
	GateBlockRate  float64
	GateCollateral float64
}

// MitigationStudy evaluates outcome-based advertiser flagging on every
// platform: honest advertisers run individual options and random
// compositions, discriminatory ones consistently run greedily discovered
// skewed compositions toward the class.
func (r *Runner) MitigationStudy(c core.Class, cfg mitigation.EvalConfig) ([]MitigationRow, error) {
	defer r.track("mitigation")()
	var rows []MitigationRow
	for _, name := range r.order {
		a, err := r.Auditor(name)
		if err != nil {
			return nil, err
		}
		evalCfg := cfg
		if evalCfg.Seed == 0 {
			evalCfg.Seed = r.cfg.Seed
		}
		rep, err := mitigation.Evaluate(a, c, evalCfg)
		if err != nil {
			return nil, fmt.Errorf("mitigation study on %s: %w", name, err)
		}
		gateRep, err := mitigation.EvaluateGate(a, c, evalCfg.PoolK, evalCfg.Seed+7)
		if err != nil {
			return nil, fmt.Errorf("gate evaluation on %s: %w", name, err)
		}
		rows = append(rows, MitigationRow{
			Platform:         name,
			Class:            c.String(),
			AUC:              rep.AUC,
			TPR:              rep.TPR(),
			FalsePositives:   rep.FalsePositives,
			HonestMeanScore:  rep.HonestMeanScore,
			DiscrimMeanScore: rep.DiscrimMeanScore,
			GateBlockRate:    gateRep.BlockRate(),
			GateCollateral:   gateRep.CollateralRate(),
		})
	}
	return rows, nil
}

// RenderLookalikeRows writes the lookalike-propagation study.
func RenderLookalikeRows(w io.Writer, rows []LookalikeRow) error {
	if _, err := fmt.Fprintln(w, "# Extension: skew propagation through lookalike / special-ad audiences"); err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "platform\taudience\tclass\trep_ratio\tsize")
	for _, r := range rows {
		ratio := fmt.Sprintf("%.2f", r.RepRatio)
		if math.IsInf(r.RepRatio, 0) {
			ratio = "inf"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", r.Platform, r.Audience, r.Class, ratio, humanCount(r.Size))
	}
	return tw.Flush()
}

// RenderMitigationRows writes the §5 detector evaluation.
func RenderMitigationRows(w io.Writer, rows []MitigationRow) error {
	if _, err := fmt.Fprintln(w, "# Extension (§5): outcome-based anomaly detection of skew-targeting advertisers"); err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "platform\tclass\tAUC\tTPR\tfalse_positives\thonest_mean\tdiscrim_mean\tgate_block\tgate_collateral")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.2f\t%d\t%.3f\t%.3f\t%.0f%%\t%.0f%%\n",
			r.Platform, r.Class, r.AUC, r.TPR, r.FalsePositives,
			r.HonestMeanScore, r.DiscrimMeanScore,
			r.GateBlockRate*100, r.GateCollateral*100)
	}
	return tw.Flush()
}
