// Package mitigation implements the defense the paper proposes in its
// concluding discussion (§5): because removing skewed individual targeting
// options cannot fix composition, "ad platforms could potentially use
// anomaly detection based on the outcome of ad targeting to detect
// advertisers who consistently target skewed audiences. Any flagged
// advertisers could then be subject to further review."
//
// The Detector therefore scores the *outcome* of each campaign — the
// representation ratios of the audience the advertiser actually composed,
// measured with the same Equation-1 machinery the audit uses — never the
// targeting spec itself. An advertiser accumulates excess-skew evidence
// across campaigns and is flagged once the evidence is consistent, exactly
// the "consistently target skewed audiences" trigger the paper sketches.
package mitigation

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// DetectorConfig tunes the outcome-based detector.
type DetectorConfig struct {
	// RatioHigh is the over-representation threshold; skew is measured as
	// log-ratio excess beyond it. Zero selects the four-fifths bound 1.25.
	RatioHigh float64
	// MinCampaigns is the evidence floor before an advertiser can be
	// flagged ("consistently" needs repetition). Zero selects 3.
	MinCampaigns int
	// FlagScore is the mean excess-skew score at which an advertiser is
	// flagged. Zero selects 0.5 (≈ a consistent ratio of 1.25·e^0.5 ≈ 2.1).
	FlagScore float64
}

// withDefaults fills zero fields.
func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.RatioHigh == 0 {
		c.RatioHigh = 1.25
	}
	if c.MinCampaigns == 0 {
		c.MinCampaigns = 3
	}
	if c.FlagScore == 0 {
		c.FlagScore = 0.5
	}
	return c
}

// CampaignOutcome is the audited outcome of one campaign: the audience's
// representation ratios toward each monitored sensitive class.
type CampaignOutcome struct {
	// Advertiser identifies the account.
	Advertiser string
	// Ratios maps class name → representation ratio of the composed
	// audience (Equation 1). Infinite ratios are admissible: a one-sided
	// audience is maximal evidence.
	Ratios map[string]float64
}

// advertiserState accumulates evidence.
type advertiserState struct {
	campaigns int
	totalSkew float64
}

// Detector is the streaming outcome monitor.
type Detector struct {
	cfg DetectorConfig

	mu    sync.Mutex
	state map[string]*advertiserState
}

// NewDetector returns a detector with the given config.
func NewDetector(cfg DetectorConfig) *Detector {
	return &Detector{cfg: cfg.withDefaults(), state: make(map[string]*advertiserState)}
}

// ErrNoRatios marks an outcome carrying no measurable ratios.
var ErrNoRatios = errors.New("mitigation: campaign outcome has no ratios")

// campaignSkew converts one campaign's ratios into an excess-skew score:
// the worst class's |log ratio| beyond the threshold band. A campaign
// within the four-fifths band for every class scores zero.
func (d *Detector) campaignSkew(ratios map[string]float64) (float64, error) {
	if len(ratios) == 0 {
		return 0, ErrNoRatios
	}
	bound := math.Log(d.cfg.RatioHigh)
	worst := 0.0
	for _, r := range ratios {
		var mag float64
		switch {
		case math.IsInf(r, 0):
			// One side of the audience rounded to zero: cap the evidence
			// rather than poisoning the mean with an infinity.
			mag = 4 * bound
		case r <= 0:
			continue
		default:
			mag = math.Abs(math.Log(r))
		}
		if excess := mag - bound; excess > worst {
			worst = excess
		}
	}
	return worst, nil
}

// Observe ingests one campaign outcome.
func (d *Detector) Observe(o CampaignOutcome) error {
	if o.Advertiser == "" {
		return errors.New("mitigation: empty advertiser id")
	}
	skew, err := d.campaignSkew(o.Ratios)
	if err != nil {
		return fmt.Errorf("advertiser %s: %w", o.Advertiser, err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.state[o.Advertiser]
	if !ok {
		st = &advertiserState{}
		d.state[o.Advertiser] = st
	}
	st.campaigns++
	st.totalSkew += skew
	return nil
}

// Score returns an advertiser's mean excess skew across observed campaigns
// (0 for unknown advertisers).
func (d *Detector) Score(advertiser string) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.state[advertiser]
	if !ok || st.campaigns == 0 {
		return 0
	}
	return st.totalSkew / float64(st.campaigns)
}

// Flagged returns the advertisers whose mean excess skew exceeds the flag
// score with at least MinCampaigns of evidence, sorted by descending score.
func (d *Detector) Flagged() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	type scored struct {
		adv   string
		score float64
	}
	var out []scored
	for adv, st := range d.state {
		if st.campaigns < d.cfg.MinCampaigns {
			continue
		}
		if s := st.totalSkew / float64(st.campaigns); s > d.cfg.FlagScore {
			out = append(out, scored{adv, s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		return out[i].adv < out[j].adv
	})
	names := make([]string, len(out))
	for i, s := range out {
		names[i] = s.adv
	}
	return names
}

// scoresWithEvidence snapshots the scores of advertisers meeting the
// evidence floor.
func (d *Detector) scoresWithEvidence() map[string]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]float64)
	for adv, st := range d.state {
		if st.campaigns >= d.cfg.MinCampaigns {
			out[adv] = st.totalSkew / float64(st.campaigns)
		}
	}
	return out
}

// median returns the median of xs (xs is consumed).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// FlaggedAdaptive flags advertisers whose score is anomalous *relative to
// the advertiser population*: above median + k·MAD of all sufficiently
// observed advertisers. A fixed threshold cannot work across platforms
// because on some interfaces even honest targetings skew (the paper's §4.3
// point about inadvertent discrimination); what identifies an abuser is
// being an outlier against the platform's own baseline. Results are sorted
// by descending score.
func (d *Detector) FlaggedAdaptive(k float64) []string {
	scores := d.scoresWithEvidence()
	if len(scores) == 0 {
		return nil
	}
	all := make([]float64, 0, len(scores))
	for _, s := range scores {
		all = append(all, s)
	}
	med := median(append([]float64(nil), all...))
	dev := make([]float64, 0, len(all))
	for _, s := range all {
		dev = append(dev, math.Abs(s-med))
	}
	mad := median(dev)
	// Guard degenerate distributions (everyone identical): fall back to a
	// small absolute margin.
	spread := 1.4826 * mad // normal-consistent MAD scaling
	if spread < 0.05 {
		spread = 0.05
	}
	threshold := med + k*spread
	type scored struct {
		adv   string
		score float64
	}
	var out []scored
	for adv, s := range scores {
		if s > threshold {
			out = append(out, scored{adv, s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		return out[i].adv < out[j].adv
	})
	names := make([]string, len(out))
	for i, s := range out {
		names[i] = s.adv
	}
	return names
}

// AUC computes the area under the ROC curve for separating positives from
// negatives by score (ties split evenly). It is the probability a random
// positive outscores a random negative — the headline quality metric of the
// detector evaluation.
func AUC(positives, negatives []float64) (float64, error) {
	if len(positives) == 0 || len(negatives) == 0 {
		return 0, errors.New("mitigation: AUC needs both positives and negatives")
	}
	wins := 0.0
	for _, p := range positives {
		for _, n := range negatives {
			switch {
			case p > n:
				wins++
			case p == n:
				wins += 0.5
			}
		}
	}
	return wins / float64(len(positives)*len(negatives)), nil
}
