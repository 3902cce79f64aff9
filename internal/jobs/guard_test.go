package jobs

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/targeting"
)

var errOddOption = errors.New("odd option")

// countingProvider is a raw provider that counts the batches and specs
// reaching it. Odd attribute IDs fail, so a batch can mix answered and
// failed slots.
type countingProvider struct {
	batches, specs atomic.Int64
}

func (p *countingProvider) Name() string             { return "counting" }
func (p *countingProvider) AttributeNames() []string { return []string{"a", "b", "c", "d"} }
func (p *countingProvider) TopicNames() []string     { return nil }
func (p *countingProvider) CrossFeature() bool       { return false }

func (p *countingProvider) Measure(spec targeting.Spec) (int64, error) {
	p.specs.Add(1)
	if targeting.Refs(spec)[0].ID%2 == 1 {
		return 0, errOddOption
	}
	return 1000, nil
}

func (p *countingProvider) MeasureMany(specs []targeting.Spec) []core.BatchResult {
	p.batches.Add(1)
	out := make([]core.BatchResult, len(specs))
	for i, s := range specs {
		out[i].Size, out[i].Err = p.Measure(s)
	}
	return out
}

// TestGuardBatchChargesTenant pins the guard's batch door: a batch over
// the tenant budget fails every slot without reaching the raw provider, and
// a batch within it charges one query per answered slot. A guard that let
// the embedded provider's MeasureMany through would fail both halves.
func TestGuardBatchChargesTenant(t *testing.T) {
	specs := []targeting.Spec{targeting.Attr(0), targeting.Attr(1), targeting.Attr(2), targeting.Attr(3)}

	raw := &countingProvider{}
	ts := &tenantState{name: "a"}
	ts.budget.Store(3)
	var queries atomic.Int64
	g := guard(context.Background(), ts, &queries, raw)
	for i, r := range g.MeasureMany(specs) {
		if !errors.Is(r.Err, ErrTenantBudget) || r.Size != 0 {
			t.Errorf("over budget: slot %d = (%d, %v), want ErrTenantBudget", i, r.Size, r.Err)
		}
	}
	if raw.batches.Load() != 0 || raw.specs.Load() != 0 {
		t.Errorf("over budget: raw provider saw %d batches, %d specs; want none", raw.batches.Load(), raw.specs.Load())
	}
	if ts.used.Load() != 0 || queries.Load() != 0 {
		t.Errorf("over budget: charged %d, counted %d queries; want 0 and 0", ts.used.Load(), queries.Load())
	}

	ts.budget.Store(10)
	res := g.MeasureMany(specs)
	for i, r := range res {
		if i%2 == 1 {
			if !errors.Is(r.Err, errOddOption) {
				t.Errorf("within budget: slot %d err = %v, want the raw provider's error", i, r.Err)
			}
		} else if r.Err != nil || r.Size != 1000 {
			t.Errorf("within budget: slot %d = (%d, %v), want (1000, nil)", i, r.Size, r.Err)
		}
	}
	if raw.batches.Load() != 1 || raw.specs.Load() != 4 {
		t.Errorf("within budget: raw provider saw %d batches, %d specs; want 1 and 4", raw.batches.Load(), raw.specs.Load())
	}
	// Four specs charged, the two failed slots refunded.
	if ts.used.Load() != 2 || queries.Load() != 2 {
		t.Errorf("within budget: charged %d, counted %d queries; want 2 and 2", ts.used.Load(), queries.Load())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range guard(ctx, ts, &queries, raw).MeasureMany(specs) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("cancelled: slot %d err = %v, want context.Canceled", i, r.Err)
		}
	}
	if raw.batches.Load() != 1 || ts.used.Load() != 2 {
		t.Errorf("cancelled batch reached the provider or charged the tenant")
	}

	// The serial door is a one-slot batch: over budget it fails without
	// reaching the raw provider, and a failed slot is refunded.
	ts.budget.Store(2)
	if _, err := g.Measure(specs[0]); !errors.Is(err, ErrTenantBudget) {
		t.Errorf("one slot over budget: err = %v, want ErrTenantBudget", err)
	}
	if raw.batches.Load() != 1 || ts.used.Load() != 2 {
		t.Errorf("one slot over budget reached the provider or charged the tenant")
	}
	ts.budget.Store(10)
	if _, err := g.Measure(specs[1]); !errors.Is(err, errOddOption) {
		t.Errorf("one failed slot: err = %v, want the raw provider's error", err)
	}
	if size, err := g.Measure(specs[2]); err != nil || size != 1000 {
		t.Errorf("one answered slot = (%d, %v), want (1000, nil)", size, err)
	}
	if raw.batches.Load() != 3 || ts.used.Load() != 3 || queries.Load() != 3 {
		t.Errorf("one-slot calls: %d batches, charged %d, counted %d; want 3, 3 and 3",
			raw.batches.Load(), ts.used.Load(), queries.Load())
	}
}
