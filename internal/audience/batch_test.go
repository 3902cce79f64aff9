package audience

import (
	"testing"

	"repro/internal/xrand"
)

// batchSizes covers empty, sub-word, word-boundary, sub-block, exact-block,
// and multi-block universes (blockWords words = blockWords*64 users).
var batchSizes = []int{0, 1, 63, 64, 65, 1000, blockWords * 64, blockWords*64 + 1, blockWords*64*2 + 17}

// TestCountManyMatchesNaive: the battery batched into one schedule, with
// and without compressed operands, counts like the naive evaluator.
func TestCountManyMatchesNaive(t *testing.T) {
	for _, n := range batchSizes {
		if n == 0 {
			continue
		}
		reqs := matchBattery(batterySets(n))
		for _, withC := range []bool{false, true} {
			got := countMany(withC, reqs)
			for i, req := range reqs {
				if want := naiveCount(req); got[i] != want {
					t.Errorf("n=%d withC=%v req=%d: countMany = %d, want %d", n, withC, i, got[i], want)
				}
			}
		}
	}
}

// TestCountManyRandomBatches drives many random batch shapes — OR widths,
// negations, repeated sets — through the schedule's block loop.
func TestCountManyRandomBatches(t *testing.T) {
	for trial := uint64(0); trial < 40; trial++ {
		rng := xrand.New(xrand.Mix(42, trial))
		n := rng.Intn(3*blockWords*64) + 1
		pool := make([]*Set, 5)
		for i := range pool {
			pool[i] = randomSet(trial*10+uint64(i), n, 0.05+0.2*float64(i%4))
		}
		reqs := make([][]testClause, rng.Intn(7)+1)
		for ri := range reqs {
			for ci := rng.Intn(3) + 1; ci > 0; ci-- {
				cl := testClause{negate: len(reqs[ri]) > 0 && rng.Intn(3) == 0}
				for k := rng.Intn(2) + 1; k > 0; k-- {
					cl.or = append(cl.or, pool[rng.Intn(len(pool))])
				}
				reqs[ri] = append(reqs[ri], cl)
			}
		}
		got := countMany(trial%2 == 1, reqs)
		for i, req := range reqs {
			if want := naiveCount(req); got[i] != want {
				t.Fatalf("trial=%d n=%d req=%d: countMany = %d, want %d", trial, n, i, got[i], want)
			}
		}
	}
}

// TestCountManyChains counts batches of requests that refine one another —
// reach/conditioned pairs, fan-outs, a duplicate, a multiset refinement and
// a negation — each of which runs as its own root and must count exactly
// like independent evaluation.
func TestCountManyChains(t *testing.T) {
	for _, n := range batchSizes {
		if n == 0 {
			continue
		}
		a := randomSet(11, n, 0.4)
		b := randomSet(12, n, 0.3)
		c := randomSet(13, n, 0.5)
		d := randomSet(14, n, 0.2)
		reqs := [][]testClause{
			one(a, b),       // reach request …
			one(a, b, c),    // … with its conditioned refinement
			one(a, b, d),    // second refinement: fan-out
			one(a),          // bare base
			one(a, b),       // duplicate request
			one(a, b, b),    // multiset refinement
			one(b, a),       // different base set
			one(c, a, b),    // three-set request …
			one(c, a, b, d), // … refined by one set
			one(d, a),       // request whose refinement …
			one(d, a, b, c), // … adds two sets
			{anyOf(a), {or: []*Set{b}, negate: true}}, // negation
		}
		pl := &planner{}
		plans := make([]*Plan, len(reqs))
		for i, req := range reqs {
			plans[i] = pl.plan(req)
		}
		got, _ := CompileBatch(plans).Exec(nil)
		for i, req := range reqs {
			if want := naiveCount(req); got[i] != want {
				t.Errorf("n=%d req=%d: Exec = %d, want %d", n, i, got[i], want)
			}
		}
	}
}

// TestCountManyUnions pins OR clauses lowered to shared union operands, as
// the platform's per-call union memo hands them to the compiler: a clause
// repeated across requests (in any member order) is one operand, which
// composes with negation and refinement — all bit-identical to independent
// evaluation.
func TestCountManyUnions(t *testing.T) {
	for _, n := range batchSizes {
		if n == 0 {
			continue
		}
		pool := make([]*Set, 4)
		for i := range pool {
			pool[i] = randomSet(uint64(300+i), n, 0.1+0.08*float64(i))
		}
		a, b, c, d := pool[0], pool[1], pool[2], pool[3]
		reqs := [][]testClause{
			// The same union as base, as conjunct, in swapped member order,
			// negated, and refined (reqs[3] extends reqs[1] by d).
			{anyOf(b, c), anyOf(a)},
			{anyOf(a), anyOf(b, c)},
			{anyOf(a), anyOf(c, b)},
			{anyOf(a), anyOf(d), anyOf(b, c)},
			{anyOf(d), anyOf(b, c, a)},
			{anyOf(d), {or: []*Set{b, c}, negate: true}},
		}
		for _, withC := range []bool{false, true} {
			pl := &planner{withC: withC}
			plans := make([]*Plan, len(reqs))
			for i, req := range reqs {
				plans[i] = pl.plan(req)
			}
			if len(pl.unions) != 2 {
				t.Fatalf("n=%d: %d distinct unions, want 2", n, len(pl.unions))
			}
			got := ExecPlans(plans)
			for i, req := range reqs {
				if want := naiveCount(req); got[i] != want {
					t.Errorf("n=%d withC=%v req=%d: ExecPlans = %d, want %d", n, withC, i, got[i], want)
				}
			}
		}
	}
}

// TestKernelBlocks pins the tile count Exec reports — the tile-grid cells
// each window touches: 512-word cells over dense operands, 64-word cells
// once an operand is compressed-only — and that both schedules count the
// window's users alone.
func TestKernelBlocks(t *testing.T) {
	n := blockWords*64*3 + 5
	s := randomSet(5, n, 0.3)
	dense := CompileBatch([]*Plan{CompilePlan(n, []PlanClause{{Op: Operand{Set: s}}})})
	reg := CompileBatch([]*Plan{CompilePlan(n, []PlanClause{{Op: Operand{C: FromSet(s)}}})})
	for _, tc := range []struct {
		windows    []Window
		dense, reg int
	}{
		{nil, 4, 25},
		{[]Window{{0, 0}}, 0, 0},
		{[]Window{{-5, 3}}, 1, 1},
		{[]Window{{1000, 1064}}, 1, 1},
		{[]Window{{0, blockWords * 64}}, 1, 8},
		{[]Window{{blockWords*64 - 1, blockWords*64 + 1}}, 2, 2},
		{[]Window{{0, 64}, {n - 70, n + 70}}, 3, 3},
	} {
		want := 0
		for _, w := range tc.windows {
			want += s.CountRange(w.Lo, w.Hi)
		}
		if tc.windows == nil {
			want = s.Count()
		}
		for _, c := range []struct {
			name  string
			pb    *PlanBatch
			tiles int
		}{{"dense", dense, tc.dense}, {"register", reg, tc.reg}} {
			counts, tiles := c.pb.Exec(tc.windows)
			if tiles != c.tiles || counts[0] != want {
				t.Errorf("%s %v: %d tiles counting %d, want %d tiles counting %d", c.name, tc.windows, tiles, counts[0], c.tiles, want)
			}
		}
	}
}

// naiveCountAndAll counts |base ∩ rest…| one word and one set at a time,
// popcounting bit by bit: the reference for the kernels' unrolled and
// hoisted loops.
func naiveCountAndAll(base *Set, rest ...*Set) int {
	c := 0
	for i, w := range base.words {
		for _, t := range rest {
			w &= t.words[i]
		}
		c += popcount(w)
	}
	return c
}

func popcount(w uint64) int {
	c := 0
	for ; w != 0; w &= w - 1 {
		c++
	}
	return c
}

// TestLonePlanMatchesNaive runs a lone compiled plan — the platform's
// serial door — over an AND of one to ten dense operands on every batch
// size, so each kernel arity (the unrolled loops for up to four operands
// and the generic word loop) meets empty, sub-word, word-edge and
// multi-block universes.
func TestLonePlanMatchesNaive(t *testing.T) {
	for _, n := range batchSizes {
		sets := make([]*Set, 10)
		for i := range sets {
			sets[i] = randomSet(uint64(200+i), n, 0.08*float64(i+1))
		}
		// Every arity from 0 extra sets through the generic word loop.
		for k := 0; k <= 9; k++ {
			clauses := make([]PlanClause, 1+k)
			for i := range clauses {
				clauses[i] = PlanClause{Op: Operand{Set: sets[i]}}
			}
			want := naiveCountAndAll(sets[0], sets[1:1+k]...)
			if got := CompilePlan(n, clauses).Count(); got != want {
				t.Errorf("n=%d k=%d: lone plan counts %d, want %d", n, k, got, want)
			}
		}
	}
}
