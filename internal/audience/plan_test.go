package audience

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// testClause is one OR group of a test request: the union of its sets,
// intersected into the running audience (subtracted when negate is set).
type testClause struct {
	or     []*Set
	negate bool
}

// naiveCount evaluates an and-of-ors request with the plain Set operations
// — the reference every compiled plan must match bit for bit.
func naiveCount(req []testClause) int { return naiveSet(req).Count() }

// naiveSet is the set naiveCount counts.
func naiveSet(req []testClause) *Set {
	var acc *Set
	for _, cl := range req {
		s := UnionAll(cl.or...)
		switch {
		case acc == nil:
			acc = s
		case cl.negate:
			acc.AndNotWith(s)
		default:
			acc.AndWith(s)
		}
	}
	return acc
}

// one is a request ANDing single-set clauses.
func one(sets ...*Set) []testClause {
	req := make([]testClause, len(sets))
	for i, s := range sets {
		req[i] = testClause{or: []*Set{s}}
	}
	return req
}

// anyOf is one OR-group clause.
func anyOf(sets ...*Set) testClause { return testClause{or: sets} }

// planner lowers test requests the way the platform compiles specs: a
// single-set clause passes its set through, and an OR group resolves to one
// materialized union shared by every clause over the same member set (in
// any order). withC lowers every operand compressed-only instead, as a
// compressed catalog does, one CSet per distinct set so shared operands
// keep one identity.
type planner struct {
	withC  bool
	unions map[string]*Set
	csets  map[*Set]*CSet
}

// countMany counts a batch the way the platform's batch door does: every
// request compiled through one planner, so OR groups share union operands,
// and the plans executed as one schedule.
func countMany(withC bool, reqs [][]testClause) []int {
	pl := &planner{withC: withC}
	plans := make([]*Plan, len(reqs))
	for i, req := range reqs {
		plans[i] = pl.plan(req)
	}
	return ExecPlans(plans)
}

// operand is s in the planner's form: dense, or its one compressed set.
func (pl *planner) operand(s *Set) Operand {
	if !pl.withC {
		return Operand{Set: s}
	}
	if pl.csets == nil {
		pl.csets = make(map[*Set]*CSet)
	}
	c := pl.csets[s]
	if c == nil {
		c = FromSet(s)
		pl.csets[s] = c
	}
	return Operand{C: c}
}

func (pl *planner) plan(req []testClause) *Plan {
	pcs := make([]PlanClause, len(req))
	for i, cl := range req {
		s := cl.or[0]
		if len(cl.or) > 1 {
			ids := make([]uint64, len(cl.or))
			for k, m := range cl.or {
				ids[k] = m.ID()
			}
			slices.Sort(ids)
			key := fmt.Sprint(ids)
			if pl.unions == nil {
				pl.unions = make(map[string]*Set)
			}
			if s = pl.unions[key]; s == nil {
				s = UnionAll(cl.or...)
				pl.unions[key] = s
			}
		}
		pcs[i] = PlanClause{Op: pl.operand(s), Negate: cl.negate}
	}
	return CompilePlan(req[0].or[0].Len(), pcs)
}

// matchBattery is the and-of-ors battery over six sets that both the
// per-plan and the batched evaluation must count like the naive evaluator.
func matchBattery(sets []*Set) [][]testClause {
	neg := func(sets ...*Set) testClause { return testClause{or: sets, negate: true} }
	return [][]testClause{
		// Single set; pure ANDs of 2, 3, and 4 sets (the unrolled paths).
		one(sets[0]),
		one(sets[0], sets[1]),
		one(sets[0], sets[1], sets[2]),
		one(sets[0], sets[1], sets[2], sets[3]),
		// AND with exclusions.
		{anyOf(sets[0]), anyOf(sets[1]), neg(sets[4])},
		{anyOf(sets[0]), neg(sets[4]), neg(sets[5])},
		// OR groups, lowered to union operands.
		{anyOf(sets[0:2]...), anyOf(sets[2:4]...)},
		{anyOf(sets[0:3]...), neg(sets[3:5]...)},
		{anyOf(sets[0:2]...), anyOf(sets[2]), neg(sets[3:6]...)},
	}
}

// batterySets draws matchBattery's six sets over n users.
func batterySets(n int) []*Set {
	sets := make([]*Set, 6)
	for i := range sets {
		sets[i] = randomSet(uint64(100+i), n, 0.1+0.15*float64(i))
	}
	return sets
}

// TestPlanMatchesNaive: each compiled plan, counted alone, over dense and
// over compressed-only operands, equals the naive evaluator.
func TestPlanMatchesNaive(t *testing.T) {
	for _, n := range batchSizes {
		if n == 0 {
			continue
		}
		for _, withC := range []bool{false, true} {
			pl := &planner{withC: withC}
			for i, req := range matchBattery(batterySets(n)) {
				if got, want := pl.plan(req).Count(), naiveCount(req); got != want {
					t.Errorf("n=%d withC=%v req=%d: Plan.Count = %d, want %d", n, withC, i, got, want)
				}
			}
		}
	}
}

// TestPlanCompressedDispatch pins the plans a compressed catalog sends
// with a sparse option as the base: a compressed-only base intersected with
// a dense demographic and with a dense exclusion subtracted, as a sparse or
// a clustered set. Each runs on a register schedule (64-word tiles), as
// does a pair of compressed-only operands, while an all-dense plan keeps
// 512-word tiles; every plan counts like the naive evaluator over the
// whole universe and over unaligned windows.
func TestPlanCompressedDispatch(t *testing.T) {
	n := 3*chunkSize + 777
	sparse := randomSet(61, n, 0.002)
	clustered := NewFromFunc(n, func(i int) bool { return (i>>chunkBits) == 1 && (i/300)%30 == 0 })
	scope := randomSet(62, n, 0.5)
	excl := randomSet(63, n, 0.3)
	windows := []Window{{5, chunkSize + 3}, {chunkSize + 1000, 2*chunkSize - 1}, {2*chunkSize + 70, n - 9}}
	neg := testClause{or: []*Set{excl}, negate: true}
	for name, tc := range map[string]struct {
		clauses []PlanClause
		req     []testClause
		tile    int
	}{
		"sparse": {[]PlanClause{
			{Op: Operand{C: FromSet(sparse)}},
			{Op: Operand{Set: scope}},
			{Op: Operand{Set: excl}, Negate: true},
		}, []testClause{anyOf(sparse), anyOf(scope), neg}, regWords},
		"clustered": {[]PlanClause{
			{Op: Operand{C: FromSet(clustered)}},
			{Op: Operand{Set: scope}},
			{Op: Operand{Set: excl}, Negate: true},
		}, []testClause{anyOf(clustered), anyOf(scope), neg}, regWords},
		"compressed-only": {[]PlanClause{
			{Op: Operand{C: FromSet(sparse)}},
			{Op: Operand{C: FromSet(scope)}},
		}, one(sparse, scope), regWords},
		"dense": {[]PlanClause{
			{Op: Operand{Set: scope}},
			{Op: Operand{Set: excl}},
		}, one(scope, excl), blockWords},
	} {
		p := CompilePlan(n, tc.clauses)
		pb := CompileBatch([]*Plan{p})
		if pb.tile != tc.tile {
			t.Fatalf("%s: %d-word tiles, want %d", name, pb.tile, tc.tile)
		}
		all := naiveSet(tc.req)
		if got, want := p.Count(), all.Count(); got != want {
			t.Fatalf("%s: Count = %d, want %d", name, got, want)
		}
		want := 0
		for _, w := range windows {
			want += all.CountRange(w.Lo, w.Hi)
		}
		if got, _ := pb.Exec(windows); got[0] != want {
			t.Fatalf("%s: windowed Exec = %d, want %d", name, got[0], want)
		}
	}
}

// TestPlanBatteryShape pins the batch analysis on reach queries and their
// class-conditioned refinements, as the auditor's two batches send them:
// every plan is a root reading its own operands in clause order, each
// distinct operand is one source however many plans read it, a plan
// repeated in two slots counts in both, and every count equals independent
// evaluation.
func TestPlanBatteryShape(t *testing.T) {
	n := blockWords*64*2 + 17
	scope := randomSet(71, n, 0.6)
	age := randomSet(72, n, 0.4)
	gender := randomSet(73, n, 0.5)
	pl := &planner{}
	var plans []*Plan
	var reqs [][]testClause
	for a := 0; a < 9; a++ {
		attr := randomSet(uint64(80+a), n, 0.1)
		reach := one(attr, scope, age)
		cond := one(attr, scope, age, gender)
		plans = append(plans, pl.plan(reach), pl.plan(cond))
		reqs = append(reqs, reach, cond)
	}
	// Duplicate pointer: the same compiled plan in two slots.
	plans = append(plans, plans[0])
	reqs = append(reqs, reqs[0])

	pb := CompileBatch(plans)
	// Nine attributes, the scope, the age and the gender set.
	if len(pb.ops) != 12 || len(pb.roots) != len(plans) {
		t.Fatalf("%d sources and %d roots, want 12 and %d", len(pb.ops), len(pb.roots), len(plans))
	}
	for i, p := range plans {
		lr := &pb.roots[i]
		srcs := append([]int{lr.base}, lr.and...)
		if len(srcs) != len(p.ands) || len(lr.not) != 0 {
			t.Fatalf("root %d reads %d+%d sources, want %d", i, len(srcs), len(lr.not), len(p.ands))
		}
		for k, src := range srcs {
			if pb.ops[src].Set != p.ands[k].Set {
				t.Fatalf("root %d source %d is not clause %d's operand", i, src, k)
			}
		}
	}
	got, _ := pb.Exec(nil)
	for i, req := range reqs {
		if want := naiveCount(req); got[i] != want {
			t.Errorf("slot %d: Exec = %d, want %d", i, got[i], want)
		}
	}
	// Re-execution of the cached schedule must be stable.
	again, _ := pb.Exec(nil)
	for i, v := range again {
		if v != got[i] {
			t.Fatalf("slot %d: re-Exec = %d, want %d", i, v, got[i])
		}
	}
}

// TestPlanRandomBatches drives random spec shapes — mixed unions,
// negations, duplicate plans, and dense and compressed-only operands —
// through CompileBatch, checking every slot against the naive evaluator.
func TestPlanRandomBatches(t *testing.T) {
	for trial := uint64(0); trial < 40; trial++ {
		rng := xrand.New(xrand.Mix(99, trial))
		n := rng.Intn(3*blockWords*64) + 1
		pool := make([]*Set, 6)
		cpool := make([]*CSet, 6)
		for i := range pool {
			p := 0.2 * float64(i%4)
			if i%3 == 0 {
				p = 0.003 // sparse bases, under one member per word
			}
			pool[i] = randomSet(trial*20+uint64(i), n, p)
			cpool[i] = FromSet(pool[i])
		}
		batch := rng.Intn(9) + 1
		reqs := make([][]testClause, batch)
		plans := make([]*Plan, batch)
		for ri := range reqs {
			if ri > 0 && rng.Intn(5) == 0 {
				reqs[ri] = reqs[ri-1]
				plans[ri] = plans[ri-1] // the same plan in two slots
				continue
			}
			clauses := rng.Intn(3) + 1
			var pcs []PlanClause
			for ci := 0; ci < clauses; ci++ {
				cl := testClause{negate: ci > 0 && rng.Intn(3) == 0}
				pc := PlanClause{Negate: cl.negate}
				allC := true
				for k := rng.Intn(2) + 1; k > 0; k-- {
					si := rng.Intn(len(pool))
					cl.or = append(cl.or, pool[si])
					pc.Op = Operand{Set: pool[si]}
					if rng.Intn(2) == 0 {
						pc.Op = Operand{C: cpool[si]}
					} else {
						allC = false
					}
				}
				if len(cl.or) > 1 {
					// A union operand is compressed only when every member is.
					pc.Op = Operand{Set: UnionAll(cl.or...)}
					if allC {
						pc.Op = Operand{C: FromSet(pc.Op.Set)}
					}
				}
				reqs[ri] = append(reqs[ri], cl)
				pcs = append(pcs, pc)
			}
			plans[ri] = CompilePlan(n, pcs)
		}
		got := ExecPlans(plans)
		for i, req := range reqs {
			if want := naiveCount(req); got[i] != want {
				t.Fatalf("trial=%d n=%d slot=%d: ExecPlans = %d, want %d", trial, n, i, got[i], want)
			}
		}
	}
}

// TestPlanBatchConcurrentExec hammers cached schedules from many
// goroutines — a dense one, and one reading compressed-only operands
// through registers over windows — while they share the execution pool and
// the zero tile: Exec acquires its scratch per call, so concurrent runs
// must all return the same counts.
func TestPlanBatchConcurrentExec(t *testing.T) {
	n := blockWords*64 + 333
	a := randomSet(91, n, 0.3)
	b := randomSet(92, n, 0.5)
	c := randomSet(93, n, 0.4)
	d := randomSet(94, n, 0.2)
	pl := &planner{}
	dense := CompileBatch([]*Plan{pl.plan(one(a, b, c)), pl.plan(one(a, b, c, d)), pl.plan(one(d, b, c)), pl.plan(one(d, b, c, a))})
	ca, cd := Operand{C: FromSet(a)}, Operand{C: FromSet(NewFromFunc(n, func(i int) bool { return i > n/2 && d.Contains(i) }))}
	reg := CompileBatch([]*Plan{
		CompilePlan(n, []PlanClause{{Op: ca}, {Op: Operand{Set: b}}, {Op: Operand{Set: c}}}),
		CompilePlan(n, []PlanClause{{Op: ca}, {Op: Operand{Set: b}}, {Op: Operand{Set: c}}, {Op: cd}}),
		CompilePlan(n, []PlanClause{{Op: cd}, {Op: ca, Negate: true}}),
	})
	windows := []Window{{5, n / 3}, {n / 2, n - 70}}
	var wg sync.WaitGroup
	for _, pb := range []*PlanBatch{dense, reg} {
		want, _ := pb.Exec(windows)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for iter := 0; iter < 50; iter++ {
					got, _ := pb.Exec(windows)
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("slot %d: concurrent Exec = %d, want %d", i, got[i], want[i])
							return
						}
					}
				}
			}()
		}
	}
	wg.Wait()
}

func TestPlanPanics(t *testing.T) {
	s := randomSet(1, 100, 0.5)
	other := randomSet(2, 200, 0.5)
	for name, fn := range map[string]func(){
		"no clauses":    func() { CompilePlan(100, nil) },
		"negated first": func() { CompilePlan(100, []PlanClause{{Op: Operand{Set: s}, Negate: true}}) },
		"empty clause":  func() { CompilePlan(100, []PlanClause{{Op: Operand{Set: s}}, {}}) },
		"no set":        func() { CompilePlan(100, []PlanClause{{Op: Operand{}}}) },
		"both forms":    func() { CompilePlan(100, []PlanClause{{Op: Operand{Set: s, C: FromSet(s)}}}) },
		"wrong n":       func() { CompilePlan(100, []PlanClause{{Op: Operand{Set: other}}}) },
		"wrong n C":     func() { CompilePlan(100, []PlanClause{{Op: Operand{C: FromSet(other)}}}) },
		"batch mixed": func() {
			CompileBatch([]*Plan{
				CompilePlan(100, []PlanClause{{Op: Operand{Set: s}}}),
				CompilePlan(200, []PlanClause{{Op: Operand{Set: other}}}),
			})
		},
		"batch nil": func() { CompileBatch([]*Plan{nil}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPlanEmptyBatch(t *testing.T) {
	if got := ExecPlans(nil); len(got) != 0 {
		t.Fatalf("ExecPlans(nil) = %v, want empty", got)
	}
}
