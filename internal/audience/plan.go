package audience

import (
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// This file implements the query compiler. A Plan is an and-of-ors
// request lowered once — OR groups already materialized into single
// operands, positive operands ordered sparsest-first, negations split out —
// into a flat program of kernel operands that a caller caches by the
// request's canonical key and executes any number of times. CompileBatch
// then performs the batch-level analysis — duplicate collapsing, chain
// fusion onto shared prefixes, common-tail extraction across plans — once
// per distinct batch shape, so a cached schedule's Exec runs only the tiled
// kernels (batch.go).
//
// Every rewrite the compiler performs is an AND reassociation or
// reordering, so executing a plan is bit-identical to evaluating the
// clauses with the Set operations (property- and fuzz-tested against the
// naive Set-algebra evaluator).

// Operand is one audience input of a plan: the dense set, plus optionally
// its compressed form. Set must be non-nil; C, when present, must hold
// exactly the same members (FromSet guarantees this) and enables the
// compressed execution path when the operand is the sparsest of its plan.
type Operand struct {
	Set *Set
	C   *CSet
}

// card returns the operand's membership count, O(1) when compressed.
func (o Operand) card() int {
	if o.C != nil {
		return o.C.Count()
	}
	return o.Set.Count()
}

// PlanClause is one clause of a compiled request: an operand intersected
// into the count, or subtracted from it when Negate is set. An OR group of
// targeting refs reaches the compiler as one operand, its materialized
// union (the platform keeps those in a shared cache).
type PlanClause struct {
	Op     Operand
	Negate bool
}

// Plan is one compiled count request: the size of the intersection of its
// positive operands minus its negated operands. Plans are immutable after
// compilation and safe for concurrent execution; callers cache them keyed
// by the request's canonical form.
type Plan struct {
	n    int
	ands []Operand // positive operands, sparsest-first; ands[0] is the base
	nots []Operand // negated operands (their union is subtracted)
	sig  []uint64  // sorted ids of the positive operands' sets
	// tailKey identifies the ands[1:] multiset for cross-plan common-tail
	// extraction; empty when the tail is shorter than two operands.
	tailKey string
	// compressed marks plans whose base operand is sparse enough that
	// walking its containers beats streaming the dense words.
	compressed bool
}

// CompilePlan lowers one request over a universe of n users. The first
// clause must be positive and every operand must carry a dense set over n
// users; violations panic. Positive operands are sorted sparsest-first so
// both the compressed walk and the dense kernels start from the most
// selective set.
func CompilePlan(n int, clauses []PlanClause) *Plan {
	if len(clauses) == 0 {
		panic("audience: CompilePlan without clauses")
	}
	if clauses[0].Negate {
		panic("audience: CompilePlan request must begin with a positive clause")
	}
	p := &Plan{n: n}
	for _, cl := range clauses {
		if cl.Op.Set == nil {
			panic("audience: CompilePlan operand without a dense set")
		}
		if cl.Op.Set.n != n {
			panic("audience: CompilePlan universe size mismatch")
		}
		if cl.Negate {
			p.nots = append(p.nots, cl.Op)
		} else {
			p.ands = append(p.ands, cl.Op)
		}
	}
	sort.SliceStable(p.ands, func(i, j int) bool { return p.ands[i].card() < p.ands[j].card() })
	p.sig = make([]uint64, len(p.ands))
	for i, o := range p.ands {
		p.sig[i] = o.Set.id
	}
	slices.Sort(p.sig)
	if len(p.ands) >= 3 {
		tail := make([]uint64, len(p.ands)-1)
		for i, o := range p.ands[1:] {
			tail[i] = o.Set.id
		}
		slices.Sort(tail)
		key := make([]byte, 0, 8*len(tail))
		for _, id := range tail {
			key = append(key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24),
				byte(id>>32), byte(id>>40), byte(id>>48), byte(id>>56))
		}
		p.tailKey = string(key)
	}
	// Compressed dispatch: walk the base's containers when its membership is
	// below one per 64 users (the word width) — past that, the dense kernels'
	// word-at-a-time popcounts win.
	base := p.ands[0]
	p.compressed = base.C != nil && base.C.Count() < (n+63)/64
	return p
}

// Len returns the plan's universe size.
func (p *Plan) Len() int { return p.n }

// Compressed reports whether the plan executes on the compressed path.
func (p *Plan) Compressed() bool { return p.compressed }

// Count executes the plan once, serially.
func (p *Plan) Count() int {
	lr := p.lower(nil)
	if p.compressed {
		return p.execCompressed(&lr)
	}
	return lr.countRange(0, len(p.ands[0].Set.words))
}

// lower builds the kernel view of a dense plan. If tail is non-nil it
// replaces ands[1:] — the caller has materialized their intersection into a
// shared register.
func (p *Plan) lower(tail *Set) loweredReq {
	lr := loweredReq{base: p.ands[0].Set.words}
	if tail != nil {
		lr.and = [][]uint64{tail.words}
	} else if len(p.ands) > 1 {
		lr.and = make([][]uint64, len(p.ands)-1)
		for i, o := range p.ands[1:] {
			lr.and[i] = o.Set.words
		}
	}
	if len(p.nots) > 0 {
		lr.not = make([][]uint64, len(p.nots))
		for i, o := range p.nots {
			lr.not[i] = o.Set.words
		}
	}
	return lr
}

// execCompressed counts the plan by walking the base operand's containers
// and probing the remaining operands' dense words (lr, the plan's kernel
// view), so chunks the sparse base never touches cost nothing. The count is
// the same formula as the dense path: members of every positive operand
// and of no negated one.
func (p *Plan) execCompressed(lr *loweredReq) int {
	c := p.ands[0].C
	total := 0
	for ci, key := range c.keys {
		cont := &c.conts[ci]
		base := int(key) << chunkBits
		switch cont.typ {
		case ctArray:
			for _, v := range cont.arr {
				if lr.probe(base + int(v)) {
					total++
				}
			}
		case ctRun:
			// Each run is a masked word range of the base; an inverted run
			// in a corrupt blob is an empty range.
			for _, r := range cont.runs {
				lo, hi := base+int(r.start), base+int(r.last)+1
				for wi := lo >> 6; lo < hi; wi++ {
					w := ^uint64(0) << uint(lo&63)
					if end := (wi + 1) << 6; hi < end {
						w &= ^uint64(0) >> uint(end-hi)
					}
					total += lr.passCount(wi, w)
					lo = (wi + 1) << 6
				}
			}
		case ctBitmap:
			for i, w := range cont.bits {
				total += lr.passCount(base>>6+i, w)
			}
		}
	}
	return total
}

// probe reports whether user idx passes every non-base operand.
func (lr *loweredReq) probe(idx int) bool {
	wi, mask := idx>>6, uint64(1)<<uint(idx&63)
	for _, s := range lr.and {
		if s[wi]&mask == 0 {
			return false
		}
	}
	for _, s := range lr.not {
		if s[wi]&mask != 0 {
			return false
		}
	}
	return true
}

// passCount counts the members w of base word wi that pass every non-base
// operand.
func (lr *loweredReq) passCount(wi int, w uint64) int {
	for _, s := range lr.and {
		w &= s[wi]
	}
	for _, s := range lr.not {
		w &^= s[wi]
	}
	return bits.OnesCount64(w)
}

// planNode is one plan of a compiled batch schedule: an output slot, its
// plan, and for dense roots an optional shared-tail register and the
// children fused onto its word. proto is the node's kernel view, frozen at
// compile time (a compressed node's walk probes its operand words); tailed
// nodes get their and-slice patched to the per-execution tail register.
type planNode struct {
	slot  int
	plan  *Plan
	tail  int // index into PlanBatch.tails, or -1
	kids  []planKid
	proto loweredReq
}

// planKid is one plan fused onto a parent: its positive operands are the
// parent's plus extra.
type planKid struct {
	slot  int
	extra []Operand
}

// PlanBatch is a compiled batch schedule: the duplicate-collapsing, chain
// fusion, and common-tail analysis of CompileBatch frozen so repeated
// executions of the same batch shape pay only the kernel work. A PlanBatch
// is immutable after compilation and safe for concurrent Exec calls —
// per-execution scratch is acquired from the pool inside Exec.
type PlanBatch struct {
	n      int
	nslot  int
	comp   []planNode // plans executed on the compressed path
	roots  []planNode // dense roots, walked tile by tile
	tails  [][]Operand
	dups   [][2]int  // duplicate plans: [dst slot, src slot]
	pairs  [][2]int  // root pairs sharing AND and kid-extra operands
	paired []bool    // roots consumed by pairs, skipped by the root loop
	pool   sync.Pool // *execScratch, sized for this schedule
}

// execScratch is one execution's mutable state: the per-root kernel views
// (copied from the frozen protos so tail registers can be patched in) and
// the tail register sets.
type execScratch struct {
	lowered []loweredReq
	tailAnd [][]uint64
	tails   []*Set
}

// CompileBatch analyzes a batch of compiled plans into an executable
// schedule. All plans must share one universe; violations panic.
func CompileBatch(plans []*Plan) *PlanBatch {
	pb := &PlanBatch{nslot: len(plans)}
	if len(plans) == 0 {
		return pb
	}
	pb.n = plans[0].n
	seen := make(map[*Plan]int, len(plans))
	var dense []planNode
	for slot, p := range plans {
		if p == nil {
			panic("audience: CompileBatch nil plan")
		}
		if p.n != pb.n {
			panic("audience: CompileBatch universe size mismatch")
		}
		if first, ok := seen[p]; ok {
			pb.dups = append(pb.dups, [2]int{slot, first})
			continue
		}
		seen[p] = slot
		node := planNode{slot: slot, plan: p, tail: -1}
		if p.compressed {
			node.proto = p.lower(nil)
			pb.comp = append(pb.comp, node)
		} else {
			dense = append(dense, node)
		}
	}
	dense = chainPlans(dense)
	pb.roots = dense
	// Common-tail extraction: roots sharing the same ands[1:] multiset (two
	// or more operands) intersect it once per tile into a shared register,
	// instead of once per plan per word.
	groups := make(map[string][]int)
	for i := range pb.roots {
		if key := pb.roots[i].plan.tailKey; key != "" {
			groups[key] = append(groups[key], i)
		}
	}
	for _, members := range groups {
		if len(members) < 2 {
			continue
		}
		ti := len(pb.tails)
		pb.tails = append(pb.tails, pb.roots[members[0]].plan.ands[1:])
		for _, i := range members {
			pb.roots[i].tail = ti
		}
	}
	// Freeze each root's kernel view. Tailed roots leave their and-slice nil;
	// Exec patches in the per-execution tail register. Everything else —
	// operand word slices, fused-child extras — is immutable and shared by
	// concurrent executions.
	for i := range pb.roots {
		node := &pb.roots[i]
		node.proto = node.plan.lower(nil)
		if node.tail >= 0 {
			node.proto.and = nil
		}
		node.proto.kids = make([]chainKid, len(node.kids))
		for k, kid := range node.kids {
			extra := make([][]uint64, len(kid.extra))
			for e, o := range kid.extra {
				extra[e] = o.Set.words
			}
			node.proto.kids[k] = chainKid{idx: kid.slot, extra: extra}
		}
	}
	pb.pairRoots()
	return pb
}

// pairRoots finds chained roots that share their single AND operand and
// their only child's single extra operand — the audit's reach/conditioned
// battery compiles to dozens of them over one tail register and one
// demographic set — and schedules them two at a time, so the fused kernel
// loads the shared words once per pair. The inner loop is load-bound, and
// the shared operands are half its traffic.
func (pb *PlanBatch) pairRoots() {
	type pairKey struct {
		tail       int
		and, extra *uint64
	}
	groups := make(map[pairKey][]int)
	for i := range pb.roots {
		node := &pb.roots[i]
		lr := &node.proto
		if len(lr.not) != 0 ||
			len(lr.kids) != 1 || len(lr.kids[0].extra) != 1 || len(lr.kids[0].extra[0]) == 0 {
			continue
		}
		key := pairKey{tail: node.tail, extra: &lr.kids[0].extra[0][0]}
		switch {
		case node.tail >= 0 && lr.and == nil:
			// Tail register patched per execution; equal index, equal words.
		case node.tail < 0 && len(lr.and) == 1 && len(lr.and[0]) > 0:
			key.and = &lr.and[0][0]
		default:
			continue
		}
		groups[key] = append(groups[key], i)
	}
	for _, members := range groups {
		if len(members) < 2 {
			continue
		}
		if pb.paired == nil {
			pb.paired = make([]bool, len(pb.roots))
		}
		for k := 0; k+2 <= len(members); k += 2 {
			pb.pairs = append(pb.pairs, [2]int{members[k], members[k+1]})
			pb.paired[members[k]] = true
			pb.paired[members[k+1]] = true
		}
	}
}

// chainPlans fuses every dense plan whose positive operands strictly
// contain another plan's (both negation-free) onto that plan as a child,
// so the kernels derive the child's word from its parent's. Candidates are
// grouped by base operand, so the quadratic scan stays within the tiny
// groups the audits produce.
func chainPlans(nodes []planNode) []planNode {
	byBase := make(map[uint64][]int)
	for i := range nodes {
		p := nodes[i].plan
		if len(p.nots) == 0 && len(p.ands) <= maxChainSets {
			id := p.ands[0].Set.id
			byBase[id] = append(byBase[id], i)
		}
	}
	chained := make([]bool, len(nodes))
	any := false
	for _, group := range byBase {
		if len(group) < 2 {
			continue
		}
		// Fewest operands first (stable by slot), so parents are fixed before
		// their supersets are considered.
		sort.SliceStable(group, func(a, b int) bool {
			la, lb := len(nodes[group[a]].plan.ands), len(nodes[group[b]].plan.ands)
			if la != lb {
				return la < lb
			}
			return nodes[group[a]].slot < nodes[group[b]].slot
		})
		for j := 1; j < len(group); j++ {
			cj := nodes[group[j]].plan
			best := -1
			for i := 0; i < j; i++ {
				pi := nodes[group[i]].plan
				if chained[group[i]] || len(pi.ands) >= len(cj.ands) {
					continue
				}
				if !sigSubset(pi.sig, cj.sig) {
					continue
				}
				if best < 0 || len(nodes[group[best]].plan.ands) < len(pi.ands) {
					best = i
				}
			}
			if best < 0 {
				continue
			}
			parent := &nodes[group[best]]
			parent.kids = append(parent.kids, planKid{
				slot:  nodes[group[j]].slot,
				extra: extraOperands(parent.plan.ands, cj.ands),
			})
			chained[group[j]] = true
			any = true
		}
	}
	if !any {
		return nodes
	}
	roots := nodes[:0]
	for i := range nodes {
		if !chained[i] {
			roots = append(roots, nodes[i])
		}
	}
	return roots
}

// sigSubset reports whether sorted id multiset sub is contained in super.
func sigSubset(sub, super []uint64) bool {
	i := 0
	for _, v := range sub {
		for i < len(super) && super[i] < v {
			i++
		}
		if i >= len(super) || super[i] != v {
			return false
		}
		i++
	}
	return true
}

// extraOperands returns super minus sub by set-id multiplicity — the
// operands a fused child ANDs onto its parent's word.
func extraOperands(sub, super []Operand) []Operand {
	var used [maxChainSets]bool
	for _, p := range sub {
		for k, c := range super {
			if !used[k] && c.Set.id == p.Set.id {
				used[k] = true
				break
			}
		}
	}
	extra := make([]Operand, 0, len(super)-len(sub))
	for k, c := range super {
		if !used[k] {
			extra = append(extra, c)
		}
	}
	return extra
}

// Exec runs the schedule and returns the counts in plan order. Results are
// bit-identical to calling Count on each plan alone.
func (pb *PlanBatch) Exec() []int {
	counts := make([]int, pb.nslot)
	for i := range pb.comp {
		counts[pb.comp[i].slot] = pb.comp[i].plan.execCompressed(&pb.comp[i].proto)
	}
	if len(pb.roots) > 0 {
		pb.execDense(counts)
	}
	for _, d := range pb.dups {
		counts[d[0]] = counts[d[1]]
	}
	return counts
}

// execDense walks the universe tile by tile: shared tails are intersected
// into pooled registers once per tile, then every root (and its fused
// children) counts from hot words via the batch kernels. All per-execution
// state comes from the schedule's scratch pool, so steady-state executions
// of a cached schedule allocate nothing but the result slice.
func (pb *PlanBatch) execDense(counts []int) {
	s, _ := pb.pool.Get().(*execScratch)
	if s == nil {
		s = &execScratch{
			lowered: make([]loweredReq, len(pb.roots)),
			tailAnd: make([][]uint64, len(pb.roots)),
			tails:   make([]*Set, len(pb.tails)),
		}
	}
	defer pb.pool.Put(s)
	for i := range s.tails {
		s.tails[i] = NewScratch(pb.n)
	}
	defer func() {
		for _, t := range s.tails {
			t.Recycle()
		}
	}()
	for i := range pb.roots {
		node := &pb.roots[i]
		s.lowered[i] = node.proto
		if node.tail >= 0 {
			s.tailAnd[i] = s.tails[node.tail].words
			s.lowered[i].and = s.tailAnd[i : i+1 : i+1]
		}
	}
	nw := (pb.n + 63) / 64
	for lo := 0; lo < nw; lo += blockWords {
		hi := lo + blockWords
		if hi > nw {
			hi = nw
		}
		for ti := range s.tails {
			fillTail(s.tails[ti], pb.tails[ti], lo, hi)
		}
		for _, pr := range pb.pairs {
			l0, l1 := &s.lowered[pr[0]], &s.lowered[pr[1]]
			cp0, ck0, cp1, ck1 := countPairRange2(l0.base, l1.base, l0.and[0], l0.kids[0].extra[0], lo, hi)
			counts[pb.roots[pr[0]].slot] += cp0
			counts[l0.kids[0].idx] += ck0
			counts[pb.roots[pr[1]].slot] += cp1
			counts[l1.kids[0].idx] += ck1
		}
		for ri := range s.lowered {
			if pb.paired != nil && pb.paired[ri] {
				continue
			}
			lr := &s.lowered[ri]
			slot := pb.roots[ri].slot
			if len(lr.kids) == 0 {
				counts[slot] += lr.countRange(lo, hi)
				continue
			}
			lr.countChainRange(counts, slot, lo, hi)
		}
	}
}

// fillTail intersects the tail operands' words over [lo, hi) into dst's
// words.
func fillTail(dst *Set, members []Operand, lo, hi int) {
	w := dst.words[lo:hi]
	copy(w, members[0].Set.words[lo:hi])
	for _, m := range members[1:] {
		src := m.Set.words[lo:hi]
		src = src[:len(w)]
		for i := range w {
			w[i] &= src[i]
		}
	}
}

// ExecPlans compiles and executes a batch in one shot — the uncached
// convenience path, and the reference the cached path is tested against.
func ExecPlans(plans []*Plan) []int {
	return CompileBatch(plans).Exec()
}
