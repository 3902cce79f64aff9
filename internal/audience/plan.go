package audience

import (
	"math/bits"
	"slices"
	"unsafe"
)

// This file implements the query compiler. A Plan is an and-of-ors
// request lowered once — OR groups already materialized into single
// operands, positive operands ordered sparsest-first, negations split out —
// into a flat program of kernel operands. CompileBatch then numbers the
// batch's distinct operands and extracts the tails plans share, once per
// batch, so the schedule's Exec runs only the tiled kernels (batch.go).
// A schedule has one shape: dense plans as roots that read their own
// operands or one shared-tail register, plus the compressed container walk.
//
// Every rewrite the compiler performs is an AND reassociation or
// reordering, so executing a plan is bit-identical to evaluating the
// clauses with the Set operations (property- and fuzz-tested against the
// naive Set-algebra evaluator).

// Operand is one audience input of a plan: a dense set or a compressed
// set. Dense words are read in place. A compressed-only operand is expanded
// into a register tile by tile when its batch executes, or walked container
// by container when it is the sparse base of a plan whose other operands
// are dense. The platform hands the compiler one form per operand; one
// carrying both must hold exactly the same members in each (FromSet
// guarantees this), and the compressed form then enables the walk.
type Operand struct {
	Set *Set
	C   *CSet
	// Card is the operand's membership count. Callers that keep an operand
	// across compilations count it once and carry the count here; zero
	// makes CompilePlan count the operand itself, once per compilation.
	Card int
}

// id identifies the operand for the batch analysis: its dense set's id, or
// its compressed set's when it has no dense form.
func (o Operand) id() uint64 {
	if o.Set != nil {
		return o.Set.id
	}
	return o.C.id
}

// count returns the operand's membership count: the carried Card, else the
// compressed form's cached count, else one popcount of the dense words.
func (o Operand) count() int {
	switch {
	case o.Card > 0:
		return o.Card
	case o.C != nil:
		return o.C.Count()
	default:
		return o.Set.Count()
	}
}

// PlanClause is one clause of a compiled request: an operand intersected
// into the count, or subtracted from it when Negate is set. An OR group of
// targeting refs reaches the compiler as one operand, its materialized
// union (the platform builds each once per call and shares it across the
// call's plans).
type PlanClause struct {
	Op     Operand
	Negate bool
}

// Plan is one compiled count request: the size of the intersection of its
// positive operands minus its negated operands. Plans are immutable after
// compilation and safe for concurrent execution.
type Plan struct {
	n    int
	ands []Operand // positive operands, sparsest-first; ands[0] is the base
	nots []Operand // negated operands (their union is subtracted)
	// tailKey identifies the ands[1:] multiset for cross-plan common-tail
	// extraction; empty when the tail is shorter than two operands.
	tailKey string
	// compressed marks plans whose base operand is sparse enough that
	// walking its containers beats streaming the dense words, and whose
	// other operands all have dense words for the walk to probe.
	compressed bool
}

// CompilePlan lowers one request over a universe of n users. The first
// clause must be positive and every operand must carry a dense or a
// compressed set over n users; violations panic. Positive operands are
// sorted sparsest-first so both the compressed walk and the dense kernels
// start from the most selective set.
func CompilePlan(n int, clauses []PlanClause) *Plan {
	if len(clauses) == 0 {
		panic("audience: CompilePlan without clauses")
	}
	if clauses[0].Negate {
		panic("audience: CompilePlan request must begin with a positive clause")
	}
	// One backing array holds the positive operands, then the negated.
	npos := 0
	for _, cl := range clauses {
		switch {
		case cl.Op.Set == nil && cl.Op.C == nil:
			panic("audience: CompilePlan operand without a set")
		case cl.Op.Set != nil && cl.Op.Set.n != n, cl.Op.C != nil && cl.Op.C.n != n:
			panic("audience: CompilePlan universe size mismatch")
		}
		if !cl.Negate {
			npos++
		}
	}
	ops := make([]Operand, 0, len(clauses))
	for _, cl := range clauses {
		if !cl.Negate {
			cl.Op.Card = cl.Op.count()
			// Insertion keeps equal counts in clause order, as a stable
			// sort would; plans hold a handful of operands.
			i := len(ops)
			ops = append(ops, cl.Op)
			for ; i > 0 && ops[i-1].Card > cl.Op.Card; i-- {
				ops[i] = ops[i-1]
			}
			ops[i] = cl.Op
		}
	}
	for _, cl := range clauses {
		if cl.Negate {
			ops = append(ops, cl.Op)
		}
	}
	p := &Plan{n: n, ands: ops[:npos:npos]}
	if len(ops) > npos {
		p.nots = ops[npos:]
	}
	if npos >= 3 {
		tail := make([]uint64, npos-1)
		for i, o := range p.ands[1:] {
			tail[i] = o.id()
		}
		slices.Sort(tail)
		// The key aliases the sorted ids' bytes, which nothing writes again.
		p.tailKey = unsafe.String((*byte)(unsafe.Pointer(&tail[0])), 8*len(tail))
	}
	// Compressed dispatch: walk the base's containers when its membership is
	// below one per 64 users (the word width) — past that, the dense kernels'
	// word-at-a-time popcounts win — and every other operand has dense words
	// to probe. A plan with another compressed-only operand runs as a dense
	// root instead, its compressed operands expanded into registers.
	base := p.ands[0]
	p.compressed = base.C != nil && base.C.Count() < (n+63)/64 &&
		!slices.ContainsFunc(ops[1:], func(o Operand) bool { return o.Set == nil })
	return p
}

// Len returns the plan's universe size.
func (p *Plan) Len() int { return p.n }

// Compressed reports whether the plan executes on the compressed path.
func (p *Plan) Compressed() bool { return p.compressed }

// Count executes the plan once over the whole universe, as a batch of one.
func (p *Plan) Count() int {
	counts, _ := CompileBatch([]*Plan{p}).Exec(nil)
	return counts[0]
}

// probe is a compressed plan's kernel view: the dense words of every
// operand but the base, which the container walk probes per member.
type probe struct {
	and, not [][]uint64
}

// probe returns a compressed plan's walk view; CompilePlan marks a plan
// compressed only when every non-base operand has dense words.
func (p *Plan) probe() probe {
	var pr probe
	for _, o := range p.ands[1:] {
		pr.and = append(pr.and, o.Set.words)
	}
	for _, o := range p.nots {
		pr.not = append(pr.not, o.Set.words)
	}
	return pr
}

// walk counts the members of c with index in [lo, hi) that pass every
// probed operand, walking c's containers so chunks and members outside the
// window cost nothing. The count is the same formula as the dense path:
// members of every positive operand and of no negated one.
func (pr *probe) walk(c *CSet, lo, hi int) int {
	total := 0
	for ci := c.chunkFrom(lo); ci < len(c.keys); ci++ {
		base := int(c.keys[ci]) << chunkBits
		if base >= hi {
			break
		}
		clo, chi := max(lo-base, 0), min(hi-base, chunkSize)
		cont := &c.conts[ci]
		switch cont.typ {
		case ctArray:
			i, _ := slices.BinarySearch(cont.arr, uint16(clo))
			for _, v := range cont.arr[i:] {
				if int(v) >= chi {
					break
				}
				if pr.probe(base + int(v)) {
					total++
				}
			}
		case ctRun:
			// An inverted run in a corrupt blob is an empty range.
			for _, r := range cont.runs {
				total += pr.passRange(base+max(int(r.start), clo), base+min(int(r.last)+1, chi))
			}
		case ctBitmap:
			for wi := clo >> 6; wi<<6 < chi; wi++ {
				total += pr.passCount(base>>6+wi, cont.bits[wi]&wordMask(wi, clo, chi))
			}
		}
	}
	return total
}

// wordMask returns the bits of word wi (indices [64·wi, 64·wi+64)) that
// fall in [lo, hi).
func wordMask(wi, lo, hi int) uint64 {
	m := ^uint64(0)
	if b := lo - wi<<6; b > 0 {
		m <<= uint(b)
	}
	if e := wi<<6 + 64 - hi; e > 0 {
		m &= ^uint64(0) >> uint(e)
	}
	return m
}

// probe reports whether user idx passes every non-base operand.
func (pr *probe) probe(idx int) bool {
	wi, mask := idx>>6, uint64(1)<<uint(idx&63)
	for _, s := range pr.and {
		if s[wi]&mask == 0 {
			return false
		}
	}
	for _, s := range pr.not {
		if s[wi]&mask != 0 {
			return false
		}
	}
	return true
}

// passRange counts the users in [lo, hi) that pass every non-base operand.
func (pr *probe) passRange(lo, hi int) int {
	total := 0
	for lo < hi {
		wi := lo >> 6
		total += pr.passCount(wi, wordMask(wi, lo, hi))
		lo = (wi + 1) << 6
	}
	return total
}

// passCount counts the members w of base word wi that pass every non-base
// operand.
func (pr *probe) passCount(wi int, w uint64) int {
	for _, s := range pr.and {
		w &= s[wi]
	}
	for _, s := range pr.not {
		w &^= s[wi]
	}
	return bits.OnesCount64(w)
}

// compNode is one plan of a compiled batch executed on the compressed
// path: its output slot, its base's containers, and the walk's frozen
// probe view.
type compNode struct {
	slot  int
	base  *CSet
	probe probe
}

// planNode is one dense plan while CompileBatch analyzes it: its output
// slot, its plan, and an optional shared-tail register. The schedule keeps
// only the kernel view lowered from it, so a batch compiled per call holds
// no plan once it executes.
type planNode struct {
	slot int
	plan *Plan
	tail int // index into the tail registers, or -1
}

// PlanBatch is a compiled batch schedule: the operand numbering and
// common-tail analysis of CompileBatch frozen so repeated executions of the
// same batch pay only the kernel work. A PlanBatch is immutable after
// compilation and safe for concurrent Exec calls — per-execution scratch
// comes from a pool inside Exec.
//
// The tiled kernels read every operand through a source table: ops[k]'s
// words are source k, and tail register t is source len(ops)+t. When no
// operand is compressed-only, sources are the operands' own words, indexed
// absolutely, and only the tail registers are written per tile. Otherwise
// every tile loads its sources tile-relative: dense words are re-sliced,
// and each compressed-only operand reads its bitmap container in place,
// the shared zero tile for an empty chunk, or its register, into which the
// tile's array or run members are expanded.
type PlanBatch struct {
	n     int
	nslot int
	tile  int       // tile width in words: blockWords, or regWords with registers
	ops   []Operand // distinct operands the roots and tails read, by identity
	reg   []int     // ops[k]'s register index, or -1 for dense words
	nreg  int
	comp  []compNode   // plans executed on the compressed path
	roots []loweredReq // dense roots, walked tile by tile
	tails [][]int      // source indices of each shared tail's members
}

// CompileBatch analyzes a batch of compiled plans into an executable
// schedule. All plans must share one universe; violations panic.
func CompileBatch(plans []*Plan) *PlanBatch {
	pb := &PlanBatch{nslot: len(plans), tile: blockWords}
	if len(plans) == 0 {
		return pb
	}
	pb.n = plans[0].n
	nodes := make([]planNode, 0, len(plans))
	for slot, p := range plans {
		if p == nil {
			panic("audience: CompileBatch nil plan")
		}
		if p.n != pb.n {
			panic("audience: CompileBatch universe size mismatch")
		}
		if p.compressed {
			pb.comp = append(pb.comp, compNode{slot: slot, base: p.ands[0].C, probe: p.probe()})
			continue
		}
		nodes = append(nodes, planNode{slot: slot, plan: p, tail: -1})
	}
	// Common-tail extraction: roots sharing the same ands[1:] multiset (two
	// or more operands) intersect it once per tile into a shared register,
	// instead of once per plan per word.
	var groups map[string][]int
	for i := range nodes {
		if key := nodes[i].plan.tailKey; key != "" && len(nodes) > 1 {
			if groups == nil {
				groups = make(map[string][]int)
			}
			groups[key] = append(groups[key], i)
		}
	}
	var tailOps [][]Operand
	for _, members := range groups {
		if len(members) < 2 {
			continue
		}
		for _, i := range members {
			nodes[i].tail = len(tailOps)
		}
		tailOps = append(tailOps, nodes[members[0]].plan.ands[1:])
	}
	// Freeze each root's kernel view over the source table. Operands are
	// numbered by identity, so a set shared by many plans is one source,
	// loaded once per tile; a lone plan — the serial door — has no other
	// plan to share with, so its operands are numbered in order. The
	// views' index lists are carved from one arena, sized for every operand
	// of every plan plus the tail indices.
	size := len(nodes)
	for _, p := range plans {
		size += len(p.ands) + len(p.nots)
	}
	for _, ops := range tailOps {
		size += len(ops)
	}
	arena := make([]int, 0, size)
	var index map[uint64]int
	if len(plans) > 1 {
		index = make(map[uint64]int)
	} else {
		pb.ops = make([]Operand, 0, size)
	}
	sources := func(ops []Operand) []int {
		start := len(arena)
		for _, o := range ops {
			k, ok := index[o.id()]
			if !ok {
				k = len(pb.ops)
				if index != nil {
					index[o.id()] = k
				}
				pb.ops = append(pb.ops, o)
			}
			arena = append(arena, k)
		}
		return arena[start:len(arena):len(arena)]
	}
	pb.tails = make([][]int, len(tailOps))
	for t, ops := range tailOps {
		pb.tails[t] = sources(ops)
	}
	pb.roots = make([]loweredReq, len(nodes))
	for i := range nodes {
		node, lr := &nodes[i], &pb.roots[i]
		p := node.plan
		*lr = loweredReq{slot: node.slot, base: sources(p.ands[:1])[0], not: sources(p.nots)}
		if node.tail < 0 {
			lr.and = sources(p.ands[1:])
		}
	}
	for i := range nodes {
		if t := nodes[i].tail; t >= 0 {
			arena = append(arena, len(pb.ops)+t)
			pb.roots[i].and = arena[len(arena)-1:]
		}
	}
	pb.reg = make([]int, len(pb.ops))
	for k, o := range pb.ops {
		pb.reg[k] = -1
		if o.Set == nil {
			pb.reg[k] = pb.nreg
			pb.nreg++
		}
	}
	if pb.nreg > 0 {
		pb.tile = regWords
	}
	return pb
}
