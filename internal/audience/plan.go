package audience

// This file implements the query compiler. A Plan is an and-of-ors
// request lowered once — OR groups already materialized into single
// operands, negations split out — into a flat program of kernel operands.
// CompileBatch then numbers the batch's distinct operands once per batch,
// so the schedule's Exec runs only the tiled kernels (batch.go). A
// schedule has one shape: every plan is a root that reads its own
// operands in clause order.
//
// The one rewrite the compiler performs, moving negated operands after the
// positive ones, is an AND reordering, so executing a plan is bit-identical
// to evaluating the clauses with the Set operations (property- and
// fuzz-tested against the naive Set-algebra evaluator).

// Operand is one audience input of a plan: exactly one of a dense set or a
// compressed set. Dense words are read in place; a compressed-only operand
// is loaded tile by tile when its batch executes.
type Operand struct {
	Set *Set
	C   *CSet
}

// id identifies the operand for the batch's operand numbering.
func (o Operand) id() uint64 {
	if o.Set != nil {
		return o.Set.id
	}
	return o.C.id
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
	ands []Operand // positive operands in clause order; ands[0] is the base
	nots []Operand // negated operands (their union is subtracted)
}

// CompilePlan lowers one request over a universe of n users. The first
// clause must be positive and every operand must carry exactly one of a
// dense and a compressed set over n users; violations panic.
func CompilePlan(n int, clauses []PlanClause) *Plan {
	if len(clauses) == 0 {
		panic("audience: CompilePlan without clauses")
	}
	if clauses[0].Negate {
		panic("audience: CompilePlan request must begin with a positive clause")
	}
	// One backing array holds the positive operands, then the negated.
	ops := make([]Operand, 0, len(clauses))
	for _, cl := range clauses {
		switch o := cl.Op; {
		case (o.Set == nil) == (o.C == nil):
			panic("audience: CompilePlan operand needs exactly one of a dense and a compressed set")
		case o.Set != nil && o.Set.n != n, o.C != nil && o.C.n != n:
			panic("audience: CompilePlan universe size mismatch")
		}
		if !cl.Negate {
			ops = append(ops, cl.Op)
		}
	}
	npos := len(ops)
	for _, cl := range clauses {
		if cl.Negate {
			ops = append(ops, cl.Op)
		}
	}
	p := &Plan{n: n, ands: ops[:npos:npos]}
	if len(ops) > npos {
		p.nots = ops[npos:]
	}
	return p
}

// Len returns the plan's universe size.
func (p *Plan) Len() int { return p.n }

// Count executes the plan once over the whole universe, as a batch of one.
func (p *Plan) Count() int {
	counts, _ := CompileBatch([]*Plan{p}).Exec(nil)
	return counts[0]
}

// PlanBatch is a compiled batch schedule: the operand numbering of
// CompileBatch frozen so repeated executions of the same batch pay only
// the kernel work. A PlanBatch is immutable after compilation and safe for
// concurrent Exec calls — per-execution scratch comes from a pool inside
// Exec.
//
// The tiled kernels read every operand through a source table: source k
// holds ops[k]'s words for the current tile (batch.go's load).
type PlanBatch struct {
	n     int
	tile  int       // tile width in words: blockWords, or regWords with registers
	ops   []Operand // distinct operands the roots read, by identity
	reg   []int     // ops[k]'s register index, or -1 for dense words
	nreg  int
	roots []loweredReq // plan i's kernel view, walked tile by tile
}

// CompileBatch analyzes a batch of compiled plans into an executable
// schedule. All plans must share one universe; violations panic.
func CompileBatch(plans []*Plan) *PlanBatch {
	pb := &PlanBatch{tile: blockWords, roots: make([]loweredReq, len(plans))}
	if len(plans) == 0 {
		return pb
	}
	pb.n = plans[0].n
	size := 0
	for _, p := range plans {
		if p == nil {
			panic("audience: CompileBatch nil plan")
		}
		if p.n != pb.n {
			panic("audience: CompileBatch universe size mismatch")
		}
		size += len(p.ands) + len(p.nots)
	}
	// Freeze each root's kernel view over the source table. Operands are
	// numbered by identity, so a set shared by many plans is one source,
	// loaded once per tile; a lone plan — the serial door — has no other
	// plan to share with, so its operands are numbered in order. The
	// views' index lists are carved from one arena, sized for every operand
	// of every plan.
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
	for i, p := range plans {
		pb.roots[i] = loweredReq{base: sources(p.ands[:1])[0], and: sources(p.ands[1:]), not: sources(p.nots)}
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
