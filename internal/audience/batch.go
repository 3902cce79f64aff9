package audience

import "math/bits"

// This file implements the tiled counting kernels compiled batch schedules
// (plan.go) execute. A single spec count streams every attribute set once
// per query; a batch of M specs over the same universe would stream the
// shared sets M times. A schedule instead walks the universe in cache-sized
// word blocks and evaluates every pending request per block, so a block of
// each set is loaded from memory once and reused across all requests while
// it is hot, and requests that refine another request's operands are fused
// onto it as chain children.

// blockWords is the tile width of the batched kernel, in 64-bit words:
// 512 words = 4 KiB per set, so a request touching a handful of sets works
// entirely out of L1 within one tile.
const blockWords = 512

// KernelBlocks reports how many tiles a compiled batch walks for a universe
// of n users — the unit of the batch_kernel_blocks_total counter.
func KernelBlocks(n int) int {
	return ((n+63)/64 + blockWords - 1) / blockWords
}

// loweredReq is one plan's kernel view: hoisted word slices
// (base ∩ and… \ not…) plus the children fused onto its word.
type loweredReq struct {
	base []uint64
	and  [][]uint64
	not  [][]uint64
	kids []chainKid
}

// chainKid is one request fused onto a parent: its sets are the parent's
// plus extra, so the kernel derives its word from the parent's instead of
// re-ANDing the shared prefix. The audit emits exactly this shape — a reach
// query (attrs ∩ scope) and its conditioned refinements (… ∩ class) — so a
// batch pays for the shared sets once per word, not once per request.
type chainKid struct {
	idx   int        // the child's slot in the batch
	extra [][]uint64 // sets ANDed onto the parent's word
}

// maxChainSets bounds the per-request operand count chain detection
// considers; longer requests stay unfused (the scan is quadratic in it).
const maxChainSets = 16

// countRange counts the request's matches within words [lo, hi).
func (lr *loweredReq) countRange(lo, hi int) int {
	if len(lr.not) == 0 {
		switch len(lr.and) {
		case 0:
			return countRange1(lr.base, lo, hi)
		case 1:
			return countAndRange(lr.base, lr.and[0], lo, hi)
		case 2:
			return countAnd3Range(lr.base, lr.and[0], lr.and[1], lo, hi)
		}
	}
	return countSimpleRange(lr.base, lr.and, lr.not, lo, hi)
}

// countChainRange evaluates a parent request and all of its fused children
// over words [lo, hi): the parent's word is computed once and each child
// refines it with its extra sets, so the shared prefix costs one evaluation
// per word for the whole chain.
func (lr *loweredReq) countChainRange(counts []int, ri, lo, hi int) {
	if len(lr.kids) == 1 && len(lr.kids[0].extra) == 1 {
		kid := &lr.kids[0]
		switch len(lr.and) {
		case 1:
			cp, ck := countPairRange(lr.base, lr.and[0], kid.extra[0], lo, hi)
			counts[ri] += cp
			counts[kid.idx] += ck
			return
		case 2:
			cp, ck := countPair3Range(lr.base, lr.and[0], lr.and[1], kid.extra[0], lo, hi)
			counts[ri] += cp
			counts[kid.idx] += ck
			return
		}
	}
	// Generic chain: materialize the parent's words for this tile into a
	// stack buffer, then count the parent and each child with tight
	// two-slice loops (per-word stores into counts would wreck the loop).
	var wbuf [blockWords]uint64
	base := lr.base[lo:hi]
	w := wbuf[:len(base)]
	copy(w, base)
	for _, s := range lr.and {
		ss := s[lo:hi]
		ss = ss[:len(w)]
		for i := range w {
			w[i] &= ss[i]
		}
	}
	cp := 0
	for i := range w {
		cp += bits.OnesCount64(w[i])
	}
	counts[ri] += cp
	for ki := range lr.kids {
		k := &lr.kids[ki]
		ck := 0
		if len(k.extra) == 1 {
			e := k.extra[0][lo:hi]
			e = e[:len(w)]
			for i := range w {
				ck += bits.OnesCount64(w[i] & e[i])
			}
		} else {
			for i := range w {
				x := w[i]
				for _, s := range k.extra {
					x &= s[lo+i]
				}
				ck += bits.OnesCount64(x)
			}
		}
		counts[k.idx] += ck
	}
}

// countPair3Range extends countPairRange with a second shared set — the
// 40-plus battery's chain (attr ∩ scope ∩ ageUnion, refined by gender).
func countPair3Range(a, b, d, e []uint64, lo, hi int) (cp, ck int) {
	a = a[lo:hi]
	b = b[lo:hi]
	d = d[lo:hi]
	e = e[lo:hi]
	b = b[:len(a)]
	d = d[:len(a)]
	e = e[:len(a)]
	i := 0
	for ; i+4 <= len(a); i += 4 {
		w0 := a[i] & b[i] & d[i]
		w1 := a[i+1] & b[i+1] & d[i+1]
		w2 := a[i+2] & b[i+2] & d[i+2]
		w3 := a[i+3] & b[i+3] & d[i+3]
		cp += bits.OnesCount64(w0) + bits.OnesCount64(w1) +
			bits.OnesCount64(w2) + bits.OnesCount64(w3)
		ck += bits.OnesCount64(w0&e[i]) + bits.OnesCount64(w1&e[i+1]) +
			bits.OnesCount64(w2&e[i+2]) + bits.OnesCount64(w3&e[i+3])
	}
	for ; i < len(a); i++ {
		w := a[i] & b[i] & d[i]
		cp += bits.OnesCount64(w)
		ck += bits.OnesCount64(w & e[i])
	}
	return cp, ck
}

// countPairRange is the fused kernel for the audit's dominant chain — a
// reach query a ∩ b and one conditioned child a ∩ b ∩ e — counting both in
// a single pass: three loads and two popcounts serve two requests.
// countPairRange2 counts two fused reach/conditioned chains that share
// their AND operand b and their child's extra operand e: per word, b and e
// are loaded once for both chains, halving the shared-operand traffic in
// the load-bound inner loop.
func countPairRange2(a0, a1, b, e []uint64, lo, hi int) (cp0, ck0, cp1, ck1 int) {
	a0 = a0[lo:hi]
	a1 = a1[lo:hi]
	b = b[lo:hi]
	e = e[lo:hi]
	a1 = a1[:len(a0)]
	b = b[:len(a0)]
	e = e[:len(a0)]
	i := 0
	for ; i+2 <= len(a0); i += 2 {
		t0, e0 := b[i], e[i]
		t1, e1 := b[i+1], e[i+1]
		w00 := a0[i] & t0
		w01 := a0[i+1] & t1
		w10 := a1[i] & t0
		w11 := a1[i+1] & t1
		cp0 += bits.OnesCount64(w00) + bits.OnesCount64(w01)
		cp1 += bits.OnesCount64(w10) + bits.OnesCount64(w11)
		ck0 += bits.OnesCount64(w00&e0) + bits.OnesCount64(w01&e1)
		ck1 += bits.OnesCount64(w10&e0) + bits.OnesCount64(w11&e1)
	}
	for ; i < len(a0); i++ {
		t, ee := b[i], e[i]
		w0 := a0[i] & t
		w1 := a1[i] & t
		cp0 += bits.OnesCount64(w0)
		cp1 += bits.OnesCount64(w1)
		ck0 += bits.OnesCount64(w0 & ee)
		ck1 += bits.OnesCount64(w1 & ee)
	}
	return
}

func countPairRange(a, b, e []uint64, lo, hi int) (cp, ck int) {
	a = a[lo:hi]
	b = b[lo:hi]
	e = e[lo:hi]
	b = b[:len(a)]
	e = e[:len(a)]
	i := 0
	for ; i+4 <= len(a); i += 4 {
		w0 := a[i] & b[i]
		w1 := a[i+1] & b[i+1]
		w2 := a[i+2] & b[i+2]
		w3 := a[i+3] & b[i+3]
		cp += bits.OnesCount64(w0) + bits.OnesCount64(w1) +
			bits.OnesCount64(w2) + bits.OnesCount64(w3)
		ck += bits.OnesCount64(w0&e[i]) + bits.OnesCount64(w1&e[i+1]) +
			bits.OnesCount64(w2&e[i+2]) + bits.OnesCount64(w3&e[i+3])
	}
	for ; i < len(a); i++ {
		w := a[i] & b[i]
		cp += bits.OnesCount64(w)
		ck += bits.OnesCount64(w & e[i])
	}
	return cp, ck
}

// countRange1 popcounts one word slice over [lo, hi), four words per
// iteration.
func countRange1(a []uint64, lo, hi int) int {
	a = a[lo:hi]
	c, i := 0, 0
	for ; i+4 <= len(a); i += 4 {
		c += bits.OnesCount64(a[i]) +
			bits.OnesCount64(a[i+1]) +
			bits.OnesCount64(a[i+2]) +
			bits.OnesCount64(a[i+3])
	}
	for ; i < len(a); i++ {
		c += bits.OnesCount64(a[i])
	}
	return c
}

// countAndRange popcounts a ∩ b over [lo, hi), four words per iteration.
func countAndRange(a, b []uint64, lo, hi int) int {
	a = a[lo:hi]
	b = b[lo:hi]
	b = b[:len(a)]
	c, i := 0, 0
	for ; i+4 <= len(a); i += 4 {
		c += bits.OnesCount64(a[i]&b[i]) +
			bits.OnesCount64(a[i+1]&b[i+1]) +
			bits.OnesCount64(a[i+2]&b[i+2]) +
			bits.OnesCount64(a[i+3]&b[i+3])
	}
	for ; i < len(a); i++ {
		c += bits.OnesCount64(a[i] & b[i])
	}
	return c
}

// countAnd3Range popcounts a ∩ b ∩ d over [lo, hi) — the scoped auditor's
// dominant shape (two options AND the location scope).
func countAnd3Range(a, b, d []uint64, lo, hi int) int {
	a = a[lo:hi]
	b = b[lo:hi]
	d = d[lo:hi]
	b = b[:len(a)]
	d = d[:len(a)]
	c, i := 0, 0
	for ; i+4 <= len(a); i += 4 {
		c += bits.OnesCount64(a[i]&b[i]&d[i]) +
			bits.OnesCount64(a[i+1]&b[i+1]&d[i+1]) +
			bits.OnesCount64(a[i+2]&b[i+2]&d[i+2]) +
			bits.OnesCount64(a[i+3]&b[i+3]&d[i+3])
	}
	for ; i < len(a); i++ {
		c += bits.OnesCount64(a[i] & b[i] & d[i])
	}
	return c
}

// countSimpleRange counts base ∩ and… \ not… over [lo, hi) for any number
// of single-set clauses, with every word slice already hoisted.
func countSimpleRange(base []uint64, and, not [][]uint64, lo, hi int) int {
	c := 0
	for i := lo; i < hi; i++ {
		w := base[i]
		for _, s := range and {
			w &= s[i]
		}
		for _, s := range not {
			w &^= s[i]
		}
		c += bits.OnesCount64(w)
	}
	return c
}
