package audience

import (
	"math/bits"
	"sync"
)

// This file implements the tiled counting kernels compiled batch schedules
// (plan.go) execute. A single spec count streams every attribute set once
// per query; a batch of M specs over the same universe would stream the
// shared sets M times. A schedule instead walks the universe in cache-sized
// word blocks and evaluates every pending request per block, so a block of
// each set is loaded from memory once and reused across all requests while
// it is hot, and requests that refine another request's operands are fused
// onto it as chain children.

const (
	// blockWords is the tile width of the batched kernel over dense
	// operands, in 64-bit words: 512 words = 4 KiB per set, so a request
	// touching a handful of sets works entirely out of L1 within one tile.
	blockWords = 512
	// regWords is the tile width, and register size, of schedules with
	// compressed-only operands: one register per distinct such operand, so
	// a batch naming a few thousand options holds about a megabyte of
	// registers. It divides chunkWords, so no tile straddles two chunks.
	regWords = 64
)

// zeroTile is the source of a compressed-only operand's tile in a chunk it
// has no members in. Nothing writes it.
var zeroTile [regWords]uint64

// Window is a half-open range [Lo, Hi) of user indices.
type Window struct {
	Lo, Hi int
}

// loweredReq is one root's kernel view: its output slot, the source
// indices of its operands (base ∩ and… \ not…), and the children fused
// onto its word.
type loweredReq struct {
	slot int
	base int
	and  []int
	not  []int
	kids []chainKid
}

// chainKid is one request fused onto a parent: its sets are the parent's
// plus extra, so the kernel derives its word from the parent's instead of
// re-ANDing the shared prefix. The audit emits exactly this shape — a reach
// query (attrs ∩ scope) and its conditioned refinements (… ∩ class) — so a
// batch pays for the shared sets once per word, not once per request.
type chainKid struct {
	idx   int   // the child's slot in the batch
	extra []int // sources ANDed onto the parent's word
}

// maxChainSets bounds the per-request operand count chain detection
// considers; longer requests stay unfused (the scan is quadratic in it).
const maxChainSets = 16

// execScratch is one execution's mutable state, pooled across schedules:
// the source tables, the registers, the tail registers, the masked edge
// words, and the generic kernels' word buffer (one tile, blockWords long).
type execScratch struct {
	abs, rel [][]uint64
	regs     []uint64
	tails    []uint64
	edge     []uint64
	word     []uint64
}

var execPool = sync.Pool{New: func() any { return new(execScratch) }}

// growSlice returns s resized to n elements, reallocated when short.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Exec runs the schedule over the given windows of the universe — nil
// means the whole universe — and returns the counts in plan order and the
// number of tiles the kernels walked. Windows are clamped to the universe,
// and a user in two windows counts twice. Results are bit-identical to
// evaluating each plan alone over the same users.
func (pb *PlanBatch) Exec(windows []Window) ([]int, int) {
	counts := make([]int, pb.nslot)
	var whole [1]Window
	if windows == nil {
		whole[0] = Window{0, pb.n}
		windows = whole[:]
	}
	for i := range pb.comp {
		nd := &pb.comp[i]
		for _, w := range windows {
			if lo, hi := max(w.Lo, 0), min(w.Hi, pb.n); lo < hi {
				counts[nd.slot] += nd.probe.walk(nd.base, lo, hi)
			}
		}
	}
	tiles := 0
	if len(pb.roots) > 0 {
		tiles = pb.execRoots(counts, windows)
	}
	for _, d := range pb.dups {
		counts[d[0]] = counts[d[1]]
	}
	return counts, tiles
}

// execRoots walks each window tile by tile on the tile grid: shared tails
// are intersected into registers once per tile, then every root (and its
// fused children) counts from hot words via the batch kernels. A window's
// unaligned edge words run as one-word tiles whose every source is masked
// to the window. All per-execution state comes from a pool, so steady-state
// executions allocate nothing but the result slice.
func (pb *PlanBatch) execRoots(counts []int, windows []Window) int {
	s := execPool.Get().(*execScratch)
	nops, nsrc := len(pb.ops), len(pb.ops)+len(pb.tails)
	s.abs = growSlice(s.abs, nsrc)
	s.rel = growSlice(s.rel, nsrc)
	s.edge = growSlice(s.edge, nsrc)
	s.regs = growSlice(s.regs, pb.nreg*regWords)
	s.word = growSlice(s.word, blockWords)
	relative := pb.nreg > 0
	if relative {
		s.tails = growSlice(s.tails, len(pb.tails)*regWords)
	} else {
		nw := (pb.n + 63) / 64
		s.tails = growSlice(s.tails, len(pb.tails)*nw)
		for k, o := range pb.ops {
			s.abs[k] = o.Set.words
		}
		for t := range pb.tails {
			s.abs[nops+t] = s.tails[t*nw : (t+1)*nw]
		}
	}
	tiles := 0
	for _, w := range windows {
		lo, hi := max(w.Lo, 0), min(w.Hi, pb.n)
		if lo >= hi {
			continue
		}
		wlo, whi := lo>>6, (hi+63)>>6
		for t := wlo; t < whi; {
			e := min((t/pb.tile+1)*pb.tile, whi)
			tiles++
			blo, bhi := t, e
			if blo == wlo && lo&63 != 0 {
				pb.execEdge(s, counts, blo, wordMask(blo, lo, hi))
				blo++
			}
			if bhi == whi && hi&63 != 0 && bhi > blo {
				bhi--
				pb.execEdge(s, counts, bhi, wordMask(bhi, lo, hi))
			}
			switch {
			case blo >= bhi:
			case relative:
				pb.load(s, blo, bhi)
				for ti := range pb.tails {
					s.rel[nops+ti] = s.tails[ti*regWords : ti*regWords+bhi-blo]
				}
				pb.fillTails(s.rel, 0, bhi-blo)
				pb.run(s.rel, s.word, counts, 0, bhi-blo)
			default:
				pb.fillTails(s.abs, blo, bhi)
				pb.run(s.abs, s.word, counts, blo, bhi)
			}
			t = e
		}
	}
	// Drop the operand references before pooling the scratch.
	clear(s.abs)
	clear(s.rel)
	execPool.Put(s)
	return tiles
}

// load points the first len(ops) tile-relative sources at words [lo, hi)
// of each operand; the range lies within one register tile.
func (pb *PlanBatch) load(s *execScratch, lo, hi int) {
	for k, o := range pb.ops {
		if r := pb.reg[k]; r >= 0 {
			s.rel[k] = o.C.tileWords(lo, hi, s.regs[r*regWords:(r+1)*regWords])
		} else {
			s.rel[k] = o.Set.words[lo:hi]
		}
	}
}

// execEdge counts word wi of a window whose edge cuts it: every source is
// loaded for that word alone and masked, so the ordinary kernels count
// only the window's users.
func (pb *PlanBatch) execEdge(s *execScratch, counts []int, wi int, mask uint64) {
	pb.load(s, wi, wi+1)
	for k := range s.rel {
		if k < len(pb.ops) {
			s.edge[k] = s.rel[k][0] & mask
		}
		s.rel[k] = s.edge[k : k+1]
	}
	pb.fillTails(s.rel, 0, 1)
	pb.run(s.rel, s.word, counts, 0, 1)
}

// fillTails intersects each shared tail's members over words [lo, hi) of
// src into its register source.
func (pb *PlanBatch) fillTails(src [][]uint64, lo, hi int) {
	for t, members := range pb.tails {
		w := src[len(pb.ops)+t][lo:hi]
		copy(w, src[members[0]][lo:hi])
		for _, m := range members[1:] {
			andInto(w, src[m][lo:hi])
		}
	}
}

// run counts every root and fused child over words [lo, hi) of src; the
// generic kernels build their words in w, which holds a whole tile.
func (pb *PlanBatch) run(src [][]uint64, w []uint64, counts []int, lo, hi int) {
	for _, pr := range pb.pairs {
		l0, l1 := &pb.roots[pr[0]], &pb.roots[pr[1]]
		cp0, ck0, cp1, ck1 := countPairRange2(src[l0.base], src[l1.base], src[l0.and[0]], src[l0.kids[0].extra[0]], lo, hi)
		counts[l0.slot] += cp0
		counts[l0.kids[0].idx] += ck0
		counts[l1.slot] += cp1
		counts[l1.kids[0].idx] += ck1
	}
	for ri := range pb.roots {
		if pb.paired != nil && pb.paired[ri] {
			continue
		}
		lr := &pb.roots[ri]
		if len(lr.kids) == 0 {
			counts[lr.slot] += lr.countRange(src, w, lo, hi)
			continue
		}
		lr.countChainRange(src, w, counts, lo, hi)
	}
}

// andInto intersects src into dst word by word.
func andInto(dst, src []uint64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] &= src[i]
	}
}

// countRange counts the request's matches within words [lo, hi), building
// the generic case's word in w.
func (lr *loweredReq) countRange(src [][]uint64, w []uint64, lo, hi int) int {
	base := src[lr.base]
	if len(lr.not) == 0 {
		switch len(lr.and) {
		case 0:
			return countRange1(base, lo, hi)
		case 1:
			return countAndRange(base, src[lr.and[0]], lo, hi)
		case 2:
			return countAnd3Range(base, src[lr.and[0]], src[lr.and[1]], lo, hi)
		case 3:
			return countAnd4Range(base, src[lr.and[0]], src[lr.and[1]], src[lr.and[2]], lo, hi)
		}
	}
	w = lr.word(w[:hi-lo], src, lo, hi)
	return countRange1(w, 0, len(w))
}

// word writes the request's word (base ∩ and… \ not…) over [lo, hi) into
// w, operand by operand.
func (lr *loweredReq) word(w []uint64, src [][]uint64, lo, hi int) []uint64 {
	copy(w, src[lr.base][lo:hi])
	for _, k := range lr.and {
		andInto(w, src[k][lo:hi])
	}
	for _, k := range lr.not {
		s := src[k][lo:hi]
		s = s[:len(w)]
		for i := range w {
			w[i] &^= s[i]
		}
	}
	return w
}

// countChainRange evaluates a parent request and all of its fused children
// over words [lo, hi): the parent's word is computed once, into w, and each
// child refines it with its extra sets, so the shared prefix costs one
// evaluation per word for the whole chain.
func (lr *loweredReq) countChainRange(src [][]uint64, w []uint64, counts []int, lo, hi int) {
	ri := lr.slot
	if len(lr.not) == 0 && len(lr.kids) == 1 && len(lr.kids[0].extra) == 1 {
		kid := &lr.kids[0]
		switch len(lr.and) {
		case 1:
			cp, ck := countPairRange(src[lr.base], src[lr.and[0]], src[kid.extra[0]], lo, hi)
			counts[ri] += cp
			counts[kid.idx] += ck
			return
		case 2:
			cp, ck := countPair3Range(src[lr.base], src[lr.and[0]], src[lr.and[1]], src[kid.extra[0]], lo, hi)
			counts[ri] += cp
			counts[kid.idx] += ck
			return
		}
	}
	// Generic chain: materialize the parent's words for this tile into w,
	// then count the parent and each child with tight two-slice loops
	// (per-word stores into counts would wreck the loop).
	w = lr.word(w[:hi-lo], src, lo, hi)
	counts[ri] += countRange1(w, 0, len(w))
	var ebuf [maxChainSets][]uint64
	for ki := range lr.kids {
		k := &lr.kids[ki]
		ck := 0
		if len(k.extra) == 1 {
			e := src[k.extra[0]][lo:hi]
			e = e[:len(w)]
			for i := range w {
				ck += bits.OnesCount64(w[i] & e[i])
			}
		} else {
			ex := ebuf[:len(k.extra)]
			for j, s := range k.extra {
				ex[j] = src[s][lo:hi]
			}
			for i := range w {
				x := w[i]
				for _, s := range ex {
					x &= s[i]
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

// countAnd4Range popcounts a ∩ b ∩ d ∩ e over [lo, hi) — the audit
// campaign's commonest spec shape (two options AND a demographic class AND
// the location scope), on which the generic word loop more than doubled a
// serial query's latency.
func countAnd4Range(a, b, d, e []uint64, lo, hi int) int {
	a = a[lo:hi]
	b = b[lo:hi]
	d = d[lo:hi]
	e = e[lo:hi]
	b = b[:len(a)]
	d = d[:len(a)]
	e = e[:len(a)]
	c, i := 0, 0
	for ; i+4 <= len(a); i += 4 {
		c += bits.OnesCount64(a[i]&b[i]&d[i]&e[i]) +
			bits.OnesCount64(a[i+1]&b[i+1]&d[i+1]&e[i+1]) +
			bits.OnesCount64(a[i+2]&b[i+2]&d[i+2]&e[i+2]) +
			bits.OnesCount64(a[i+3]&b[i+3]&d[i+3]&e[i+3])
	}
	for ; i < len(a); i++ {
		c += bits.OnesCount64(a[i] & b[i] & d[i] & e[i])
	}
	return c
}
