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
// it is hot.

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

// loweredReq is one root's kernel view: the source indices of its
// operands (base ∩ and… \ not…).
type loweredReq struct {
	base int
	and  []int
	not  []int
}

// execScratch is one execution's mutable state, pooled across schedules:
// the source table, the registers, the masked edge words, and the generic
// kernel's word buffer (one tile long).
type execScratch struct {
	src  [][]uint64
	regs []uint64
	edge []uint64
	word []uint64
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
//
// Each window is walked tile by tile on the tile grid: every tile loads
// each distinct operand once, then every root counts from hot words via
// the batch kernels. A window's unaligned edge words run as one-word tiles
// whose every source is masked to the window. All per-execution state
// comes from a pool, so steady-state executions allocate nothing but the
// result slice.
func (pb *PlanBatch) Exec(windows []Window) ([]int, int) {
	counts := make([]int, len(pb.roots))
	var whole [1]Window
	if windows == nil {
		whole[0] = Window{0, pb.n}
		windows = whole[:]
	}
	s := execPool.Get().(*execScratch)
	s.src = growSlice(s.src, len(pb.ops))
	s.edge = growSlice(s.edge, len(pb.ops))
	s.regs = growSlice(s.regs, pb.nreg*regWords)
	s.word = growSlice(s.word, pb.tile)
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
			if blo < bhi {
				pb.load(s, blo, bhi)
				pb.run(s, counts)
			}
			t = e
		}
	}
	// Drop the operand references before pooling the scratch.
	clear(s.src)
	execPool.Put(s)
	return counts, tiles
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

// load points every source at words [lo, hi) of its operand, a range
// within one tile: dense words re-sliced, and each compressed-only operand
// through its register — its bitmap container's words in place, the
// shared zero tile for an empty chunk, or the tile's array or run members
// expanded into the register.
func (pb *PlanBatch) load(s *execScratch, lo, hi int) {
	for k, o := range pb.ops {
		if r := pb.reg[k]; r >= 0 {
			s.src[k] = o.C.tileWords(lo, hi, s.regs[r*regWords:(r+1)*regWords])
		} else {
			s.src[k] = o.Set.words[lo:hi]
		}
	}
}

// execEdge counts word wi of a window whose edge cuts it: every source is
// loaded for that word alone and masked, so the ordinary kernels count
// only the window's users.
func (pb *PlanBatch) execEdge(s *execScratch, counts []int, wi int, mask uint64) {
	pb.load(s, wi, wi+1)
	for k := range s.src {
		s.edge[k] = s.src[k][0] & mask
		s.src[k] = s.edge[k : k+1]
	}
	pb.run(s, counts)
}

// run counts every root over the loaded tile.
func (pb *PlanBatch) run(s *execScratch, counts []int) {
	for i := range pb.roots {
		counts[i] += pb.roots[i].count(s.src, s.word)
	}
}

// andInto intersects src into dst word by word.
func andInto(dst, src []uint64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] &= src[i]
	}
}

// count counts the request's matches in the loaded tile, building the
// generic case's word in w, which holds a whole tile.
func (lr *loweredReq) count(src [][]uint64, w []uint64) int {
	base := src[lr.base]
	if len(lr.not) == 0 {
		switch len(lr.and) {
		case 0:
			return countWords(base)
		case 1:
			return countAnd(base, src[lr.and[0]])
		case 2:
			return countAnd3(base, src[lr.and[0]], src[lr.and[1]])
		case 3:
			return countAnd4(base, src[lr.and[0]], src[lr.and[1]], src[lr.and[2]])
		}
	}
	w = w[:len(base)]
	copy(w, base)
	for _, k := range lr.and {
		andInto(w, src[k])
	}
	for _, k := range lr.not {
		s := src[k][:len(w)]
		for i := range w {
			w[i] &^= s[i]
		}
	}
	return countWords(w)
}

// countWords popcounts one word slice, four words per iteration.
func countWords(a []uint64) int {
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

// countAnd popcounts a ∩ b, four words per iteration.
func countAnd(a, b []uint64) int {
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

// countAnd3 popcounts a ∩ b ∩ d — the scoped auditor's dominant shape (two
// options AND the location scope).
func countAnd3(a, b, d []uint64) int {
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

// countAnd4 popcounts a ∩ b ∩ d ∩ e — the audit campaign's commonest spec
// shape (two options AND a demographic class AND the location scope), on
// which the generic word loop more than doubled a serial query's latency.
func countAnd4(a, b, d, e []uint64) int {
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
