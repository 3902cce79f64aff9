package audience

import "fmt"

// This file adds the dense-accumulator × compressed-operand kernels that
// CSetOnly shards and snapshot-backed interfaces evaluate with: a scratch
// Set accumulates a spec's clauses directly from the catalog's CSets, so
// neither posture ever materializes (or retains) the dense form of an
// option audience. Per chunk the work is container-wise — absent chunks
// cost one clear (AndWithC) or nothing (OrWithC/AndNotWithC) — which is
// what keeps a 2^24-user shard's resident set far below the dense-catalog
// footprint.

// checkCompatC panics if c is not over the same universe as s.
func (s *Set) checkCompatC(c *CSet) {
	if s.n != c.n {
		panic(fmt.Sprintf("audience: universe size mismatch %d != %d", s.n, c.n))
	}
}

// chunkWordsOf returns s's word slice backing chunk key, short for the final
// chunk of a non-multiple universe.
func (s *Set) chunkWordsOf(key uint32) []uint64 {
	base := int(key) * chunkWords
	end := base + chunkWords
	if end > len(s.words) {
		end = len(s.words)
	}
	return s.words[base:end]
}

// OrWithC sets s = s ∪ c in place. Only c's non-empty chunks are touched.
func (s *Set) OrWithC(c *CSet) {
	s.checkCompatC(c)
	for ci, key := range c.keys {
		expandChunk(&c.conts[ci], s.chunkWordsOf(key))
	}
}

// AndWithC sets s = s ∩ c in place. Chunks absent from c are cleared
// wholesale; present chunks intersect container-wise.
func (s *Set) AndWithC(c *CSet) {
	s.checkCompatC(c)
	var scratch [chunkWords]uint64
	nChunks := (len(s.words) + chunkWords - 1) / chunkWords
	ci := 0
	for key := uint32(0); int(key) < nChunks; key++ {
		for ci < len(c.keys) && c.keys[ci] < key {
			ci++
		}
		dst := s.chunkWordsOf(key)
		if ci >= len(c.keys) || c.keys[ci] != key {
			clear(dst)
			continue
		}
		cont := &c.conts[ci]
		if cont.typ == ctBitmap {
			andWords(dst, cont.bits)
			continue
		}
		words := scratch[:len(dst)]
		clear(words)
		expandChunk(cont, words)
		andWords(dst, words)
	}
}

// AndNotWithC sets s = s \ c in place. Only c's non-empty chunks are
// touched; array and run containers subtract without expansion.
func (s *Set) AndNotWithC(c *CSet) {
	s.checkCompatC(c)
	for ci, key := range c.keys {
		dst := s.chunkWordsOf(key)
		cont := &c.conts[ci]
		switch cont.typ {
		case ctArray:
			for _, v := range cont.arr {
				dst[v>>6] &^= 1 << uint(v&63)
			}
		case ctBitmap:
			andNotWords(dst, cont.bits)
		case ctRun:
			for _, r := range cont.runs {
				clearBitRange(dst, int(r.start), int(r.last)+1)
			}
		}
	}
}

// andWords, andNotWords and orWords combine src into dst word by word,
// four words per iteration: the bitmap containers' kernels. src must be at
// least as long as dst.
func andWords(dst, src []uint64) {
	src = src[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, s := dst[i:i+4:i+4], src[i:i+4:i+4]
		d[0] &= s[0]
		d[1] &= s[1]
		d[2] &= s[2]
		d[3] &= s[3]
	}
	for ; i < len(dst); i++ {
		dst[i] &= src[i]
	}
}

func andNotWords(dst, src []uint64) {
	src = src[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, s := dst[i:i+4:i+4], src[i:i+4:i+4]
		d[0] &^= s[0]
		d[1] &^= s[1]
		d[2] &^= s[2]
		d[3] &^= s[3]
	}
	for ; i < len(dst); i++ {
		dst[i] &^= src[i]
	}
}

func orWords(dst, src []uint64) {
	src = src[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d, s := dst[i:i+4:i+4], src[i:i+4:i+4]
		d[0] |= s[0]
		d[1] |= s[1]
		d[2] |= s[2]
		d[3] |= s[3]
	}
	for ; i < len(dst); i++ {
		dst[i] |= src[i]
	}
}

// setBitRange sets bit indices [lo, hi) of a word slice.
func setBitRange(words []uint64, lo, hi int) {
	if lo >= hi {
		return
	}
	loW, hiW := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << uint(lo&63)
	hiMask := ^uint64(0) >> uint(63-(hi-1)&63)
	if loW == hiW {
		words[loW] |= loMask & hiMask
		return
	}
	words[loW] |= loMask
	for i := loW + 1; i < hiW; i++ {
		words[i] = ^uint64(0)
	}
	words[hiW] |= hiMask
}

// clearBitRange zeroes bit indices [lo, hi) of a word slice.
func clearBitRange(words []uint64, lo, hi int) {
	if lo >= hi {
		return
	}
	loW, hiW := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << uint(lo&63)
	hiMask := ^uint64(0) >> uint(63-(hi-1)&63)
	if loW == hiW {
		words[loW] &^= loMask & hiMask
		return
	}
	words[loW] &^= loMask
	for i := loW + 1; i < hiW; i++ {
		words[i] = 0
	}
	words[hiW] &^= hiMask
}
