package audience

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"unsafe"
)

// This file implements CSet, a roaring-style compressed bitset. A dense Set
// spends one word per 64 users regardless of how many users it actually
// holds; most interest audiences are only a few percent dense, so a full
// catalog of dense sets is dominated by zero words and every count query
// streams them all. CSet splits the universe into chunks of 2^16 users and
// stores each non-empty chunk in whichever of three container forms is
// smallest:
//
//   - array: the sorted 16-bit member offsets (sparse chunks, ≤4096 members)
//   - bitmap: the chunk's dense words (heavily populated chunks)
//   - run: sorted [start, last] intervals (clustered chunks)
//
// Empty chunks cost nothing, which is what makes 2^24-user shards fit: an
// audience touching 1% of such a universe stores ~2 bytes per member instead
// of 2 MiB of mostly-zero words. The plan executor (batch.go) loads a
// CSet one 64-word tile at a time: a bitmap container's words in place, an
// empty chunk as a shared zero tile, and an array or run container's
// members expanded into a register.
//
// A CSet has one representation: its canonical blob, the byte encoding a
// snapshot file (internal/snapshot) stores per catalog option. The typed
// container slices the kernels read alias the blob's payload windows, so a
// set built in memory (FromSet) and one decoded over an mmap'd file
// (DecodeCSet) are the same thing and run the same kernels.
//
// Blob layout (all little-endian):
//
//	header (24 bytes):
//	  u64 n      universe size
//	  u64 card   total membership
//	  u32 nconts non-empty chunk count
//	  u32 pad    zero
//	directory (20 bytes per container):
//	  u32 key    chunk index, strictly ascending
//	  u8  typ    0 array | 1 bitmap | 2 run
//	  u8  pad[3] zero
//	  u32 count  payload elements (members | words | runs)
//	  u32 card   container membership
//	  u32 off    payload byte offset (8-aligned, relative to payload base)
//	payload base: directory end rounded up to 8 bytes
//	payloads, each zero-padded to 8 bytes:
//	  array:  count × u16 member offsets, ascending
//	  bitmap: count × u64 chunk words
//	  run:    count × (u16 start, u16 last) inclusive intervals, ascending

const (
	// chunkBits is the log2 of the chunk width: one container covers 2^16
	// user indices, the classic roaring chunk.
	chunkBits  = 16
	chunkSize  = 1 << chunkBits
	chunkWords = chunkSize / 64

	// arrayCutoff is the largest membership an array container may hold;
	// past it a bitmap (8 KiB) is smaller than the 2-byte entries.
	arrayCutoff = chunkSize / 16

	blobHeader   = 24
	blobDirEntry = 20
)

// ErrBadCSetBlob marks a blob DecodeCSet rejected: truncation,
// out-of-bounds offsets, non-ascending keys, or an unknown container form.
// Match with errors.Is.
var ErrBadCSetBlob = errors.New("audience: malformed cset blob")

// littleEndian reports whether the host stores integers little-endian, the
// blob's byte order — the condition for aliasing payloads in place.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Container forms.
type ctype uint8

const (
	ctArray ctype = iota
	ctBitmap
	ctRun
)

// crun is one interval of consecutive members, inclusive on both ends
// (an exclusive end could not express a run touching offset 65535). Its
// memory layout is the blob's (u16 start, u16 last) pair.
type crun struct {
	start, last uint16
}

// container holds one non-empty chunk in its chosen form. Exactly one of
// arr, bits, runs is non-nil, per typ; card caches the membership count.
type container struct {
	typ  ctype
	card int
	arr  []uint16
	bits []uint64
	runs []crun
}

// CSet is a compressed audience set over user indices [0, Len()). CSets are
// immutable: they are built from a dense Set (FromSet) or decoded from a
// blob (DecodeCSet) and queried, never mutated, which is what lets compiled
// plans and snapshot-backed interfaces share them freely across goroutines.
type CSet struct {
	n     int
	id    uint64 // process-unique, minted from Set's counter
	card  int
	keys  []uint32 // chunk indices of non-empty chunks, ascending
	conts []container
	blob  []byte // canonical encoding; the container slices alias it when aligned
}

// chunkForm is one non-empty chunk's chosen container form, as FromSet
// sizes the blob before writing it.
type chunkForm struct {
	key         uint32
	typ         ctype
	card, count int
}

// payloadBytes is the form's unpadded payload size.
func (f *chunkForm) payloadBytes() int {
	switch f.typ {
	case ctArray:
		return 2 * f.count
	case ctBitmap:
		return 8 * f.count
	default:
		return 4 * f.count
	}
}

// FromSet compresses a dense set. Each chunk picks the smallest of the
// three container forms and is packed straight into the set's blob; the
// result is bit-identical to s (ToSet inverts it exactly, property-tested
// at container-boundary sizes), and the same set always yields the same
// bytes.
func FromSet(s *Set) *CSet {
	nw := len(s.words)
	var forms []chunkForm
	card, payload := 0, 0
	for base := 0; base < nw; base += chunkWords {
		f, ok := chooseForm(s.words[base:min(base+chunkWords, nw)])
		if !ok {
			continue
		}
		f.key = uint32(base / chunkWords)
		forms = append(forms, f)
		card += f.card
		payload += align8(f.payloadBytes())
	}
	payloadBase := align8(blobHeader + len(forms)*blobDirEntry)
	blob := make([]byte, payloadBase+payload)
	binary.LittleEndian.PutUint64(blob[0:8], uint64(s.n))
	binary.LittleEndian.PutUint64(blob[8:16], uint64(card))
	binary.LittleEndian.PutUint32(blob[16:20], uint32(len(forms)))
	off := 0
	for i := range forms {
		f := &forms[i]
		ent := blob[blobHeader+i*blobDirEntry:]
		binary.LittleEndian.PutUint32(ent[0:4], f.key)
		ent[4] = byte(f.typ)
		binary.LittleEndian.PutUint32(ent[8:12], uint32(f.count))
		binary.LittleEndian.PutUint32(ent[12:16], uint32(f.card))
		binary.LittleEndian.PutUint32(ent[16:20], uint32(off))
		base := int(f.key) * chunkWords
		packChunk(blob[payloadBase+off:], s.words[base:min(base+chunkWords, nw)], f.typ)
		off += align8(f.payloadBytes())
	}
	c, err := DecodeCSet(blob)
	if err != nil {
		panic(fmt.Sprintf("audience: FromSet produced an undecodable blob: %v", err))
	}
	return c
}

// chooseForm picks one chunk's smallest container form. It reports false
// for an empty chunk.
func chooseForm(words []uint64) (chunkForm, bool) {
	card, runs := 0, 0
	var carry uint64 // last bit of the previous word
	for _, w := range words {
		card += bits.OnesCount64(w)
		// A run starts at every 0→1 transition; shifting in the previous
		// word's top bit catches runs crossing word boundaries.
		runs += bits.OnesCount64(w &^ (w<<1 | carry))
		carry = w >> 63
	}
	if card == 0 {
		return chunkForm{}, false
	}
	arrayBytes, bitmapBytes, runBytes := 2*card, 8*len(words), 4*runs
	if card > arrayCutoff {
		arrayBytes = 1 << 30
	}
	switch {
	case runBytes < arrayBytes && runBytes < bitmapBytes:
		return chunkForm{typ: ctRun, card: card, count: runs}, true
	case arrayBytes <= bitmapBytes:
		return chunkForm{typ: ctArray, card: card, count: card}, true
	default:
		return chunkForm{typ: ctBitmap, card: card, count: len(words)}, true
	}
}

// packChunk writes one chunk's members into dst, its payload window, in
// the given form.
func packChunk(dst []byte, words []uint64, typ ctype) {
	switch typ {
	case ctArray:
		k := 0
		for wi, w := range words {
			for w != 0 {
				binary.LittleEndian.PutUint16(dst[k:], uint16(wi<<6+bits.TrailingZeros64(w)))
				k += 2
				w &= w - 1
			}
		}
	case ctBitmap:
		for i, w := range words {
			binary.LittleEndian.PutUint64(dst[8*i:], w)
		}
	case ctRun:
		k := 0
		inRun := false
		var start int
		for wi, w := range words {
			for b := 0; b < 64; b++ {
				set := w&(1<<uint(b)) != 0
				switch {
				case set && !inRun:
					start = wi<<6 + b
					inRun = true
				case !set && inRun:
					binary.LittleEndian.PutUint16(dst[k:], uint16(start))
					binary.LittleEndian.PutUint16(dst[k+2:], uint16(wi<<6+b-1))
					k += 4
					inRun = false
				}
			}
		}
		if inRun {
			binary.LittleEndian.PutUint16(dst[k:], uint16(start))
			binary.LittleEndian.PutUint16(dst[k+2:], uint16(len(words)<<6-1))
		}
	}
}

func align8(n int) int { return (n + 7) &^ 7 }

// DecodeCSet returns the compressed set a blob encodes. The header and
// directory are validated eagerly — every payload window must lie inside
// the blob, keys must ascend, bitmap widths must match their chunk — and so
// are the members of the universe's final short chunk, whose offsets index
// shorter word slices. Full-chunk payloads are never read: a u16 offset
// cannot escape a 2^16-user chunk, so every kernel stays in bounds on any
// blob this accepts, and decoding an mmap'd snapshot touches only its
// directory pages.
//
// On a little-endian host an 8-aligned blob is aliased: each container's
// payload slice points into blob, which must then stay alive and unmodified
// as long as the set is in use. Otherwise the payloads are copied into
// fresh slices. Snapshot blobs are always 8-aligned: sections are
// page-aligned and every blob length is a multiple of 8.
func DecodeCSet(blob []byte) (*CSet, error) {
	if len(blob) < blobHeader {
		return nil, fmt.Errorf("%w: %d-byte blob shorter than header", ErrBadCSetBlob, len(blob))
	}
	n64 := binary.LittleEndian.Uint64(blob[0:8])
	card64 := binary.LittleEndian.Uint64(blob[8:16])
	nconts := int(binary.LittleEndian.Uint32(blob[16:20]))
	const maxInt = int(^uint(0) >> 1)
	if n64 > uint64(maxInt) || card64 > n64 {
		return nil, fmt.Errorf("%w: universe %d / cardinality %d", ErrBadCSetBlob, n64, card64)
	}
	n := int(n64)
	maxChunks := (n + chunkSize - 1) / chunkSize
	if nconts > maxChunks {
		return nil, fmt.Errorf("%w: %d containers over a %d-chunk universe", ErrBadCSetBlob, nconts, maxChunks)
	}
	payloadBase := align8(blobHeader + nconts*blobDirEntry)
	if payloadBase > len(blob) {
		return nil, fmt.Errorf("%w: directory truncated at %d of %d bytes", ErrBadCSetBlob, len(blob), payloadBase)
	}
	data := blob[payloadBase:]
	alias := littleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(blob)))%8 == 0
	c := &CSet{
		n:     n,
		id:    setIDs.Add(1),
		card:  int(card64),
		keys:  make([]uint32, nconts),
		conts: make([]container, nconts),
		blob:  blob,
	}
	lastShortWords := 0 // word width of a trailing partial chunk, 0 if none
	if rem := n % chunkSize; rem != 0 {
		lastShortWords = (rem + 63) / 64
	}
	cardSum := 0
	for i := 0; i < nconts; i++ {
		ent := blob[blobHeader+i*blobDirEntry:]
		key := binary.LittleEndian.Uint32(ent[0:4])
		typ := ctype(ent[4])
		count := int(binary.LittleEndian.Uint32(ent[8:12]))
		card := int(binary.LittleEndian.Uint32(ent[12:16]))
		off := int(binary.LittleEndian.Uint32(ent[16:20]))
		if i > 0 && key <= c.keys[i-1] {
			return nil, fmt.Errorf("%w: chunk keys not ascending at entry %d", ErrBadCSetBlob, i)
		}
		if int(key) >= maxChunks {
			return nil, fmt.Errorf("%w: chunk key %d beyond universe %d", ErrBadCSetBlob, key, n)
		}
		chunkW := chunkWords
		isLast := int(key) == maxChunks-1 && lastShortWords != 0
		if isLast {
			chunkW = lastShortWords
		}
		var size int
		switch typ {
		case ctArray:
			if count == 0 || count != card || count > arrayCutoff {
				return nil, fmt.Errorf("%w: array container %d count %d card %d", ErrBadCSetBlob, i, count, card)
			}
			size = 2 * count
		case ctBitmap:
			if count != chunkW {
				return nil, fmt.Errorf("%w: bitmap container %d has %d words, chunk needs %d", ErrBadCSetBlob, i, count, chunkW)
			}
			if card <= 0 || card > count*64 {
				return nil, fmt.Errorf("%w: bitmap container %d card %d", ErrBadCSetBlob, i, card)
			}
			size = 8 * count
		case ctRun:
			if count == 0 || card < count || card > chunkSize {
				return nil, fmt.Errorf("%w: run container %d count %d card %d", ErrBadCSetBlob, i, count, card)
			}
			size = 4 * count
		default:
			return nil, fmt.Errorf("%w: unknown container form %d", ErrBadCSetBlob, typ)
		}
		if off%8 != 0 || off < 0 || off+size > len(data) {
			return nil, fmt.Errorf("%w: container %d payload [%d, %d) outside %d-byte area", ErrBadCSetBlob, i, off, off+size, len(data))
		}
		p := data[off : off+size]
		cont := &c.conts[i]
		*cont = container{typ: typ, card: card}
		switch {
		case typ == ctArray && alias:
			cont.arr = unsafe.Slice((*uint16)(unsafe.Pointer(&p[0])), count)
		case typ == ctArray:
			cont.arr = make([]uint16, count)
			for k := range cont.arr {
				cont.arr[k] = binary.LittleEndian.Uint16(p[2*k:])
			}
		case typ == ctBitmap && alias:
			cont.bits = unsafe.Slice((*uint64)(unsafe.Pointer(&p[0])), count)
		case typ == ctBitmap:
			cont.bits = make([]uint64, count)
			for k := range cont.bits {
				cont.bits[k] = binary.LittleEndian.Uint64(p[8*k:])
			}
		case alias:
			cont.runs = unsafe.Slice((*crun)(unsafe.Pointer(&p[0])), count)
		default:
			cont.runs = make([]crun, count)
			for k := range cont.runs {
				cont.runs[k] = crun{binary.LittleEndian.Uint16(p[4*k:]), binary.LittleEndian.Uint16(p[4*k+2:])}
			}
		}
		c.keys[i] = key
		if isLast {
			if err := checkShortChunk(cont, lastShortWords*64); err != nil {
				return nil, err
			}
		}
		cardSum += card
	}
	if cardSum != c.card {
		return nil, fmt.Errorf("%w: container cards sum to %d, header says %d", ErrBadCSetBlob, cardSum, c.card)
	}
	return c, nil
}

// checkShortChunk validates a final-partial-chunk container: its member
// offsets must stay below the chunk's local bit width, or the expand and
// subtract kernels would index past a short word slice.
func checkShortChunk(cont *container, limit int) error {
	for _, v := range cont.arr {
		if int(v) >= limit {
			return fmt.Errorf("%w: short-chunk member %d beyond %d", ErrBadCSetBlob, v, limit)
		}
	}
	for _, r := range cont.runs {
		if r.start > r.last || int(r.last) >= limit {
			return fmt.Errorf("%w: short-chunk run [%d, %d] beyond %d", ErrBadCSetBlob, r.start, r.last, limit)
		}
	}
	return nil
}

// Blob returns the set's canonical encoding — the bytes DecodeCSet reads
// and a snapshot stores. Callers must not modify it.
func (c *CSet) Blob() []byte { return c.blob }

// ToSet decompresses back to a dense set.
func (c *CSet) ToSet() *Set {
	s := New(c.n)
	c.orInto(s)
	return s
}

// orInto ORs c's members into s, a set over the same universe, container
// by container.
func (c *CSet) orInto(s *Set) {
	if s.n != c.n {
		panic(fmt.Sprintf("audience: universe size mismatch %d != %d", s.n, c.n))
	}
	for ci, key := range c.keys {
		base := int(key) * chunkWords
		expandChunk(&c.conts[ci], s.words[base:min(base+chunkWords, len(s.words))])
	}
}

// Union returns the union of operands over n users as one dense operand:
// dense members are ORed word by word, compressed-only members expanded
// container by container.
func Union(n int, ops []Operand) Operand {
	u := New(n)
	for _, o := range ops {
		if o.Set != nil {
			u.OrWith(o.Set)
		} else {
			o.C.orInto(u)
		}
	}
	return Operand{Set: u}
}

// tileWords returns words [lo, hi) of the set, a range within one chunk:
// a bitmap container's own words, the shared zero tile when the chunk is
// empty (hi-lo ≤ regWords), or the chunk's members in the range expanded
// into reg.
func (c *CSet) tileWords(lo, hi int, reg []uint64) []uint64 {
	ci, ok := c.findChunk(uint32(lo / chunkWords))
	if !ok {
		return zeroTile[:hi-lo]
	}
	cont := &c.conts[ci]
	off := lo % chunkWords
	if cont.typ == ctBitmap {
		return cont.bits[off : off+hi-lo]
	}
	reg = reg[:hi-lo]
	clear(reg)
	blo, bhi := off<<6, (off+hi-lo)<<6
	if cont.typ == ctArray {
		i, _ := slices.BinarySearch(cont.arr, uint16(blo))
		for _, v := range cont.arr[i:] {
			b := int(v) - blo
			if b >= len(reg)<<6 {
				break
			}
			if b >= 0 { // always, unless a corrupt blob's array is unsorted
				reg[b>>6] |= 1 << uint(b&63)
			}
		}
		return reg
	}
	i := sort.Search(len(cont.runs), func(j int) bool { return int(cont.runs[j].last) >= blo })
	for _, r := range cont.runs[i:] {
		if int(r.start) >= bhi {
			break
		}
		setBitRange(reg, max(int(r.start), blo)-blo, min(int(r.last)+1, bhi)-blo)
	}
	return reg
}

// expandChunk ORs one container's members into dst (the chunk's words).
// Runs fill whole words at a time; an inverted run in a corrupt blob is an
// empty range and expands to nothing instead of wrapping past the chunk.
func expandChunk(cont *container, dst []uint64) {
	switch cont.typ {
	case ctArray:
		for _, v := range cont.arr {
			dst[v>>6] |= 1 << uint(v&63)
		}
	case ctBitmap:
		for i, w := range cont.bits[:len(dst)] {
			dst[i] |= w
		}
	case ctRun:
		for _, r := range cont.runs {
			setBitRange(dst, int(r.start), int(r.last)+1)
		}
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

// Len returns the universe size.
func (c *CSet) Len() int { return c.n }

// Count returns the number of users in the set (cached; O(1)).
func (c *CSet) Count() int { return c.card }

// Bytes reports the approximate footprint of the container payloads, the
// number the dense/compressed memory comparison in DESIGN.md §9 uses.
func (c *CSet) Bytes() int {
	b := 4 * len(c.keys)
	for i := range c.conts {
		cont := &c.conts[i]
		b += 2*len(cont.arr) + 8*len(cont.bits) + 4*len(cont.runs)
	}
	return b
}

// Contains reports whether user index i is in the set.
func (c *CSet) Contains(i int) bool {
	if i < 0 || i >= c.n {
		return false
	}
	ci, ok := c.findChunk(uint32(i >> chunkBits))
	if !ok {
		return false
	}
	return containerContains(&c.conts[ci], uint16(i&(chunkSize-1)))
}

// findChunk locates the container index of a chunk key.
func (c *CSet) findChunk(key uint32) (int, bool) {
	return slices.BinarySearch(c.keys, key)
}

// containerContains reports membership of offset v in one container.
func containerContains(cont *container, v uint16) bool {
	switch cont.typ {
	case ctArray:
		i := sort.Search(len(cont.arr), func(j int) bool { return cont.arr[j] >= v })
		return i < len(cont.arr) && cont.arr[i] == v
	case ctBitmap:
		return cont.bits[v>>6]&(1<<uint(v&63)) != 0
	default:
		i := sort.Search(len(cont.runs), func(j int) bool { return cont.runs[j].last >= v })
		return i < len(cont.runs) && cont.runs[i].start <= v
	}
}
