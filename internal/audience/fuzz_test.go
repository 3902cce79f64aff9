package audience

import (
	"errors"
	"testing"

	"repro/internal/xrand"
)

// fuzzSizes are the universes the plan-equivalence fuzzer draws from; the
// 2^16±1 entries sit exactly on the CSet container boundary, where chunk
// arithmetic bugs would live.
var fuzzSizes = []int{63, 1000, chunkSize - 1, chunkSize, chunkSize + 1, 2*chunkSize + 100}

// FuzzPlanExecEquivalence decodes arbitrary bytes into a batch of
// and-of-ors requests over a pool of sets (sparse through dense; each
// operand dense or compressed-only), compiles them, and checks that Count,
// the batched Exec, and Exec over seeded windows with unaligned edges agree
// with the naive Set-algebra evaluator. Anything the compiler does —
// operand numbering, tiling, register expansion, edge masking — must be
// invisible here.
func FuzzPlanExecEquivalence(f *testing.F) {
	f.Add(uint8(2), uint64(1), []byte{0x02, 0x00, 0x13, 0x01, 0x27})
	f.Add(uint8(3), uint64(2), []byte{0x03, 0x05, 0x81, 0x12, 0x02, 0x33, 0xa4})
	f.Add(uint8(4), uint64(3), []byte{0x01, 0x44, 0x02, 0x96, 0x07, 0x03, 0x58, 0x1b, 0xe2})
	// Sparse compressed-only bases (0.1% and 1.5% of the users) with dense
	// operands, intersected and subtracted, at 2^16-1 and 2^16+1 users.
	f.Add(uint8(2), uint64(4), []byte{0x02, 0x82, 0x01, 0x04, 0x01, 0x80, 0x02})
	f.Add(uint8(4), uint64(5), []byte{0x02, 0x82, 0x01, 0x04, 0x01, 0x80, 0x02})
	f.Fuzz(func(t *testing.T, sizeSel uint8, seed uint64, prog []byte) {
		n := fuzzSizes[int(sizeSel)%len(fuzzSizes)]
		densities := []float64{0.001, 0.1, 0.45, 0.015, 0.65}
		pool := make([]*Set, len(densities))
		cpool := make([]*CSet, len(densities))
		for i, p := range densities {
			pool[i] = randomSet(xrand.Mix(seed, uint64(i)), n, p)
			cpool[i] = FromSet(pool[i])
		}
		// Each request is one count byte (1–3 clauses) followed by one byte
		// per clause: low bits pick the first member, bit 5 widens the OR
		// with a second member, bit 2 negates (never the first clause), and
		// bit 7 makes the operand compressed-only, as compressed catalogs
		// lower options. A widened clause compiles to its materialized
		// union, compressed-only when bit 7 is set.
		var reqs [][]testClause
		var plans []*Plan
		for pos := 0; pos < len(prog) && len(plans) < 6; {
			nclauses := int(prog[pos])%3 + 1
			pos++
			if pos+nclauses > len(prog) {
				break
			}
			var req []testClause
			var pcs []PlanClause
			for ci := 0; ci < nclauses; ci++ {
				b := prog[pos]
				pos++
				idx := int(b) % len(pool)
				cl := testClause{or: []*Set{pool[idx]}, negate: ci > 0 && b&0x04 != 0}
				pc := PlanClause{Op: Operand{Set: pool[idx]}, Negate: cl.negate}
				if b&0x20 != 0 {
					idx2 := int(b>>3) % len(pool)
					cl.or = append(cl.or, pool[idx2])
					pc.Op = Operand{Set: UnionAll(cl.or...)}
				}
				if b&0x80 != 0 {
					pc.Op = Operand{C: cpool[idx]}
					if len(cl.or) > 1 {
						pc.Op = Operand{C: FromSet(UnionAll(cl.or...))}
					}
				}
				req = append(req, cl)
				pcs = append(pcs, pc)
			}
			reqs = append(reqs, req)
			plans = append(plans, CompilePlan(n, pcs))
		}
		if len(plans) == 0 {
			return
		}
		// Up to three seeded windows, edges anywhere, possibly past the
		// universe or empty.
		rng := xrand.New(seed)
		windows := make([]Window, rng.Intn(4))
		for i := range windows {
			lo := rng.Intn(n+2) - 1
			windows[i] = Window{lo, lo + rng.Intn(n/2+130)}
		}
		pb := CompileBatch(plans)
		got, _ := pb.Exec(nil)
		part, _ := pb.Exec(windows)
		for i, req := range reqs {
			all := naiveSet(req)
			if want := all.Count(); got[i] != want {
				t.Fatalf("n=%d slot=%d: Exec = %d, want %d", n, i, got[i], want)
			} else if solo := plans[i].Count(); solo != want {
				t.Fatalf("n=%d slot=%d: Plan.Count = %d, want %d", n, i, solo, want)
			}
			want := 0
			for _, w := range windows {
				want += all.CountRange(w.Lo, w.Hi)
			}
			if part[i] != want {
				t.Fatalf("n=%d slot=%d windows %v: Exec = %d, want %d", n, i, windows, part[i], want)
			}
		}
	})
}

// FuzzCSetDecode feeds arbitrary bytes to DecodeCSet at an arbitrary
// address offset mod 8, so both the aliasing and the copying path run.
// Every input must be rejected with ErrBadCSetBlob or decode to a set on
// which every kernel returns: loads never read full-chunk payloads, so
// validation alone must keep the kernels in bounds.
func FuzzCSetDecode(f *testing.F) {
	f.Add(uint8(0), invertedRunBlob(2*chunkSize))
	f.Add(uint8(3), invertedRunBlob(chunkSize+1))
	for _, n := range []int{chunkSize - 1, chunkSize, chunkSize + 1} {
		for _, name := range []string{"sparse", "runs", "mixed"} {
			f.Add(uint8(n%8), FromSet(csetShapes(n)[name]).Blob())
		}
	}
	f.Fuzz(func(t *testing.T, off uint8, data []byte) {
		c, err := DecodeCSet(blobAt(data, int(off)))
		if err != nil {
			if !errors.Is(err, ErrBadCSetBlob) {
				t.Fatalf("error %v is not ErrBadCSetBlob", err)
			}
			return
		}
		if c.Len() > 1<<20 {
			return // valid but too large to expand densely here
		}
		exerciseCSet(c)
	})
}

// exerciseCSet runs every kernel over a decoded set — membership, counts,
// one-operand plans over four windows, expansion, Union, and
// register-backed plan executions over the whole universe and unaligned
// windows, with the set beside another compressed-only operand and as the
// base of a plan whose other operands are dense. On any blob DecodeCSet
// accepts none may panic, whatever the payloads hold.
func exerciseCSet(c *CSet) {
	n := c.Len()
	_ = c.Count()
	for _, i := range []int{-1, 0, 1, n / 2, n - 1, n, chunkSize - 1, chunkSize, chunkSize + 1} {
		c.Contains(i)
	}
	for _, w := range [][2]int{{0, n}, {1, n - 1}, {n / 3, 2 * n / 3}, {chunkSize - 3, chunkSize + 3}} {
		planCountRange(c, w[0], w[1])
	}
	c.ToSet()
	acc := NewFromFunc(n, func(i int) bool { return i%3 == 0 })
	Union(n, []Operand{{Set: acc}, {C: c}})
	ca := FromSet(acc)
	regCount(ca, c, false, nil)
	regCount(ca, c, true, []Window{{n / 3, n - 5}})
	regCount(c, ca, false, []Window{{1, n}})
	sevens := NewFromFunc(n, func(i int) bool { return i%7 == 0 })
	basePlan(c, acc, sevens, nil)
	basePlan(c, acc, sevens, []Window{{n / 5, n - 3}})
}

// basePlan counts base ∩ and \ not over windows (nil for the whole
// universe) as a batch of one whose base is compressed-only and whose
// other operands are dense: the schedule reads the base through a
// register tile by tile and the dense operands in place.
func basePlan(base *CSet, and, not *Set, windows []Window) int {
	p := CompilePlan(base.Len(), []PlanClause{{Op: Operand{C: base}}, {Op: Operand{Set: and}}, {Op: Operand{Set: not}, Negate: true}})
	counts, _ := CompileBatch([]*Plan{p}).Exec(windows)
	return counts[0]
}
