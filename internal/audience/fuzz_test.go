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
// and-of-ors requests over a pool of sets (sparse through dense; dense,
// compressed-only, or both), compiles them, and checks that Count, the
// batched Exec, and Exec over seeded windows with unaligned edges agree
// with the naive Set-algebra evaluator. Any rewrite the compiler performs
// — operand reordering, tail extraction, compressed dispatch, register
// expansion — must be invisible here.
func FuzzPlanExecEquivalence(f *testing.F) {
	f.Add(uint8(2), uint64(1), []byte{0x02, 0x00, 0x13, 0x01, 0x27})
	f.Add(uint8(3), uint64(2), []byte{0x03, 0x05, 0x81, 0x12, 0x02, 0x33, 0xa4})
	f.Add(uint8(4), uint64(3), []byte{0x01, 0x44, 0x02, 0x96, 0x07, 0x03, 0x58, 0x1b, 0xe2})
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
		// with a second member, bit 2 negates (never the first clause), bit
		// 7 attaches the compressed form and bit 6 with it drops the dense
		// one, as compressed catalogs lower options. A widened clause
		// compiles to its materialized union, compressed only when bits 7
		// and 6 are both set, as the platform lowers it.
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
				if b&0x80 != 0 {
					pc.Op.C = cpool[idx]
				}
				if b&0xc0 == 0xc0 {
					pc.Op.Set = nil
				}
				if b&0x20 != 0 {
					idx2 := int(b>>3) % len(pool)
					cl.or = append(cl.or, pool[idx2])
					pc.Op = Operand{Set: UnionAll(cl.or...)}
					if b&0xc0 == 0xc0 {
						pc.Op.C = FromSet(pc.Op.Set)
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
// one-operand plans over four windows, expansion, Union, register-backed
// plan executions over the whole universe and an unaligned window, and a
// compressed plan walk. On any blob
// DecodeCSet accepts none may panic, whatever the payloads hold.
func exerciseCSet(c *CSet) {
	n := c.Len()
	_ = c.Count()
	for _, i := range []int{-1, 0, 1, n / 2, n - 1, n, chunkSize - 1, chunkSize, chunkSize + 1} {
		c.Contains(i)
	}
	for _, w := range [][2]int{{0, n}, {1, n - 1}, {n / 3, 2 * n / 3}, {chunkSize - 3, chunkSize + 3}} {
		planCountRange(c, w[0], w[1])
	}
	dense := c.ToSet()
	acc := NewFromFunc(n, func(i int) bool { return i%3 == 0 })
	Union(n, []Operand{{Set: acc}, {C: c}})
	ca := FromSet(acc)
	regCount(ca, c, false, nil)
	regCount(ca, c, true, []Window{{n / 3, n - 5}})
	regCount(c, ca, false, []Window{{1, n}})
	walkPlan(Operand{Set: dense, C: c}, acc, NewFromFunc(n, func(i int) bool { return i%7 == 0 }))
}

// walkPlan counts base ∩ and \ not on the compressed path, whatever the
// dispatch rule would pick: base is walked container by container and the
// dense operands are probed.
func walkPlan(base Operand, and, not *Set) int {
	pr := probe{and: [][]uint64{and.words}, not: [][]uint64{not.words}}
	return pr.walk(base.C, 0, base.C.Len())
}
