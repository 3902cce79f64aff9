package audience

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"reflect"
	"sort"
	"testing"
)

// A view is a CSet decoded over a caller's blob, the way a snapshot load
// decodes every catalog option over the mmap'd file: DecodeCSet aliases
// the payloads in place when the blob is 8-aligned on a little-endian host
// and copies them otherwise. The view tests run both paths against the
// dense set and the built (FromSet) form.

// blobAt copies blob into a fresh buffer at an address ≡ off (mod 8): off 0
// drives DecodeCSet's aliasing path, any other offset its copying path.
func blobAt(blob []byte, off int) []byte {
	buf := make([]byte, len(blob)+16)
	start := (off%8 - int(reflect.ValueOf(buf).Pointer()%8) + 8) % 8
	b := buf[start : start+len(blob)]
	copy(b, blob)
	return b
}

// decodedForms returns c and its views through both decode paths.
func decodedForms(t testing.TB, c *CSet) map[string]*CSet {
	t.Helper()
	out := map[string]*CSet{"built": c}
	for name, off := range map[string]int{"aliased": 0, "copied": 3} {
		v, err := DecodeCSet(blobAt(c.Blob(), off))
		if err != nil {
			t.Fatalf("DecodeCSet (%s): %v", name, err)
		}
		out[name] = v
	}
	return out
}

// viewsFor returns the aliased and copied views of s's blob.
func viewsFor(t *testing.T, s *Set) map[string]*CSet {
	t.Helper()
	forms := decodedForms(t, FromSet(s))
	delete(forms, "built")
	return forms
}

// aliases reports whether every container payload of c points into its blob.
func aliases(c *CSet) bool {
	lo := reflect.ValueOf(c.blob).Pointer()
	hi := lo + uintptr(len(c.blob))
	for i := range c.conts {
		cont := &c.conts[i]
		p := reflect.ValueOf(cont.runs).Pointer()
		switch cont.typ {
		case ctArray:
			p = reflect.ValueOf(cont.arr).Pointer()
		case ctBitmap:
			p = reflect.ValueOf(cont.bits).Pointer()
		}
		if p < lo || p >= hi {
			return false
		}
	}
	return true
}

// TestCSetViewRoundTrip: both views of every shape's blob hold the set's
// members, and each takes its decode path — built sets and 8-aligned views
// alias their blob on a little-endian host, misaligned views own copies.
func TestCSetViewRoundTrip(t *testing.T) {
	for _, n := range csetSizes {
		for name, s := range csetShapes(n) {
			c := FromSet(s)
			if littleEndian && !aliases(c) {
				t.Fatalf("n=%d %s: FromSet does not alias its blob", n, name)
			}
			for path, v := range viewsFor(t, s) {
				if aliases(v) != (littleEndian && path == "aliased") && v.Containers() > 0 {
					t.Fatalf("n=%d %s %s: aliases its blob = %v", n, name, path, aliases(v))
				}
				if v.Len() != s.Len() || v.Count() != s.Count() {
					t.Fatalf("n=%d %s %s: view Len/Count = %d/%d, want %d/%d",
						n, name, path, v.Len(), v.Count(), s.Len(), s.Count())
				}
				if v.Containers() != c.Containers() || v.Bytes() != c.Bytes() {
					t.Fatalf("n=%d %s %s: view has %d containers / %d bytes, built set %d / %d",
						n, name, path, v.Containers(), v.Bytes(), c.Containers(), c.Bytes())
				}
				if back := v.ToSet(); !Equal(back, s) {
					t.Fatalf("n=%d %s %s: view.ToSet() != s", n, name, path)
				}
			}
		}
	}
}

// TestEncodeCSetCanonical: FromSet's encoding is deterministic, both decode
// paths hand back the bytes they read, and re-packing a view reproduces
// them exactly.
func TestEncodeCSetCanonical(t *testing.T) {
	s := randomSet(21, 3*chunkSize+777, 0.01)
	a, b := FromSet(s).Blob(), FromSet(s).Blob()
	if !bytes.Equal(a, b) {
		t.Fatal("FromSet is not deterministic for identical sets")
	}
	if len(a)%8 != 0 {
		t.Fatalf("blob length %d is not a multiple of 8", len(a))
	}
	for path, v := range viewsFor(t, s) {
		if !bytes.Equal(v.Blob(), a) {
			t.Fatalf("%s: view Blob differs from the decoded bytes", path)
		}
		if !bytes.Equal(FromSet(v.ToSet()).Blob(), a) {
			t.Fatalf("%s: re-packing the view changed its bytes", path)
		}
	}
}

// TestCSetBlobGolden pins FromSet's bytes, so a snapshot written today is
// byte-identical to one written by any earlier build. Small sets are
// spelled out; each csetSizes universe pins one SHA-256 over its shapes'
// blobs in name order.
func TestCSetBlobGolden(t *testing.T) {
	small := New(70000)
	for _, i := range []int{0, 5, 99, 65535, 65536, 65537, 69999} {
		small.Add(i)
	}
	runs := New(200)
	for i := 10; i < 150; i++ {
		runs.Add(i)
	}
	for name, tc := range map[string]struct {
		s    *Set
		want string
	}{
		// Two array chunks, the second the universe's short last chunk.
		"arrays": {small, "70110100000000000700000000000000020000000000000000000000000000000400000004000000000000000100000000000000030000000300000008000000000005006300ffff000001006f110000"},
		// One run container holding [10, 149].
		"run": {runs, "c8000000000000008c0000000000000001000000000000000000000002000000010000008c00000000000000000000000a00950000000000"},
	} {
		if got := hex.EncodeToString(FromSet(tc.s).Blob()); got != tc.want {
			t.Errorf("%s: blob\n%s\nwant\n%s", name, got, tc.want)
		}
	}
	digests := map[int]string{
		1:                 "6827d9f981452cf1ac67b54bdc6936e8b3deaaf4518b262658f6dbd8c7c10eff",
		63:                "37b1707ad95fe74961afedbcfc7266d9b4683fa8f3f36bc5bbac504afb892d3a",
		64:                "cd7e9adc0f02305706511ce49aaea83f7fdf7858fd159ed3841ca655e68a4785",
		65:                "741c2bfa74b6e828b635cf668f7bdb7eee0ce234fa46c912a10f0ab6f4ad81da",
		1000:              "9fc58a2b55d2fd4739a6b944399fbcccd1d0017e1d7c46665cc00c87b184b71a",
		chunkSize - 1:     "156a36393cbc209a24f30418b707eaea9baedce49e1e0aa882cece5e7babb765",
		chunkSize:         "0b1533a258769b48e54ca4e99df7a25652b11714ea5b10bdf19a7e6d706000a4",
		chunkSize + 1:     "ff2eee69d88aa0fe248f739811948591eda0bf6c6d7c39d4eb749b21051ad35b",
		3*chunkSize + 777: "2fe96d0f01d627b9f34a6bbb0b11b021c9ab0ae300481a1e8563f4e251655465",
	}
	for _, n := range csetSizes {
		shapes := csetShapes(n)
		names := make([]string, 0, len(shapes))
		for name := range shapes {
			names = append(names, name)
		}
		sort.Strings(names)
		h := sha256.New()
		for _, name := range names {
			h.Write(FromSet(shapes[name]).Blob())
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != digests[n] {
			t.Errorf("n=%d: shape blobs hash to %s, want %s", n, got, digests[n])
		}
	}
}

func TestCSetViewContains(t *testing.T) {
	for _, n := range csetSizes {
		for name, s := range csetShapes(n) {
			for path, v := range viewsFor(t, s) {
				step := n/257 + 1
				for i := -1; i <= n; i += step {
					if v.Contains(i) != s.Contains(i) {
						t.Fatalf("n=%d %s %s: Contains(%d) = %v, want %v", n, name, path, i, v.Contains(i), s.Contains(i))
					}
				}
			}
		}
	}
}

func TestCSetViewCountRange(t *testing.T) {
	for _, n := range csetSizes {
		for name, s := range csetShapes(n) {
			for path, v := range viewsFor(t, s) {
				windows := [][2]int{
					{0, n}, {0, 0}, {n, n}, {-5, n + 5},
					{0, n / 2}, {n / 2, n}, {n / 3, 2 * n / 3},
					{chunkSize - 1, chunkSize + 1}, {63, 65}, {1, n - 1},
				}
				for _, w := range windows {
					got, want := planCountRange(v, w[0], w[1]), s.CountRange(w[0], w[1])
					if got != want {
						t.Fatalf("n=%d %s %s: plan count over [%d, %d) = %d, want %d", n, name, path, w[0], w[1], got, want)
					}
				}
			}
		}
	}
}

// TestCSetViewKernels checks the register-backed execution on views
// against the built set on every size/shape pair: intersections and
// differences of compressed-only operands, whole and windowed, and unions,
// must count identically.
func TestCSetViewKernels(t *testing.T) {
	for _, n := range csetSizes {
		shapes := csetShapes(n)
		window := []Window{{n / 5, n - n/3}}
		for aName, a := range shapes {
			ca := FromSet(a)
			for bName, b := range shapes {
				c := FromSet(b)
				and, not, win := regCount(ca, c, false, nil), regCount(ca, c, true, nil), regCount(ca, c, false, window)
				or := Union(n, []Operand{{C: ca}, {C: c}})
				for path, v := range viewsFor(t, b) {
					if got := regCount(ca, v, false, nil); got != and {
						t.Fatalf("n=%d %s&%s %s: view intersection counts %d, want %d", n, aName, bName, path, got, and)
					}
					if got := regCount(ca, v, true, nil); got != not {
						t.Fatalf("n=%d %s\\%s %s: view difference counts %d, want %d", n, aName, bName, path, got, not)
					}
					if got := regCount(ca, v, false, window); got != win {
						t.Fatalf("n=%d %s&%s %s: windowed view intersection counts %d, want %d", n, aName, bName, path, got, win)
					}
					if got := Union(n, []Operand{{C: ca}, {C: v}}); !Equal(got.Set, or.Set) {
						t.Fatalf("n=%d %s|%s %s: view union differs", n, aName, bName, path)
					}
				}
			}
		}
	}
}

func TestCSetViewChecksCompat(t *testing.T) {
	for path, v := range viewsFor(t, randomSet(1, 1000, 0.1)) {
		for name, op := range map[string]func(){
			"plan":  func() { CompilePlan(2000, []PlanClause{{Op: Operand{C: v}}}) },
			"union": func() { Union(2000, []Operand{{C: v}}) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s %s: universe mismatch did not panic", path, name)
					}
				}()
				op()
			}()
		}
	}
}

// TestDecodeCSetViewRejects drives DecodeCSet's structural validation:
// every corruption here must produce ErrBadCSetBlob, never a panic or a
// set, on both decode paths.
func TestDecodeCSetViewRejects(t *testing.T) {
	s := randomSet(31, 2*chunkSize+100, 0.01)
	good := FromSet(s).Blob()
	if _, err := DecodeCSet(good); err != nil {
		t.Fatalf("control blob rejected: %v", err)
	}

	mut := func(edit func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		edit(b)
		return b
	}
	short := FromSet(NewFromFunc(chunkSize+100, func(i int) bool { return i == 3 || i == chunkSize+7 })).Blob()
	cases := map[string][]byte{
		"empty":             {},
		"short header":      good[:blobHeader-1],
		"truncated dir":     good[:blobHeader+blobDirEntry/2],
		"truncated payload": good[:len(good)-9],
		"card over universe": mut(func(b []byte) {
			copy(b[8:16], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
		}),
		"container count over universe": mut(func(b []byte) {
			b[16], b[17] = 0xff, 0xff
		}),
		"bad container type": mut(func(b []byte) {
			b[blobHeader+4] = 9
		}),
		"key beyond universe": mut(func(b []byte) {
			b[blobHeader+0] = 0xff
			b[blobHeader+1] = 0xff
		}),
		"keys not ascending": mut(func(b []byte) {
			b[blobHeader+blobDirEntry] = 0
		}),
		"misaligned offset": mut(func(b []byte) {
			b[blobHeader+16]++
		}),
		"card sum mismatch": mut(func(b []byte) {
			b[8]++
		}),
		"short-chunk member beyond chunk": func() []byte {
			b := append([]byte(nil), short...)
			// The last payload is the short chunk's one member, offset 7;
			// 255 lies past its two words.
			b[len(b)-8], b[len(b)-7] = 0xff, 0x00
			return b
		}(),
	}
	for name, blob := range cases {
		for _, off := range []int{0, 5} {
			c, err := DecodeCSet(blobAt(blob, off))
			if err == nil {
				t.Fatalf("%s@%d: decoded successfully (%d containers)", name, off, c.Containers())
			}
			if !errors.Is(err, ErrBadCSetBlob) {
				t.Fatalf("%s@%d: error %v is not ErrBadCSetBlob", name, off, err)
			}
		}
	}
}

// invertedRunBlob encodes a universe of n ≥ 2^16 users whose one
// container, on full chunk 0, is the run [10, 5]: structurally valid, so
// DecodeCSet accepts it without reading the payload.
func invertedRunBlob(n int) []byte {
	blob := make([]byte, 56)
	binary.LittleEndian.PutUint64(blob[0:], uint64(n))
	binary.LittleEndian.PutUint64(blob[8:], 1)
	binary.LittleEndian.PutUint32(blob[16:], 1)
	ent := blob[blobHeader:]
	ent[4] = byte(ctRun)
	binary.LittleEndian.PutUint32(ent[8:], 1)  // one run
	binary.LittleEndian.PutUint32(ent[12:], 1) // card
	binary.LittleEndian.PutUint16(blob[48:], 10)
	binary.LittleEndian.PutUint16(blob[50:], 5)
	return blob
}

// TestInvertedRunBlob: loads never read full-chunk payloads, so a run with
// start > last reaches the kernels. Each must treat it as empty rather
// than read past the chunk.
func TestInvertedRunBlob(t *testing.T) {
	for _, off := range []int{0, 3} {
		c, err := DecodeCSet(blobAt(invertedRunBlob(2*chunkSize), off))
		if err != nil {
			t.Fatalf("@%d: %v", off, err)
		}
		exerciseCSet(c)
		if got := c.ToSet().Count(); got != 0 {
			t.Fatalf("@%d: inverted run expanded to %d members", off, got)
		}
		if got := Union(c.Len(), []Operand{{C: c}}).Set.Count(); got != 0 {
			t.Fatalf("@%d: Union added %d members", off, got)
		}
		all := New(c.Len())
		all.Fill()
		if got := regCount(FromSet(all), c, false, nil); got != 0 {
			t.Fatalf("@%d: registers counted %d", off, got)
		}
		if got := basePlan(c, all, New(c.Len()), nil); got != 0 {
			t.Fatalf("@%d: a plan on its base counted %d", off, got)
		}
	}
}

func BenchmarkDecodeCSet(b *testing.B) {
	s := randomSet(41, 8*chunkSize, 0.01)
	blob := FromSet(s).Blob()
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeCSet(blob); err != nil {
			b.Fatal(err)
		}
	}
}
