package population

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/audience"
)

// shardConfig builds a config with every generative feature enabled so the
// sharding equality checks cover all draw domains.
func shardConfig(seed uint64, size int) Config {
	return Config{
		Seed:      seed,
		Size:      size,
		MaleShare: 0.47,
		AgeShare:  [NumAgeRanges]float64{0.2, 0.3, 0.3, 0.2},
		Factors: []FactorModel{
			{Rate: 0.2, GenderLoad: 1.1},
			{Rate: 0.05, AgeLoad: [NumAgeRanges]float64{0.5, 0.2, -0.2, -0.5}},
			{Rate: 0.5},
		},
		USShare:       0.8,
		ActivitySigma: 1.3,
	}
}

// TestForEachShardCoversRange asserts the shard decomposition covers [0, n)
// exactly once with 64-aligned interior boundaries.
func TestForEachShardCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 4096, 4097, 12345} {
		for _, workers := range []int{1, 2, 3, 4, 7, 64} {
			var mu sync.Mutex
			seen := make([]bool, n)
			forEachShard(n, workers, func(lo, hi int) {
				if lo%64 != 0 {
					t.Errorf("n=%d workers=%d: shard start %d not 64-aligned", n, workers, lo)
				}
				mu.Lock()
				for i := lo; i < hi; i++ {
					if seen[i] {
						t.Fatalf("n=%d workers=%d: index %d covered twice", n, workers, i)
					}
					seen[i] = true
				}
				mu.Unlock()
			})
			for i, ok := range seen {
				if !ok {
					t.Fatalf("n=%d workers=%d: index %d never covered", n, workers, i)
				}
			}
		}
	}
}

// TestNewShardedBitExact is the sharding property test: universes built with
// any worker count must be bit-identical to the serial build, across seeds
// and sizes including ones not divisible by the shard count or by 64.
func TestNewShardedBitExact(t *testing.T) {
	sizes := []int{1000, 4096, 4097, 5000, 8192 + 13, 12345}
	for _, seed := range []uint64{1, 42, 20201027} {
		for _, size := range sizes {
			cfg := shardConfig(seed, size)
			serial, err := newWithWorkers(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 4, 7} {
				sharded, err := newWithWorkers(cfg, workers)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("seed=%d size=%d workers=%d", seed, size, workers)
				for i := 0; i < size; i++ {
					if serial.cells[i] != sharded.cells[i] ||
						serial.factors[i] != sharded.factors[i] ||
						serial.tiers[i] != sharded.tiers[i] ||
						serial.regions[i] != sharded.regions[i] {
						t.Fatalf("%s: per-user state diverges at user %d", label, i)
					}
				}
				pairs := []struct {
					name string
					a, b *audience.Set
				}{
					{"all", serial.All(), sharded.All()},
					{"male", serial.byGender[Male], sharded.byGender[Male]},
					{"female", serial.byGender[Female], sharded.byGender[Female]},
				}
				for a := 0; a < NumAgeRanges; a++ {
					pairs = append(pairs, struct {
						name string
						a, b *audience.Set
					}{fmt.Sprintf("age%d", a), serial.byAge[a], sharded.byAge[a]})
				}
				for c := 0; c < NumCells; c++ {
					pairs = append(pairs, struct {
						name string
						a, b *audience.Set
					}{fmt.Sprintf("cell%d", c), serial.byCell[c], sharded.byCell[c]})
				}
				for r := 0; r < NumRegions; r++ {
					pairs = append(pairs, struct {
						name string
						a, b *audience.Set
					}{fmt.Sprintf("region%d", r), serial.byRegion[r], sharded.byRegion[r]})
				}
				for _, p := range pairs {
					if !audience.Equal(p.a, p.b) {
						t.Fatalf("%s: bitset %s differs from serial build", label, p.name)
					}
				}
			}
		}
	}
}

// TestMaterializeShardedBitExact asserts sharded materialization matches the
// serial path for skewed, factor-loaded attributes across sizes and seeds.
func TestMaterializeShardedBitExact(t *testing.T) {
	models := []AttrModel{
		{ID: 1, BaseLogit: -2.0, GenderLoad: 1.4, Factor: 0, FactorBoost: 2.0},
		{ID: 2, BaseLogit: -1.0, AgeLoad: [NumAgeRanges]float64{0.8, 0.2, -0.3, -0.9}, Factor: -1},
		{ID: 3, BaseLogit: -4.5, Factor: 2, FactorBoost: 3.0},
	}
	for _, seed := range []uint64{7, 99} {
		for _, size := range []int{1000, 4097, 8192 + 13} {
			u, err := New(shardConfig(seed, size))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range models {
				serial := u.materializeWithWorkers(m, 1)
				for _, workers := range []int{2, 3, 5} {
					sharded := u.materializeWithWorkers(m, workers)
					if !audience.Equal(serial, sharded) {
						t.Fatalf("seed=%d size=%d workers=%d attr=%d: sharded materialization differs",
							seed, size, workers, m.ID)
					}
				}
				if !audience.Equal(serial, u.Materialize(m)) {
					t.Fatalf("seed=%d size=%d attr=%d: Materialize differs from serial", seed, size, m.ID)
				}
			}
		}
	}
}
