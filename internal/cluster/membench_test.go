package cluster

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/platform"
	"repro/internal/targeting"
)

// TestMemoryFootprint is the harness behind results/BENCH_7.json: it builds
// either one shard of an N-shard cluster or a single-node deployment, warms
// it, serves a query battery, and reports the process RSS. Building a 2^24
// universe is far too heavy for CI, so the test is disabled unless CLUSTER_MEM
// selects a mode. Each mode must run in its own process (RSS is a process-wide
// high-water measure):
//
//	CLUSTER_MEM=shard:s0:4:16777216 go test -run TestMemoryFootprint -v ./internal/cluster
//	CLUSTER_MEM=single:4194304      go test -run TestMemoryFootprint -v ./internal/cluster
//
// Shard mode uses replicas=0 so each of the N shards materializes exactly
// universe/N users per platform; with 2^24 over 4 shards that is the same
// 2^22 local users the single-node mode holds, which makes the two RSS
// numbers directly comparable: the difference is the catalog posture
// (compressed-only CSets on shards vs dense audiences on the single node).
func TestMemoryFootprint(t *testing.T) {
	mode := os.Getenv("CLUSTER_MEM")
	if mode == "" {
		t.Skip("set CLUSTER_MEM=shard:<id>:<n>:<universe> or CLUSTER_MEM=single:<universe>")
	}
	parts := strings.Split(mode, ":")
	start := time.Now()
	var (
		dep     *platform.Deployment
		shard   *Shard
		shards  int
		localN  int
		kindTag string
	)
	switch parts[0] {
	case "shard":
		if len(parts) != 4 {
			t.Fatalf("CLUSTER_MEM=%q, want shard:<id>:<n>:<universe>", mode)
		}
		n, err := strconv.Atoi(parts[2])
		if err != nil {
			t.Fatal(err)
		}
		universe, err := strconv.Atoi(parts[3])
		if err != nil {
			t.Fatal(err)
		}
		ring, err := NewRing(clusterNodes(n), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		layout, err := NewLayout(ring, universe, 0)
		if err != nil {
			t.Fatal(err)
		}
		shard, err = NewShard(parts[1], layout, platform.DeployOptions{
			Seed: eqSeed, UniverseSize: universe, Compressed: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		dep = shard.Deployment()
		shards = n
		for _, p := range shard.Held() {
			localN += layout.Span(p).Len()
		}
		kindTag = parts[1]
	case "single":
		if len(parts) != 2 {
			t.Fatalf("CLUSTER_MEM=%q, want single:<universe>", mode)
		}
		universe, err := strconv.Atoi(parts[1])
		if err != nil {
			t.Fatal(err)
		}
		dep, err = platform.NewDeployment(platform.DeployOptions{Seed: eqSeed, UniverseSize: universe})
		if err != nil {
			t.Fatal(err)
		}
		shards = 1
		localN = universe
		kindTag = "single"
	default:
		t.Fatalf("CLUSTER_MEM=%q, want shard:... or single:...", mode)
	}
	buildSecs := time.Since(start).Seconds()

	start = time.Now()
	for _, p := range dep.Interfaces() {
		p.Warm()
	}
	warmSecs := time.Since(start).Seconds()

	// Serve the same battery both modes answer in production: a mix of
	// single-attribute, conjunctive, and exclusion specs per interface.
	start = time.Now()
	served := 0
	for _, p := range dep.Interfaces() {
		reqs := make([]platform.EstimateRequest, 0, 24)
		for i := 0; i < 8; i++ {
			reqs = append(reqs,
				platform.EstimateRequest{Spec: targeting.Attr(i)},
				platform.EstimateRequest{Spec: targeting.And(targeting.Attr(i), targeting.Attr(i+8))},
				platform.EstimateRequest{Spec: targeting.Excluding(targeting.Attr(i), targeting.Attr(i+16))},
			)
		}
		if shard != nil {
			res, err := shard.CountBatch(context.Background(), p.Name(), platform.DoorMeasure, shard.Held(), reqs)
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			served += len(res)
		} else {
			res := p.MeasureMany(reqs)
			served += len(res)
		}
	}
	querySecs := time.Since(start).Seconds()

	// Return freed spans to the OS before sampling: the compressed warm-up
	// materializes dense sets transiently, and without a scavenge their
	// MADV_FREE pages would still count in VmRSS. VmHWM keeps the honest
	// peak.
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rssKB, hwmKB := procRSS(t)
	t.Logf("CLUSTER_MEM result: mode=%s shards=%d local_users_per_platform=%d "+
		"vm_rss_mb=%.1f vm_hwm_mb=%.1f heap_inuse_mb=%.1f build_s=%.2f warm_s=%.2f query_s=%.3f served=%d",
		kindTag, shards, localN,
		float64(rssKB)/1024, float64(hwmKB)/1024, float64(ms.HeapInuse)/(1<<20),
		buildSecs, warmSecs, querySecs, served)
	if _, err := dep.ByName(catalog.PlatformFacebook); err != nil {
		t.Fatal(err)
	}
}

// procRSS reads VmRSS and VmHWM (peak RSS) in KiB from /proc/self/status.
func procRSS(t *testing.T) (rss, hwm int64) {
	t.Helper()
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		var dst *int64
		switch {
		case strings.HasPrefix(line, "VmRSS:"):
			dst = &rss
		case strings.HasPrefix(line, "VmHWM:"):
			dst = &hwm
		default:
			continue
		}
		if _, err := fmt.Sscanf(strings.TrimSpace(strings.TrimSuffix(strings.SplitN(line, ":", 2)[1], "kB")), "%d", dst); err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
	}
	return rss, hwm
}
