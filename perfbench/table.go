package main

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/targeting"
)

// campaignLayers maps one traced campaign onto the per-layer metrics that
// have a repeat-campaign (_warm) variant. Self times subtract the time
// spent below a layer's lower boundary; a layer a shape does not put in
// front reads 0.
func campaignLayers(workload string, c campaign) map[string]float64 {
	t := c.tally
	below := t.upBusy.Seconds()
	m := map[string]float64{
		"campaign.wall_s":              c.wall.Seconds(),
		"campaign.cpu_s":               c.cpu.Seconds(),
		"core.self_s":                  c.wall.Seconds() - below,
		"platform.busy_s":              0,
		"adapi.client_self_s":          0,
		"adapi.roundtrip_s":            t.roundtrip.Seconds(),
		"adapi.server_s":               t.served.Seconds(),
		"cluster.coordinator_self_s":   0,
		"cluster.shard_busy_s":         t.shardBusy.Seconds(),
		"cluster.shard_critical_s":     t.critical.Seconds(),
		"platform.plans_compiled":      float64(c.counters["plans_compiled_total"]),
		"platform.plan_cache_misses":   float64(c.counters["plan_cache_misses_total"]),
		"platform.plan_cache_rebuilds": float64(c.counters["plan_cache_rebuilds_total"]),
		"platform.kernel_blocks":       float64(c.counters["batch_kernel_blocks_total"]),
		"adapi.batch_exchanges":        float64(t.batchEx),
		"adapi.serial_exchanges":       float64(t.serialEx),
		"adapi.refused":                float64(t.refused),
		"adapi.request_mb":             float64(t.reqBytes) / 1e6,
		"cluster.shard_calls":          float64(t.shardCalls),
		"go.alloc_mb":                  c.allocMB,
		"go.gc_cycles":                 float64(c.gcs),
		"snapshot.page_faults":         float64(c.faults),
	}
	switch workload {
	case "inproc":
		m["platform.busy_s"] = below
	case "http":
		m["adapi.client_self_s"] = below - t.roundtrip.Seconds()
	case "cluster3-snap":
		m["cluster.coordinator_self_s"] = below - t.critical.Seconds()
	}
	return m
}

// layerUnit derives a per-layer metric's unit from its name suffix.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_frac"):
		return "ratio"
	}
	return "count"
}

// warmName inserts the _warm marker before a metric's unit suffix:
// core.self_s → core.self_warm_s, platform.kernel_blocks → ..._warm.
func warmName(name string) string {
	for _, suf := range []string{"_s", "_mb"} {
		if strings.HasSuffix(name, suf) {
			return name[:len(name)-len(suf)] + "_warm" + suf
		}
	}
	return name + "_warm"
}

// layerTable fills m with the traced run's per-layer metrics.
func layerTable(m map[string]metric, workload string, s *shape,
	cold campaign, warm, warmTraced []campaign, bat batteryResult) error {
	put := func(name string, v float64) { m[name] = metric{v, layerUnit(name)} }

	for _, name := range []string{"platform.new_deployment_s", "platform.warm_s", "snapshot.load_s", "cluster.new_coordinator_s"} {
		put(name, s.setup[name])
	}

	for name, v := range campaignLayers(workload, cold) {
		put(name, v)
	}
	warmVals := map[string][]float64{}
	for _, c := range warmTraced {
		for name, v := range campaignLayers(workload, c) {
			warmVals[name] = append(warmVals[name], v)
		}
	}
	for name, vs := range warmVals {
		put(warmName(name), median(vs))
	}

	put("core.upstream_queries", float64(cold.queries))
	put("core.cache_hits", float64(cold.hits))
	put("core.upstream_batches", float64(cold.tally.upCalls))
	put("core.max_batch_specs", float64(cold.tally.maxBatch))

	useful := 0.0
	if cold.tally.localUsr > 0 {
		useful = float64(cold.tally.usefulUsers) / float64(cold.tally.localUsr)
	}
	put("cluster.useful_frac", useful)
	failovers := int64(0)
	for _, c := range append([]campaign{cold}, warmTraced...) {
		failovers += c.counters["cluster_failovers_total"]
	}
	if failovers != 0 {
		return fmt.Errorf("cluster failed over %d times", failovers)
	}
	put("cluster.failovers", float64(failovers))

	refused := 0
	if s.replay != nil {
		var batches [][]targeting.Spec
		var ifaces []string
		for _, p := range s.providers {
			if b := cold.largest[p.Name()]; len(b) > 0 {
				batches = append(batches, b)
				ifaces = append(ifaces, p.Name())
			}
		}
		var err error
		if refused, err = s.replay(batches, ifaces); err != nil {
			return err
		}
	}
	put("cluster.http_refused_batches", float64(refused))

	put("query.p99_us", us(bat.p99))
	put("query.count", float64(bat.count))

	var plain, tapped []float64
	for _, c := range warm {
		plain = append(plain, c.cpu.Seconds())
	}
	for _, c := range warmTraced {
		tapped = append(tapped, c.cpu.Seconds())
	}
	if len(plain) == 0 || len(tapped) == 0 {
		return errors.New("traced run needs traced and untraced repeat campaigns")
	}
	put("trace.overhead_pct", 100*(median(tapped)/median(plain)-1))
	return nil
}
