package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/targeting"
	"repro/internal/xrand"
)

// batterySize is the number of single queries a run times: enough that the
// 99th percentile has over a hundred samples beyond it.
const batterySize = 12000

// query is one battery entry: a spec for the provider at index iface.
type query struct {
	iface int
	spec  targeting.Spec
}

// poolEntry is one line of the query pool: a spec the campaign sent to an
// interface below core's measurement cache.
type poolEntry struct {
	Iface string         `json:"iface"`
	Spec  targeting.Spec `json:"spec"`
}

// writePool records the query pool the battery is drawn from: every
// distinct upstream spec of one cold fig1+fig2 campaign of the default
// seed on a built deployment, in the order core sent them, one JSON line
// each. The provider taps see the specs, so the campaign takes the traced
// run's path.
func writePool(path string, universe int) error {
	reg := obs.NewRegistry()
	s, err := setupInproc(universe, reg)
	if err != nil {
		return err
	}
	l := &layers{keep: true}
	c, err := measureCampaign(s, reg, l, deriveSeeds(defaultSeed).campaign, true)
	if err != nil {
		return err
	}
	if c.failed != 0 {
		return fmt.Errorf("pool campaign: %d upstream queries failed", c.failed)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	seen := map[string]bool{}
	for _, p := range s.providers {
		for _, spec := range l.kept[p.Name()] {
			key := p.Name() + "|" + targeting.Canonical(spec)
			if seen[key] {
				continue
			}
			seen[key] = true
			if err := enc.Encode(poolEntry{p.Name(), spec}); err != nil {
				return err
			}
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// loadBattery draws batterySize distinct pool entries uniformly at random,
// so the battery sends the campaign's own mix of interfaces, clause counts
// and class conditions. Every spec is valid under its interface's
// measurement rules because the campaign sent it there.
func loadBattery(path string, providers []core.Provider, seed uint64) ([]query, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) < batterySize {
		return nil, fmt.Errorf("%s: %d specs, the battery needs %d", path, len(lines), batterySize)
	}
	index := map[string]int{}
	for i, p := range providers {
		index[p.Name()] = i
	}
	out := make([]query, 0, batterySize)
	for _, k := range xrand.New(seed).Sample(len(lines), batterySize) {
		var e poolEntry
		if err := json.Unmarshal(lines[k], &e); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, k+1, err)
		}
		i, ok := index[e.Iface]
		if !ok {
			return nil, fmt.Errorf("%s line %d: unknown interface %q", path, k+1, e.Iface)
		}
		out = append(out, query{iface: i, spec: e.Spec})
	}
	return out, nil
}

// batteryChunks is how many slices the battery is cut into. A run times
// one slice after each campaign, so the single queries sample the whole run
// rather than one moment of it on a shared host; a run with more campaigns
// than slices goes round the battery again.
const batteryChunks = 4

// battery times single queries closed-loop, one call at a time, and checks
// that every pass over a slice returns the same answers.
type battery struct {
	qs     []query
	steps  int
	lat    []time.Duration
	failed int64
	// digests holds each slice's answer digest from its first pass.
	digests []string
}

// batteryResult summarizes every timed call of a run.
type batteryResult struct {
	p50, p99 time.Duration
	count    int64
	failed   int64
	// digest covers the answers of one full pass, in battery order.
	digest string
}

// step times the next slice through measure.
func (b *battery) step(measure func(i int, spec targeting.Spec) (int64, error)) error {
	k := b.steps % batteryChunks
	lo, hi := k*len(b.qs)/batteryChunks, (k+1)*len(b.qs)/batteryChunks
	runtime.GC()
	h := sha256.New()
	var buf [8]byte
	for _, q := range b.qs[lo:hi] {
		start := time.Now()
		v, err := measure(q.iface, q.spec)
		b.lat = append(b.lat, time.Since(start))
		if err != nil {
			b.failed++
			h.Write([]byte("error " + err.Error() + "\n"))
			continue
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	d := hex.EncodeToString(h.Sum(nil))
	if b.steps < batteryChunks {
		b.digests = append(b.digests, d)
	} else if d != b.digests[k] {
		return fmt.Errorf("battery slice %d answered differently on pass %d", k, b.steps/batteryChunks+1)
	}
	b.steps++
	return nil
}

// finish completes the first pass if the run had fewer campaigns than
// slices, and summarizes.
func (b *battery) finish(measure func(i int, spec targeting.Spec) (int64, error)) (batteryResult, error) {
	for b.steps < batteryChunks {
		if err := b.step(measure); err != nil {
			return batteryResult{}, err
		}
	}
	lat := append([]time.Duration(nil), b.lat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	h := sha256.New()
	for _, d := range b.digests {
		h.Write([]byte(d))
	}
	return batteryResult{
		p50:    quantile(lat, 0.50),
		p99:    quantile(lat, 0.99),
		count:  int64(len(lat)),
		failed: b.failed,
		digest: hex.EncodeToString(h.Sum(nil)),
	}, nil
}

// quantile returns the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	k := int(q*float64(len(sorted))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}
