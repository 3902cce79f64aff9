package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// fingerprint is everything a campaign and battery must reproduce exactly
// for one (universe, seed), whatever the shape.
type fingerprint struct {
	Universe int    `json:"universe"`
	Seed     uint64 `json:"seed"`
	// Rows is the SHA-256 of the JSON-encoded fig1 and fig2 rows.
	Rows string `json:"rows_sha256"`
	// Battery is a SHA-256 over the battery's answers, slice by slice.
	Battery string `json:"battery_sha256"`
	// The campaign's traffic under core's measurement cache, summed over
	// the four interfaces.
	UpstreamQueries   int64 `json:"upstream_queries"`
	CacheHits         int64 `json:"cache_hits"`
	UpstreamExchanges int64 `json:"upstream_exchanges"`
}

func (f fingerprint) diff(g fingerprint) error {
	switch {
	case f.Rows != g.Rows:
		return fmt.Errorf("rows digest %.16s, want %.16s", f.Rows, g.Rows)
	case f.Battery != g.Battery:
		return fmt.Errorf("battery digest %.16s, want %.16s", f.Battery, g.Battery)
	case f.UpstreamQueries != g.UpstreamQueries, f.CacheHits != g.CacheHits, f.UpstreamExchanges != g.UpstreamExchanges:
		return fmt.Errorf("core counts %d/%d/%d (queries/hits/exchanges), want %d/%d/%d",
			f.UpstreamQueries, f.CacheHits, f.UpstreamExchanges, g.UpstreamQueries, g.CacheHits, g.UpstreamExchanges)
	}
	return nil
}

// recordedFingerprint is a fingerprint tagged with the workload that first
// recorded it.
type recordedFingerprint struct {
	fingerprint
	Workload string `json:"workload"`
}

// checkReference compares fp with the committed reference for its
// (universe, seed), when there is one.
func checkReference(path string, fp fingerprint) error {
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var refs []fingerprint
	if err := json.Unmarshal(data, &refs); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, ref := range refs {
		if ref.Universe == fp.Universe && ref.Seed == fp.Seed {
			if err := fp.diff(ref); err != nil {
				return fmt.Errorf("output differs from the committed reference: %w", err)
			}
		}
	}
	return nil
}

// checkRecord compares fp with the fingerprint the first run of this build
// recorded for its (universe, seed), whichever workload that was, and
// records fp when it is the first.
func checkRecord(dir, workload string, fp fingerprint) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("u%d-s%d.json", fp.Universe, fp.Seed))
	data, err := os.ReadFile(path)
	if err == nil {
		var rec recordedFingerprint
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := fp.diff(rec.fingerprint); err != nil {
			return fmt.Errorf("%s output differs from %s's for the same seed: %w", workload, rec.Workload, err)
		}
		return nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	data, err = json.Marshal(recordedFingerprint{fp, workload})
	if err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.tmp%d", path, os.Getpid())
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
