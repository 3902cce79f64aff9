package trace

import (
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
)

// Provenance is the audit-trail record for one measured audience size:
// where the number came from. The paper's findings are only as credible as
// each reported size, so every measurement can carry: which platform
// served it, the canonical spec key it was cached/stored under, the hash
// of the compiled plan that counted it, which shards contributed raw
// counts, how many failover rounds the scatter-gather needed, and the
// trace ID tying it all to recorded spans.
type Provenance struct {
	// Platform is the serving platform interface name.
	Platform string `json:"platform"`
	// Key is the canonical targeting-spec key (the store/cache/plan key).
	Key string `json:"key"`
	// Source names the layer that produced the value: "cache" or "store"
	// (the measurement cache's memory or durable tier served it),
	// "inflight" (the slot waited on another caller's in-flight miss of
	// the same key), "platform" (a platform's compiled kernel counted it),
	// "cluster" (a coordinator merged shard counts), or "remote" (the
	// client side of an HTTP exchange). adapi's server-side store tier
	// also records "store".
	Source string `json:"source"`
	// PlanHash fingerprints the compiled query plan (empty on uncompiled
	// or remote paths).
	PlanHash string `json:"plan_hash,omitempty"`
	// Shards lists the shard IDs whose raw counts were merged (cluster
	// runs only), in merge order.
	Shards []string `json:"shards,omitempty"`
	// FailoverRounds counts extra scatter-gather rounds needed after
	// shard failures (0 = clean first round).
	FailoverRounds int `json:"failover_rounds,omitempty"`
	// Partial marks a measurement that completed with unserved
	// partitions (the value was rejected, not under-counted).
	Partial bool `json:"partial,omitempty"`
	// Endpoint is the remote URL serving the value (client paths only).
	Endpoint string `json:"endpoint,omitempty"`
	// TraceID links to the recorded trace, when the measurement was
	// sampled.
	TraceID string `json:"trace_id,omitempty"`
	// Value is the measured (rounded) audience size.
	Value int64 `json:"value"`
}

// PlanHash fingerprints a compiled plan's identity material (the canonical
// key plus any plan-shape qualifiers) as 16 hex digits of FNV-1a. Not
// cryptographic — it answers "same plan?" across runs, matching the
// repo-wide canonical-hash idiom.
func PlanHash(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		io.WriteString(h, p)
		h.Write([]byte{0})
	}
	var id SpanID
	putU64(id[:], h.Sum64())
	return id.String()
}

// DefaultMaxProvenance bounds the in-memory provenance ring.
const DefaultMaxProvenance = 4096

// ProvenanceLog collects Provenance records in a bounded ring and
// optionally persists each as a JSON line (adauditctl -store writes
// <dir>/provenance.jsonl). Nil-safe: Add on a nil log is a no-op.
type ProvenanceLog struct {
	mu      sync.Mutex
	ring    []Provenance
	next    int // ring write cursor
	full    bool
	w       io.Writer
	dropped int64
}

// NewProvenanceLog builds a log holding up to max records in memory
// (0 selects DefaultMaxProvenance) and mirroring each to w when non-nil.
func NewProvenanceLog(max int, w io.Writer) *ProvenanceLog {
	if max <= 0 {
		max = DefaultMaxProvenance
	}
	return &ProvenanceLog{ring: make([]Provenance, 0, max), w: w}
}

// Add records one provenance entry.
func (l *ProvenanceLog) Add(p Provenance) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, p)
	} else {
		l.ring[l.next] = p
		l.next = (l.next + 1) % cap(l.ring)
		l.full = true
		l.dropped++
	}
	if l.w != nil {
		if b, err := json.Marshal(p); err == nil {
			b = append(b, '\n')
			l.w.Write(b)
		}
	}
	l.mu.Unlock()
}

// Records returns the retained records, oldest first.
func (l *ProvenanceLog) Records() []Provenance {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.full {
		out := make([]Provenance, len(l.ring))
		copy(out, l.ring)
		return out
	}
	out := make([]Provenance, 0, cap(l.ring))
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	return out
}

// Len reports how many records are retained in memory.
func (l *ProvenanceLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ring)
}

// Handler serves the retained records as JSON at /debug/provenance:
//
//	GET /debug/provenance          → {"records": [...], "evicted": N}
//	GET /debug/provenance?key=<k>  → records whose canonical key is k
//	GET /debug/provenance?trace=<id> → records linked to one trace
//
// Nil-safe (serves an empty listing).
func (l *ProvenanceLog) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		recs := l.Records()
		key := r.URL.Query().Get("key")
		tid := r.URL.Query().Get("trace")
		out := recs[:0:0]
		for _, p := range recs {
			if key != "" && p.Key != key {
				continue
			}
			if tid != "" && p.TraceID != tid {
				continue
			}
			out = append(out, p)
		}
		if out == nil {
			out = []Provenance{}
		}
		var evicted int64
		if l != nil {
			l.mu.Lock()
			evicted = l.dropped
			l.mu.Unlock()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Records []Provenance `json:"records"`
			Evicted int64        `json:"evicted,omitempty"`
		}{Records: out, Evicted: evicted})
	})
}
