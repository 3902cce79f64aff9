package platform

import (
	"sync"

	"repro/internal/audience"
	"repro/internal/targeting"
)

// This file threads the audience query compiler through the platform: specs
// are lowered to audience.Plan once and cached under the same canonical key
// the measurement cache and durable store use, batches of cached plans are
// frozen into audience.PlanBatch schedules, and multi-ref OR clauses
// resolve to interface-wide shared unions so the batch analyzer can
// common-subexpression them across plans. Everything here is bounded: plans,
// unions, and schedules each live in an LRU. Interfaces with a compressed
// catalog keep none of it: they compile every batch, and share each union
// within the batch only. Serial queries compile one spec afresh on every
// posture, outside the plan and schedule caches.

// Cache bounds: the plan cache's capacity, from which the union and
// schedule caches are derived.
const (
	planCacheEntries    = 4096
	minDerivedCacheSize = 16
)

// lruNode is one entry of lruCache's intrusive recency list.
type lruNode[V any] struct {
	key        string
	val        V
	prev, next *lruNode[V]
}

// lruCache is a mutex-guarded LRU map. The platform's query path performs
// one get per spec (plan cache) or one per batch (schedule cache), so a
// plain mutex is far from contended relative to the kernel work behind it.
type lruCache[V any] struct {
	mu    sync.Mutex
	cap   int
	table map[string]*lruNode[V]
	head  *lruNode[V] // most recently used
	tail  *lruNode[V] // eviction candidate
}

func newLRU[V any](capacity int) *lruCache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache[V]{cap: capacity, table: make(map[string]*lruNode[V], capacity)}
}

func (l *lruCache[V]) get(key string) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, ok := l.table[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.moveToFront(n)
	return n.val, true
}

// getBytes is get with a byte-slice key: the map lookup converts in place
// without allocating, which matters for the schedule cache's per-batch
// concatenated keys.
func (l *lruCache[V]) getBytes(key []byte) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, ok := l.table[string(key)]
	if !ok {
		var zero V
		return zero, false
	}
	l.moveToFront(n)
	return n.val, true
}

func (l *lruCache[V]) add(key string, v V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n, ok := l.table[key]; ok {
		n.val = v
		l.moveToFront(n)
		return
	}
	n := &lruNode[V]{key: key, val: v}
	l.table[key] = n
	l.pushFront(n)
	if len(l.table) > l.cap {
		evict := l.tail
		l.unlink(evict)
		delete(l.table, evict.key)
	}
}

func (l *lruCache[V]) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.table)
}

func (l *lruCache[V]) pushFront(n *lruNode[V]) {
	n.prev = nil
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *lruCache[V]) unlink(n *lruNode[V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
}

func (l *lruCache[V]) moveToFront(n *lruNode[V]) {
	if l.head == n {
		return
	}
	l.unlink(n)
	l.pushFront(n)
}

// planCache bundles the interface's three compiler caches.
type planCache struct {
	plans  *lruCache[*audience.Plan]      // canonical spec key → compiled plan
	unions *lruCache[audience.Operand]    // canonical clause key → shared union
	scheds *lruCache[*audience.PlanBatch] // batch key sequence → frozen schedule

	// seenMu guards seenUnions: every union key ever materialized, bounded
	// by seenUnionCap. A union-cache miss on a seen key is a rebuild — the
	// eviction-refill churn plan_cache_rebuilds_total counts (each one
	// re-runs audience.Union). Interfaces with a compressed catalog have no
	// union cache, so their counter pins at 0.
	seenMu     sync.Mutex
	seenUnions map[string]struct{}
}

// seenUnionCap bounds the rebuild-detection key set; beyond it new keys stop
// being recorded (misses on unrecorded keys count as first builds, so the
// counter under-reports rather than growing without bound).
const seenUnionCap = 1 << 16

// noteUnionBuild records that a union key is being materialized and reports
// whether it had been materialized before — i.e. this build is a rebuild.
func (pc *planCache) noteUnionBuild(key string) (rebuild bool) {
	pc.seenMu.Lock()
	defer pc.seenMu.Unlock()
	if _, ok := pc.seenUnions[key]; ok {
		return true
	}
	if pc.seenUnions == nil {
		pc.seenUnions = make(map[string]struct{})
	}
	if len(pc.seenUnions) < seenUnionCap {
		pc.seenUnions[key] = struct{}{}
	}
	return false
}

func newPlanCache(size int) *planCache {
	derived := size / 8
	if derived < minDerivedCacheSize {
		derived = minDerivedCacheSize
	}
	return &planCache{
		plans:  newLRU[*audience.Plan](size),
		unions: newLRU[audience.Operand](derived),
		scheds: newLRU[*audience.PlanBatch](derived),
	}
}

// unionMemo holds the OR-clause unions of one batch compiled on a
// compressed catalog, by union key; the zero value is ready to use.
type unionMemo map[string]audience.Operand

// unionOperand resolves a multi-ref OR clause to a single shared operand.
// The union is keyed by the clause's canonical form (targeting.Canonical:
// refs sorted and deduplicated), so every plan whose clause unions the same
// options references the same materialized set, which is what lets
// CompileBatch common-subexpression tails across plans. The union is a
// dense set on both postures. Dense catalogs share unions interface-wide
// through the union LRU; compressed catalogs build them from the
// compressed operands once per batch, in memo.
func (p *Interface) unionOperand(cl targeting.Clause, memo *unionMemo) (audience.Operand, error) {
	key := targeting.Canonical(targeting.Spec{Include: []targeting.Clause{cl}})
	if p.plans != nil {
		if op, ok := p.plans.unions.get(key); ok {
			return op, nil
		}
	} else if op, ok := (*memo)[key]; ok {
		return op, nil
	}
	// Resolve in clause order so error positions match Interface.Audience.
	ops := make([]audience.Operand, len(cl))
	for i, r := range cl {
		op, err := p.operandFor(r)
		if err != nil {
			return audience.Operand{}, err
		}
		ops[i] = op
	}
	u := audience.Union(p.cfg.Universe.Size(), ops)
	if p.plans == nil {
		if *memo == nil {
			*memo = make(unionMemo)
		}
		(*memo)[key] = u
		return u, nil
	}
	if p.plans.noteUnionBuild(key) {
		p.mPlanRebuilds.Inc()
	}
	p.plans.unions.add(key, u)
	return u, nil
}

// specCacheable reports whether a spec's plan may be cached: specs touching
// custom audiences compile fresh every time, since audience ids are dynamic
// per-advertiser state the canonical key does not pin.
func specCacheable(spec targeting.Spec) bool {
	for _, cl := range spec.Include {
		for _, r := range cl {
			if r.Kind == targeting.KindCustomAudience {
				return false
			}
		}
	}
	for _, cl := range spec.Exclude {
		for _, r := range cl {
			if r.Kind == targeting.KindCustomAudience {
				return false
			}
		}
	}
	return true
}

// compileSpec lowers one spec into a compiled plan, sharing the batch's
// unions through memo on a compressed catalog. Shape and resolution errors
// are produced in the same order as Interface.Audience evaluates: clauses
// in include-then-exclude order, refs in clause order.
func (p *Interface) compileSpec(spec targeting.Spec, memo *unionMemo) (*audience.Plan, error) {
	if len(spec.Include) == 0 {
		return nil, targeting.ErrEmptySpec
	}
	var buf [8]audience.PlanClause // the audit's specs hold a few clauses
	clauses := buf[:0]
	lower := func(cl targeting.Clause, negate bool) error {
		if len(cl) == 0 {
			return targeting.ErrEmptyClause
		}
		var op audience.Operand
		var err error
		if len(cl) == 1 {
			op, err = p.operandFor(cl[0])
		} else {
			op, err = p.unionOperand(cl, memo)
		}
		if err != nil {
			return err
		}
		clauses = append(clauses, audience.PlanClause{Op: op, Negate: negate})
		return nil
	}
	for _, cl := range spec.Include {
		if err := lower(cl, false); err != nil {
			return nil, err
		}
	}
	for _, cl := range spec.Exclude {
		if err := lower(cl, true); err != nil {
			return nil, err
		}
	}
	return audience.CompilePlan(p.cfg.Universe.Size(), clauses), nil
}

// planFor returns the compiled plan for a spec, from cache when possible.
// The second result reports whether the plan is cache-stable (usable in a
// cached batch schedule); on a compressed catalog no plan is.
func (p *Interface) planFor(key string, spec targeting.Spec, memo *unionMemo) (*audience.Plan, bool, error) {
	cacheable := p.plans != nil && specCacheable(spec)
	if cacheable {
		if plan, ok := p.plans.plans.get(key); ok {
			p.mPlanHits.Inc()
			return plan, true, nil
		}
		p.mPlanMisses.Inc()
	}
	plan, err := p.compileSpec(spec, memo)
	if err != nil {
		return nil, false, err
	}
	p.mPlansCompiled.Inc()
	if cacheable {
		p.plans.plans.add(key, plan)
	}
	return plan, cacheable, nil
}

// PlanCacheStats reports the plan cache's current occupancy, for tests and
// diagnostics.
func (p *Interface) PlanCacheStats() (plans, unions, schedules int) {
	if p.plans == nil {
		return 0, 0, 0
	}
	return p.plans.plans.len(), p.plans.unions.len(), p.plans.scheds.len()
}
