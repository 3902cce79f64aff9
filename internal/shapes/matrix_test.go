package shapes

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/adapi"
	"repro/internal/battery"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/platform"
	"repro/internal/store"
	"repro/internal/targeting"
)

// The differential matrix. Every row of the shape table answers one
// seeded spec battery (internal/battery) through its batch door — in slot
// order, reversed, and again — through its serial door, and under core's
// cache with a durable store, fresh and then replayed. Rows with a
// request-level door also answer the battery with its objectives and
// frequency caps. Every slot is compared with one oracle on a separate
// dense deployment of the same seed: QueryParams, then
// Interface.Audience(spec).Count(), then ScaleAndRound.
//
// The error rule, stated once:
//   - in-process and cluster rows answer the oracle's size, or an error
//     with the oracle's exact text (a coordinator validates on its
//     metadata interface, as a single node does);
//   - the http row answers the oracle's size, or an error that is the
//     oracle's sentinel under errors.Is: the wire carries a code and a
//     message, not the error's text;
//   - a spec a wire dialect cannot express (dialectLimits) fails in the
//     client's encoder, before it is sent, with the encoder's typed error.
//
// A different size is never allowed, on any row.

const (
	matrixSeed  = 7_2020
	batterySize = 3 * 20 // three draws of each battery shape
)

// dialectLimits are the battery shapes a wire dialect cannot express. Over
// HTTP they fail in the client's encoder with err, whatever the oracle
// answers.
var dialectLimits = []struct {
	dialects []string
	shapes   []string
	err      error
	reason   string
}{
	{[]string{catalog.PlatformFacebookRestricted, catalog.PlatformFacebook}, []string{"topic", "topic-location", "exclude-or"},
		targeting.ErrKindForbidden, "the dialect has no topic feature"},
	{[]string{catalog.PlatformFacebookRestricted, catalog.PlatformFacebook}, []string{"two-locations"},
		targeting.ErrTooManyClauses, "the body holds one geo_locations block"},
	{[]string{catalog.PlatformFacebookRestricted, catalog.PlatformFacebook}, []string{"exclude-topic", "exclude-location"},
		targeting.ErrKindForbidden, "exclusions carry interests (attributes) only"},
	{[]string{catalog.PlatformGoogle}, []string{"exclude-location"},
		targeting.ErrKindForbidden, "exclusions carry attribute and topic groups only"},
	{[]string{catalog.PlatformFacebookRestricted, catalog.PlatformFacebook, catalog.PlatformGoogle}, []string{"two-genders", "two-ages"},
		targeting.ErrTooManyClauses, "genders and ages travel as one list each, and a list is an OR"},
}

// dialectLimit returns the encoder error a spec of shape fails with on
// iface's wire, or nil when the dialect expresses it.
func dialectLimit(iface, shape string) error {
	for _, l := range dialectLimits {
		if slices.Contains(l.dialects, iface) && slices.Contains(l.shapes, shape) {
			return l.err
		}
	}
	return nil
}

// sentinels are the typed errors a wire carries as codes.
var sentinels = []error{
	targeting.ErrEmptySpec, targeting.ErrEmptyClause, targeting.ErrMixedClause,
	targeting.ErrExcludeForbidden, targeting.ErrDemoForbidden, targeting.ErrAndWithinFeature,
	targeting.ErrTooManyClauses, targeting.ErrUnknownOption, targeting.ErrDuplicateRef,
	targeting.ErrInvalidDemoValue, targeting.ErrKindForbidden,
	platform.ErrUnknownObjective, platform.ErrBadFrequencyCap,
}

// matrixCase is one row built at one configuration.
type matrixCase struct {
	row  string
	name string
	cfg  Config
}

func matrixCases() []matrixCase {
	deploy := func(universe int, compressed bool) platform.DeployOptions {
		return platform.DeployOptions{Seed: matrixSeed, UniverseSize: universe, Compressed: compressed, Metrics: obs.NewRegistry()}
	}
	var out []matrixCase
	add := func(row string, cfg Config) {
		name := fmt.Sprintf("u=%d", cfg.Deploy.UniverseSize)
		if cfg.Shards > 0 {
			name = fmt.Sprintf("n=%d,%s", cfg.Shards, name)
		}
		if cfg.Deploy.Compressed {
			name += ",compressed"
		}
		out = append(out, matrixCase{row, name, cfg})
	}
	cluster := func(row string, n, universe, partition int, compressed bool) {
		replicas := 1
		if n == 1 {
			replicas = 0
		}
		add(row, Config{Deploy: deploy(universe, compressed), Shards: n, Replicas: replicas, PartitionSize: partition})
	}
	for _, u := range []int{1<<16 - 1, 1 << 16, 1<<16 + 1} {
		add("inproc", Config{Deploy: deploy(u, false)})
		add("inproc-snap", Config{Deploy: deploy(u, false)})
		cluster("cluster", 3, u, 1<<12, true)
	}
	add("inproc", Config{Deploy: deploy(1<<16, true)})
	add("http", Config{Deploy: deploy(1<<16, false)})
	for _, n := range []int{1, 2, 7, 16} {
		cluster("cluster", n, 1<<16, 1<<12, true)
	}
	cluster("cluster", 3, 1<<16, 1<<12, false)
	for _, n := range []int{1, 3, 7} {
		cluster("cluster-http", n, 1<<16, 1<<12, false)
	}
	if !testing.Short() {
		cluster("cluster", 3, 1<<20, 1<<16, true)
	}
	return out
}

// oracleAnswers is the oracle's answer to every battery case on one
// interface: the spec alone, and the spec with its objective and cap.
type oracleAnswers struct {
	iface         *platform.Interface
	cases         []battery.Case
	specs, reqs   []platform.Estimate
	requests      []platform.EstimateRequest
	attrs, topics []string
}

var (
	oracleMu    sync.Mutex
	oracleCache = map[int]func() ([]*oracleAnswers, error){}
)

// oracleFor answers the battery on every interface of a dense deployment
// of the matrix seed at universe, once per universe.
func oracleFor(universe int) ([]*oracleAnswers, error) {
	oracleMu.Lock()
	once, ok := oracleCache[universe]
	if !ok {
		once = sync.OnceValues(func() ([]*oracleAnswers, error) { return buildOracle(universe) })
		oracleCache[universe] = once
	}
	oracleMu.Unlock()
	return once()
}

func buildOracle(universe int) ([]*oracleAnswers, error) {
	d, err := platform.NewDeployment(platform.DeployOptions{Seed: matrixSeed, UniverseSize: universe, Metrics: obs.NewRegistry()})
	if err != nil {
		return nil, err
	}
	var out []*oracleAnswers
	for _, p := range d.Interfaces() {
		cat := p.Catalog()
		a := &oracleAnswers{iface: p, cases: battery.Draw(matrixSeed+uint64(len(p.Name())), batterySize,
			battery.Catalog{Attributes: len(cat.Attributes), Topics: len(cat.Topics)})}
		for _, o := range cat.Attributes {
			a.attrs = append(a.attrs, o.Name)
		}
		for _, o := range cat.Topics {
			a.topics = append(a.topics, o.Name)
		}
		for _, c := range a.cases {
			req := platform.EstimateRequest{Spec: c.Spec, Objective: platform.Objective(c.Objective), FrequencyCapPerMonth: c.Cap}
			a.requests = append(a.requests, req)
			a.specs = append(a.specs, oracle(p, platform.EstimateRequest{Spec: c.Spec}))
			a.reqs = append(a.reqs, oracle(p, req))
		}
		out = append(out, a)
	}
	return out, nil
}

// oracle answers one request the reference way, outside the query
// compiler: the measure door's parameter checks, the audience by dense set
// algebra, counted, then scaled and rounded.
func oracle(p *platform.Interface, req platform.EstimateRequest) platform.Estimate {
	eligible, impressions, err := p.QueryParams(platform.DoorMeasure, req)
	if err != nil {
		return platform.Estimate{Err: err}
	}
	set, err := p.Audience(req.Spec)
	if err != nil {
		return platform.Estimate{Err: err}
	}
	return platform.Estimate{Size: p.ScaleAndRound(int64(set.Count()), eligible, impressions)}
}

// oracleDigest pins the oracle's answers, sizes and error texts, over the
// battery at the matrix seed and 2^16 users, as the commit before the shape
// table computed them (the oracle's packages did not change with it). A
// defect the oracle shares with every row (say, in ScaleAndRound) moves the
// digest even where every row agrees with it.
const oracleDigest = "08b281c18af0f05c1140347e6b14ec58168a2b4b0333b94ddd0195b6a1067d33"

func TestOracleDigest(t *testing.T) {
	answers, err := oracleFor(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, a := range answers {
		for i, c := range a.cases {
			fmt.Fprintf(h, "%s %d %s %d %v %d %v\n", a.iface.Name(), i, c.Shape, a.specs[i].Size, a.specs[i].Err, a.reqs[i].Size, a.reqs[i].Err)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != oracleDigest {
		t.Fatalf("oracle digest %s, pinned %s", got, oracleDigest)
	}
}

// TestMatrix runs every row of the table at each of its configurations
// against the oracle, with a rate-0 process tracer installed: disabled
// tracing must record no span and buffer no trace on any door.
func TestMatrix(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := trace.New(trace.Options{SampleRate: 0, Metrics: reg})
	trace.SetDefault(tracer)
	t.Cleanup(func() {
		trace.SetDefault(nil)
		if n := reg.CounterValue("trace_spans_recorded_total"); n != 0 {
			t.Errorf("disabled tracing recorded %d spans", n)
		}
		if n := tracer.Len(); n != 0 {
			t.Errorf("disabled tracing buffered %d traces", n)
		}
	})
	cases := matrixCases()
	for _, row := range Rows {
		t.Run(row.Name, func(t *testing.T) {
			t.Parallel()
			ran := 0
			for _, mc := range cases {
				if mc.row != row.Name {
					continue
				}
				ran++
				t.Run(mc.name, func(t *testing.T) {
					t.Parallel()
					runMatrixCase(t, row, mc.cfg)
				})
			}
			if ran == 0 {
				t.Fatal("no matrix configuration for this row")
			}
		})
	}
}

func runMatrixCase(t *testing.T, row Row, cfg Config) {
	answers, err := oracleFor(cfg.Deploy.UniverseSize)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	s, err := row.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(s.Providers) != len(answers) {
		t.Fatalf("%d providers, the oracle has %d interfaces", len(s.Providers), len(answers))
	}
	for i, a := range answers {
		name := a.iface.Name()
		p := s.Providers[i]
		if p.Name() != name || !slices.Equal(p.AttributeNames(), a.attrs) || !slices.Equal(p.TopicNames(), a.topics) ||
			p.CrossFeature() != !a.iface.Rules().AndWithinFeature {
			t.Fatalf("provider %d reports %s, not the oracle's interface %s", i, p.Name(), name)
		}
		wire := row.Name == "http"
		same := func(door string, j int, got, want platform.Estimate) {
			t.Helper()
			if msg := compare(name, a.cases[j].Shape, wire, got, want); msg != "" {
				t.Fatalf("%s %s slot %d (%s, %s): %s", name, door, j, a.cases[j].Shape, targeting.Canonical(a.cases[j].Spec), msg)
			}
		}
		specs := battery.Specs(a.cases)
		rev := slices.Clone(specs)
		slices.Reverse(rev)
		for j, r := range p.MeasureMany(specs) {
			same("batch", j, r, a.specs[j])
		}
		for j, r := range p.MeasureMany(rev) {
			same("reversed batch", len(specs)-1-j, r, a.specs[len(specs)-1-j])
		}
		for j, r := range p.MeasureMany(specs) {
			same("second batch", j, r, a.specs[j])
		}
		for j, spec := range specs {
			size, err := s.Measure(i, spec)
			same("serial", j, platform.Estimate{Size: size, Err: err}, a.specs[j])
		}
		if wire {
			checkDialectLimits(t, name, a)
		}
		checkCache(t, p, specs, func(door string, j int, got platform.Estimate) { same(door, j, got, a.specs[j]) })
		if s.Requests != nil {
			got, err := s.Requests(i, a.requests)
			if err != nil {
				t.Fatalf("%s requests: %v", name, err)
			}
			for j := range a.requests {
				same("requests", j, got[j], a.reqs[j])
			}
		}
	}
	t.Logf("built and checked in %v", time.Since(start).Round(time.Millisecond))
}

// compare applies the error rule to one slot and says how it is broken,
// or returns "".
func compare(iface, shape string, wire bool, got, want platform.Estimate) string {
	if limit := dialectLimit(iface, shape); wire && limit != nil {
		if !errors.Is(got.Err, limit) {
			return fmt.Sprintf("got (%d, %v), want the encoder's %v", got.Size, got.Err, limit)
		}
		return ""
	}
	switch {
	case want.Err == nil && got.Err == nil && got.Size == want.Size:
		return ""
	case want.Err == nil || got.Err == nil:
		return fmt.Sprintf("got (%d, %v), oracle (%d, %v)", got.Size, got.Err, want.Size, want.Err)
	case !wire:
		if got.Err.Error() != want.Err.Error() {
			return fmt.Sprintf("error %q, oracle %q", got.Err, want.Err)
		}
		return ""
	}
	for _, s := range sentinels {
		if errors.Is(want.Err, s) {
			if !errors.Is(got.Err, s) {
				return fmt.Sprintf("error %v, want the oracle's %v", got.Err, s)
			}
			return ""
		}
	}
	return fmt.Sprintf("oracle error %v carries no wire sentinel", want.Err)
}

// checkDialectLimits requires each limit on the battery to bite in the
// encoder itself, before anything is sent.
func checkDialectLimits(t *testing.T, iface string, a *oracleAnswers) {
	t.Helper()
	codec, err := adapi.CodecFor(iface)
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range a.cases {
		if limit := dialectLimit(iface, c.Shape); limit != nil {
			if _, err := codec.AppendRequest(nil, platform.EstimateRequest{Spec: c.Spec}); !errors.Is(err, limit) {
				t.Fatalf("%s slot %d (%s): encoder returned %v, the limits table says %v", iface, j, c.Shape, err, limit)
			}
		}
	}
}

// checkCache answers specs through core's cache over p with a durable
// store, fresh, then replays the answered ones from the reopened store
// with no upstream call. The store keeps sizes only, so failed slots go
// upstream again on any pass and are checked on the fresh one.
func checkCache(t *testing.T, p core.Provider, specs []targeting.Spec, same func(door string, j int, got platform.Estimate)) {
	t.Helper()
	dir := t.TempDir()
	open := func() *store.Store {
		st, err := store.Open(dir, store.Options{Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := open()
	fresh := core.NewStoredProviderWith(p, st, obs.NewRegistry()).MeasureMany(specs)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var answered []int
	for j, r := range fresh {
		same("cache", j, r)
		if r.Err == nil {
			answered = append(answered, j)
		}
	}
	st = open()
	defer st.Close()
	replay := core.NewStoredProviderWith(p, st, obs.NewRegistry())
	again := make([]targeting.Spec, len(answered))
	for k, j := range answered {
		again[k] = specs[j]
	}
	for k, r := range replay.MeasureMany(again) {
		same("store replay", answered[k], r)
	}
	if n := core.UpstreamCalls(replay); n != 0 {
		t.Fatalf("%s: store replay made %d upstream calls", p.Name(), n)
	}
}
