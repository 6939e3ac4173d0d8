package main

// serve-mixed: two closed-loop clients POST /v1/evaluate from a seeded,
// Zipf-popular pool of paper-scale scenarios plus a trickle of scenarios
// whose traces were never seen.

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hierclust/pkg/hierclust"
)

const (
	servePool      = 512 // distinct pooled scenarios: more than the 128-entry result LRU
	serveClients   = 2
	serveWarmup    = 300 // untimed requests that build the pooled traces
	trickleEvery   = 40  // every 40th request carries a never-seen trace
	partialEvery   = 8   // every 8th never-seen trace has a partially filled last node
	serveStreamLen = 100_000
	serveChecks    = 10 // scenarios rebuilt and checked against the reference per run
)

type serveReq struct {
	doc     []byte
	sc      *hierclust.Scenario
	key     string
	tsunami bool
}

var defaultLoss = []float64{0.9429, 6.3e-3, 6.6e-4, 6.6e-5, 6.6e-6, 6.6e-7, 6.6e-8, 6.6e-9, 6.6e-10}

// serveMixes are the failure mixes of the pool: the calibrated default, a
// pair-correlated variant and a heavier multi-node tail.
func serveMixes() []*hierclust.MixSpec {
	heavy := append([]float64(nil), defaultLoss...)
	for i := 1; i < len(heavy); i++ {
		heavy[i] *= 10
	}
	return []*hierclust.MixSpec{
		nil,
		{Transient: 0.05, NodeLoss: defaultLoss, PairCorrelation: 0.25},
		{Transient: 0.05, NodeLoss: heavy},
	}
}

var serveStrategySets = [][]hierclust.StrategySpec{
	{{Kind: "naive"}},
	{{Kind: "size-guided"}, {Kind: "distributed"}},
	{{Kind: "hierarchical"}},
	{{Kind: "naive", Size: 16}, {Kind: "hierarchical"}},
	{{Kind: "naive"}, {Kind: "size-guided"}, {Kind: "distributed"}, {Kind: "hierarchical"}},
	{{Kind: "hierarchical", Hier: &hierclust.HierSpec{MinNodesPerL1: 8}}},
}

func newServeReq(sc *hierclust.Scenario) (*serveReq, error) {
	doc, err := json.Marshal(sc)
	if err != nil {
		return nil, err
	}
	key, err := sc.CacheKey()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	return &serveReq{doc: doc, sc: sc, key: key, tsunami: sc.Trace.Source == "tsunami"}, nil
}

// servePoolDesign is the fixed pool: the same 512 scenarios in the same
// popularity order on every seed, so that a run's expected cost does not
// depend on the seed. They are drawn once from every combination of
// trace, placement policy, density, strategy set and failure mix.
func servePoolDesign() ([]*serveReq, error) {
	type traceChoice struct {
		ranks int
		spec  hierclust.TraceSpec
	}
	var traces []traceChoice
	for _, ranks := range []int{64, 128, 192, 256} {
		for _, it := range []int{10, 20} {
			traces = append(traces, traceChoice{ranks, hierclust.TraceSpec{Source: "tsunami", Iterations: it}})
		}
	}
	for _, ranks := range []int{32, 64, 96, 128} {
		for _, pat := range []string{"stencil1d", "stencil2d"} {
			traces = append(traces, traceChoice{ranks, hierclust.TraceSpec{Source: "synthetic", Pattern: pat, Iterations: 50}})
		}
	}
	var all []*hierclust.Scenario
	for _, t := range traces {
		for _, policy := range []string{"block", "round-robin"} {
			for _, ppn := range []int{4, 8} {
				for _, set := range serveStrategySets {
					if t.ranks/ppn < 8 && set[0].Hier != nil {
						continue // fewer nodes than the L1 minimum
					}
					if policy == "round-robin" {
						set = roundRobinSet(set)
					}
					for _, mix := range serveMixes() {
						all = append(all, &hierclust.Scenario{
							Placement:  hierclust.PlacementSpec{Policy: policy, Ranks: t.ranks, ProcsPerNode: ppn},
							Trace:      t.spec,
							Strategies: set,
							Mix:        mix,
						})
					}
				}
			}
		}
	}
	design := rand.New(rand.NewSource(1))
	design.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	pool := make([]*serveReq, servePool)
	for i := range pool {
		sc := all[i]
		sc.Name = fmt.Sprintf("mixed-%d", i)
		r, err := newServeReq(sc)
		if err != nil {
			return nil, err
		}
		pool[i] = r
	}
	return pool, nil
}

// roundRobinSet sizes naive clusters at 16 under round-robin placement. A
// 32-rank naive group would span 24 to 32 nodes there, where the model
// samples each group's loss probability for hundreds of milliseconds per
// scenario; sweep-grid measures that path at a fixed share of its cells.
func roundRobinSet(set []hierclust.StrategySpec) []hierclust.StrategySpec {
	out := make([]hierclust.StrategySpec, len(set))
	for i, s := range set {
		if s.Kind == "naive" && s.Size == 0 {
			s.Size = 16
		}
		out[i] = s
	}
	return out
}

// serveStream draws the request stream from the seed: Zipf-popular pool
// scenarios, with every trickleEvery-th request a never-seen trace.
func serveStream(rng *rand.Rand) ([]*serveReq, error) {
	pool, err := servePoolDesign()
	if err != nil {
		return nil, err
	}
	// Never-seen traces: tsunami runs at 200-363 ranks (no pooled
	// scenario uses them) with iterations scaled so that every build does
	// 5,000 to 6,300 rank-iterations. Every eighth one leaves its
	// last node partially filled, the case whose clustering the
	// reliability model cannot take in closed form. Their order is fixed,
	// so every run builds and caches the same sequence of traces.
	var trickle []*serveReq
	for extra := 0; extra < 4; extra++ {
		for base := 200; base <= 360; base += 8 {
			if base == 256 {
				continue
			}
			ranks := base
			if len(trickle)%partialEvery == partialEvery-1 {
				ranks += 3
			}
			it := (5000+ranks/2)/ranks + extra
			sc := &hierclust.Scenario{Name: fmt.Sprintf("trickle-%d-%d", ranks, it),
				Placement:  hierclust.PlacementSpec{Ranks: ranks, ProcsPerNode: 8},
				Trace:      hierclust.TraceSpec{Source: "tsunami", Iterations: it},
				Strategies: []hierclust.StrategySpec{{Kind: "hierarchical"}}}
			r, err := newServeReq(sc)
			if err != nil {
				return nil, err
			}
			trickle = append(trickle, r)
		}
	}
	zipf := rand.NewZipf(rng, 1.1, 4, servePool-1)
	stream := make([]*serveReq, serveStreamLen)
	for i := range stream {
		if i%trickleEvery == trickleEvery-1 {
			stream[i] = trickle[(i/trickleEvery)%len(trickle)]
		} else {
			stream[i] = pool[zipf.Uint64()]
		}
	}
	return stream, nil
}

type serveSample struct {
	ms     float64
	cache  string
	status int
	req    *serveReq
}

// serveLoad drives the stream through the server with closed-loop
// clients from position *next until stop reports true for a position.
// It keeps the first body answered for each key and checks that every
// later answer for the key is byte-identical.
type serveLoad struct {
	s      *server
	stream []*serveReq
	next   atomic.Int64
	mu     sync.Mutex
	bodies map[string][]byte
	err    error
}

func (l *serveLoad) drive(stop func(pos int) bool) []serveSample {
	var mu sync.Mutex
	var out []serveSample
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pos := int(l.next.Add(1) - 1)
				if pos >= len(l.stream) || stop(pos) {
					return
				}
				r := l.stream[pos]
				t0 := time.Now()
				status, cache, body, err := l.s.post("/v1/evaluate", r.doc, "X-Hierclust-Cache")
				took := time.Since(t0)
				if err != nil {
					status = 0
				}
				l.record(r, status, body)
				mu.Lock()
				out = append(out, serveSample{ms: ms(took), cache: cache, status: status, req: r})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

func (l *serveLoad) record(r *serveReq, status int, body []byte) {
	if status != 200 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.bodies[r.key]; !ok {
		l.bodies[r.key] = body
	} else if !bytes.Equal(prev, body) && l.err == nil {
		l.err = checkFailed("scenario %s: answers for one key differ", r.sc.Name)
	}
}

func runServeMixed(e *env) (*outcome, error) {
	stream, err := serveStream(e.rng)
	if err != nil {
		return nil, err
	}
	m := metrics{}
	s, err := setupServer(e, m, func(string) []string { return nil })
	if err != nil {
		return nil, err
	}
	defer s.stop()
	load := &serveLoad{s: s, stream: stream, bodies: map[string][]byte{}}
	load.drive(func(pos int) bool { return pos >= serveWarmup })
	cpu0, err := procCPU(s.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(e.seconds)
	samples := load.drive(func(int) bool { return time.Now().After(deadline) })
	cpu1, err := procCPU(s.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(s.pid())
	if err != nil {
		return nil, err
	}
	s.stop()

	out := &outcome{attempted: len(samples), m: m}
	var lat, evalLat []float64
	count := map[string]int{}
	traces := map[string]bool{}
	keys := map[string]*serveReq{}
	partial := 0
	for _, smp := range samples {
		if smp.status != 200 {
			out.failed++
			continue
		}
		lat = append(lat, smp.ms)
		count[smp.cache]++
		if smp.cache != "hit" {
			evalLat = append(evalLat, smp.ms)
		}
		tk, _ := smp.req.sc.TraceKey()
		traces[tk] = true
		keys[smp.req.key] = smp.req
		if pl := smp.req.sc.Placement; pl.Ranks%pl.ProcsPerNode != 0 {
			partial++
		}
	}
	m.set("evaluate_p50_ms", "ms", median(lat))
	// Two requests are served at once, so a request's CPU time is its
	// share of what hcserve used over the window.
	m.set("op_cpu_ms", "ms", ms(cpu1-cpu0)/float64(max(1, len(samples))))
	m.set("peak_rss_mb", "MB", rss)
	n := float64(max(1, len(lat)))
	e.props["requests"] = len(samples)
	e.props["hit_share"] = float64(count["hit"]) / n
	e.props["trace_hit_share"] = float64(count["trace-hit"]) / n
	e.props["miss_share"] = float64(count["miss"]) / n
	e.props["partial_node_share"] = float64(partial) / n
	e.props["distinct_traces"] = len(traces)
	e.props["distinct_scenarios"] = len(keys)
	if load.err != nil {
		return out, load.err
	}
	if err := checkServed(e, keys, load.bodies); err != nil {
		return out, err
	}
	if !e.traced {
		return out, nil
	}

	lm := metrics{}
	byCache := map[string][]float64{}
	var tsunamiBuilds int
	for _, smp := range samples {
		byCache[smp.cache] = append(byCache[smp.cache], smp.ms)
		if smp.cache == "miss" && smp.req.tsunami {
			tsunamiBuilds++
		}
	}
	lm.set("serve.hit_ms", "ms", median(byCache["hit"]))
	lm.set("serve.trace_hit_ms", "ms", median(byCache["trace-hit"]))
	lm.set("serve.miss_ms", "ms", median(byCache["miss"]))
	lm.set("serve.hit_ratio", "ratio", float64(count["hit"])/n)
	lm.set("serve.trace_hit_ratio", "ratio", float64(count["trace-hit"])/float64(max(1, count["trace-hit"]+count["miss"])))
	lm.set("tsunami.trace_builds", "count", float64(tsunamiBuilds))
	if err := tracedReplay(e, lm, "serve-mixed", e.seconds/2, func(tr *tracer, limit int, until time.Time, st *replayStats) (int, error) {
		return replayServe(tr, stream, limit, until, st)
	}); err != nil {
		return out, err
	}
	out.m = lm
	return out, nil
}

// checkServed rebuilds a seeded sample of the answered scenarios in
// process and checks the server's answers against the reference.
func checkServed(e *env, keys map[string]*serveReq, bodies map[string][]byte) error {
	var names []string
	byName := map[string]*serveReq{}
	for _, r := range keys {
		names = append(names, r.sc.Name)
		byName[r.sc.Name] = r
	}
	sort.Strings(names)
	e.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	v := &verifier{}
	for _, name := range names[:min(serveChecks, len(names))] {
		r := byName[name]
		b, err := call{}.evaluate(r.sc, nil)
		if err != nil {
			return fmt.Errorf("rebuilding %s: %w", name, err)
		}
		if err := v.checkResult(bodies[r.key], b); err != nil {
			return checkFailed("scenario %s: %v", name, err)
		}
	}
	e.props["checked_results"] = v.checked
	e.props["checked_catastrophe_pinned"] = v.pinned
	return nil
}

// lru is a fixed-capacity least-recently-used map, the eviction policy of
// hcserve's result and trace caches.
type lru[V any] struct {
	cap   int
	order *list.List
	items map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{cap: capacity, order: list.New(), items: map[string]*list.Element{}}
}

func (c *lru[V]) get(key string) (V, bool) {
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

func (c *lru[V]) put(key string, v V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).val = v
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry[V]{key, v})
	if c.order.Len() > c.cap {
		old := c.order.Back()
		c.order.Remove(old)
		delete(c.items, old.Value.(*lruEntry[V]).key)
	}
}
