package main

// Traced runs: a workload's operations replayed in process, layer by
// layer, once with spans and once without.

import (
	"encoding/json"
	"time"

	"hierclust/internal/trace"
	"hierclust/pkg/hierclust"
)

// replayStats are the counts a replay gathers besides its spans.
type replayStats struct {
	hierSelf      []float64
	relCalls      int
	tsunamiBuilds int
	tsunamiMsgs   int64
	writtenBytes  int64
}

// replayFunc replays operations until limit operations have run or until
// has passed (a zero until never stops it), returning how many ran.
type replayFunc func(tr *tracer, limit int, until time.Time, st *replayStats) (int, error)

// tracedReplay runs the replay with spans for budget, then the same
// operations without spans, and sets the per-layer metrics and the
// tracing overhead: traced wall time over untraced wall time for the same
// operations.
func tracedReplay(e *env, m metrics, name string, budget time.Duration, replay replayFunc) error {
	tr := newTracer()
	var st replayStats
	t0 := time.Now()
	n, err := replay(tr, 1<<30, t0.Add(budget), &st)
	if err != nil {
		return err
	}
	traced := time.Since(t0)
	t1 := time.Now()
	if _, err := replay(nil, n, time.Time{}, &replayStats{}); err != nil {
		return err
	}
	untraced := time.Since(t1)
	m.set("tracing.overhead_ratio", "ratio", traced.Seconds()/untraced.Seconds())
	spanMetrics(tr, m, &st)
	e.props["replayed_ops"] = n
	return e.writeSpans(tr, name)
}

// spanMetrics derives the per-layer metrics from the spans of a replay.
func spanMetrics(tr *tracer, m metrics, st *replayStats) {
	for _, name := range []string{"hierclust.decode", "hierclust.plan", "diskstore.get", "diskstore.put",
		"tsunami.trace_build", "tsunami.step", "topology.place", "trace.synthetic", "trace.node_graph",
		"trace.logged_fraction", "graph.partition", "core.validate", "core.recovery_fraction",
		"reliability.group_build", "reliability.catastrophe", "checkpoint.checkpoint", "checkpoint.restore"} {
		if tr.count(name) > 0 {
			m.set(name+"_ms", "ms", tr.medianMs(name))
		}
	}
	var strat []float64
	for i := range tr.spans {
		if n := tr.spans[i].Name; n == "core.strategy" || n == "core.hierarchical" {
			strat = append(strat, ms(tr.spans[i].dur()))
		}
	}
	m.set("core.strategy_ms", "ms", median(strat))
	m.set("core.hierarchical_self_ms", "ms", median(st.hierSelf))
	ops := float64(max(1, tr.ops()))
	m.set("reliability.calls", "count", float64(st.relCalls)/ops)
	for _, l := range []string{"trace", "graph", "core", "reliability"} {
		m.set(l+".alloc_mb", "MB", tr.allocMB(l))
	}
	if st.tsunamiBuilds > 0 {
		m.set("simmpi.msgs_per_build", "count", float64(st.tsunamiMsgs)/float64(st.tsunamiBuilds))
	}
	if st.writtenBytes > 0 {
		m.set("diskstore.written_mb", "MB", float64(st.writtenBytes)/1e6/ops)
	}
	tr.layerSummary(m)
}

// replayServe replays a serve-mixed request stream the way hcserve
// answers it: the 128-entry result LRU, then the 64-trace LRU beneath it,
// then the evaluation.
func replayServe(tr *tracer, stream []*serveReq, limit int, until time.Time, st *replayStats) (int, error) {
	results := newLRU[bool](128)
	traces := newLRU[trace.Comm](64)
	i := 0
	for ; i < limit && i < len(stream) && (until.IsZero() || time.Now().Before(until)); i++ {
		op := tr.begin("bench.op", -1, int64(i))
		c := call{tr: tr, parent: op, req: int64(i), split: true, hierSelf: &st.hierSelf, relCalls: &st.relCalls}
		var sc *hierclust.Scenario
		var key string
		var err error
		tr.do("hierclust.decode", op, c.req, func() {
			if sc, err = hierclust.DecodeScenario(stream[i].doc); err == nil {
				key, err = sc.CacheKey()
			}
		})
		if err != nil {
			return i, err
		}
		if _, hit := results.get(key); hit {
			tr.end(op)
			continue
		}
		tk, _ := sc.TraceKey()
		comm, _ := traces.get(tk)
		b, err := c.evaluate(sc, comm)
		if err != nil {
			return i, err
		}
		if comm == nil {
			traces.put(tk, b.comm)
			if sc.Trace.Source == "tsunami" {
				st.tsunamiBuilds++
				st.tsunamiMsgs += b.comm.TotalMsgs()
			}
		}
		if _, err := json.Marshal(b.results); err != nil {
			return i, err
		}
		results.put(key, true)
		tr.end(op)
	}
	return i, nil
}
