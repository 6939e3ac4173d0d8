package main

// scale-1m: repeated Pipeline.Run of one million-node scenario, each on a
// fresh pipeline without caches.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"hierclust/internal/trace"
	"hierclust/pkg/hierclust"
)

// scaleDoc is a synthetic 2-D stencil of 4,194,304 ranks on 1,048,576
// nodes at 4 ranks per node, clustered by the multilevel hierarchical
// strategy. It is one fixed document: the seed does not change it, so the
// operation the reference rejects (see scaleKnownExcess) fails on every
// seed.
const scaleDoc = `{"name": "scale-1m",
 "machine": {"nodes": 1048576},
 "placement": {"policy": "block", "ranks": 4194304, "procs_per_node": 4},
 "trace": {"source": "synthetic", "pattern": "stencil2d"},
 "strategies": [{"kind": "hierarchical", "hier": {"multilevel": true}}]}`

// scaleKnownExcess is how far above the reference bracket, relative to
// its upper end, the catastrophe probability of scaleDoc may lie and still
// count as the known precision loss of the reliability model's
// disjoint-span closed form at 1,048,576 nodes (1-2% per failure size,
// 1.2% in total). A run whose value lies outside the bracket in any other
// way fails its check.
const scaleKnownExcess = 0.03

// knownScaleDefect reports whether a rejected catastrophe probability
// lies above the reference bracket by at most scaleKnownExcess of its
// upper end.
func knownScaleDefect(ce catastropheError) bool {
	hi := ce.ref.hi*(1+refTolerance) + ce.ref.slack
	return ce.got > hi && ce.got <= hi+scaleKnownExcess*ce.ref.hi
}

func runScale1M(e *env) (*outcome, error) {
	doc := []byte(scaleDoc)
	m := metrics{}
	setup, err := probeSetupTime(e, "scale-1m")
	if err != nil {
		return nil, err
	}
	m.set("setup_s", "s", setup)
	sc, err := hierclust.DecodeScenario(doc)
	if err != nil {
		return nil, err
	}

	var cpu []float64
	var first []byte
	out := &outcome{m: m}
	t0 := time.Now()
	for time.Since(t0) < e.seconds {
		runtime.GC()
		c0 := selfCPU()
		res, err := hierclust.NewPipeline().Run(context.Background(), sc)
		c := selfCPU() - c0
		out.attempted++
		if err != nil {
			out.failed++
			fmt.Fprintln(os.Stderr, "perfbench: scale-1m run:", err)
			continue
		}
		cpu = append(cpu, ms(c))
		got, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = got
		} else if !bytes.Equal(first, got) {
			return out, checkFailed("Pipeline.Run results differ between runs of one scenario")
		}
	}
	rss, err := peakRSSMB(strconv.Itoa(os.Getpid()))
	if err != nil {
		return nil, err
	}
	opMetrics(m, cpu)
	m.set("peak_rss_mb", "MB", rss)
	if first == nil {
		return out, checkFailed("no Pipeline.Run succeeded")
	}

	runtime.GC()
	b, err := call{}.evaluate(sc, nil)
	if err != nil {
		return out, err
	}
	e.props["ranks"] = b.placement.NumRanks()
	e.props["nodes"] = len(b.placement.UsedNodes())
	e.props["trace_nnz"] = b.comm.(*trace.CSR).NNZ()
	v := &verifier{}
	var ce catastropheError
	switch err := v.checkResult(first, b); {
	case errors.As(err, &ce) && knownScaleDefect(ce):
		// The known precision loss of the model's closed form: every run
		// returned this document, so every run failed the check, and the
		// other dimensions passed. Any other catastrophe error fails the
		// run below.
		out.failed = out.attempted
		e.props["failed_check"] = err.Error()
		fmt.Fprintf(os.Stderr, "perfbench: scale-1m: every run counted as failed: %v\n", err)
	case err != nil:
		return out, checkFailed("%v", err)
	}
	e.props["checked_catastrophe_pinned"] = v.pinned
	if !e.traced {
		return out, nil
	}
	b = nil
	lm := metrics{}
	if err := tracedReplay(e, lm, "scale-1m", e.seconds/2, func(tr *tracer, limit int, until time.Time, st *replayStats) (int, error) {
		i := 0
		for ; i < limit && (until.IsZero() || time.Now().Before(until)); i++ {
			runtime.GC()
			op := tr.begin("bench.op", -1, int64(i))
			c := call{tr: tr, parent: op, req: int64(i), split: true, hierSelf: &st.hierSelf, relCalls: &st.relCalls}
			if _, err := c.evaluate(sc, nil); err != nil {
				return i, err
			}
			tr.end(op)
		}
		return i, nil
	}); err != nil {
		return out, err
	}
	out.m = lm
	return out, nil
}
