package main

// Checks of the program's outputs against the reference evaluator.

import (
	"encoding/json"
	"fmt"
	"math"

	"hierclust/internal/core"
	"hierclust/internal/topology"
	"hierclust/internal/trace"
	"hierclust/pkg/hierclust"
)

// checkClose accepts got when it equals want within refTolerance.
func checkClose(what string, got, want float64) error {
	if math.Abs(got-want) <= refTolerance*math.Abs(want)+1e-300 {
		return nil
	}
	return fmt.Errorf("%s = %.17g, reference %.17g", what, got, want)
}

func checkEq[T comparable](what string, got, want T) error {
	if got == want {
		return nil
	}
	return fmt.Errorf("%s = %v, reference %v", what, got, want)
}

// refLayoutOf converts a clustering under a placement into plain slices.
func refLayoutOf(cl *core.Clustering, p *topology.Placement) refLayout {
	lay := refLayout{nodeOf: make([]int, p.NumRanks()), l1: cl.L1, groups: make([][]int, len(cl.Groups))}
	for r := range lay.nodeOf {
		lay.nodeOf[r] = int(p.NodeOf(topology.Rank(r)))
	}
	for i, g := range cl.Groups {
		lay.groups[i] = make([]int, len(g))
		for j, r := range g {
			lay.groups[i][j] = int(r)
		}
	}
	return lay
}

// verifier checks result documents and accumulates what it saw.
type verifier struct {
	// encodePerMember is encode seconds per GB divided by the largest
	// group size, which the model keeps constant across results.
	encodePerMember float64
	checked         int // strategy results checked
	pinned          int // of those, catastrophe probabilities pinned exactly
}

// traceCells visits the nonzero cells of a trace. Dense traces are read
// directly; a synthetic CSR is first matched cell by cell against the
// stencil it must hold, after which the stencil's cells are its cells.
func traceCells(sc *hierclust.Scenario, comm trace.Comm) (func(func(s, d int, b int64)), error) {
	switch m := comm.(type) {
	case *trace.Matrix:
		return func(visit func(s, d int, b int64)) {
			for s := range m.Bytes {
				for d, b := range m.Bytes[s] {
					if b != 0 {
						visit(s, d, b)
					}
				}
			}
		}, nil
	case *trace.CSR:
		o := oracleFor(sc)
		var bad error
		o.cells(func(s, d int, b int64) {
			if bad != nil {
				return
			}
			if gb, gm := m.At(s, d); gb != b || gm != o.cellMsgs {
				bad = fmt.Errorf("trace cell (%d,%d) = %d bytes %d msgs, stencil %d bytes %d msgs", s, d, gb, gm, b, o.cellMsgs)
			}
		})
		if bad != nil {
			return nil, bad
		}
		tb, tm := o.totals()
		if m.TotalBytes() != tb || m.TotalMsgs() != tm {
			return nil, fmt.Errorf("trace totals %d bytes %d msgs, stencil %d bytes %d msgs", m.TotalBytes(), m.TotalMsgs(), tb, tm)
		}
		return o.cells, nil
	}
	return nil, fmt.Errorf("unexpected trace type %T", comm)
}

// checkResult compares one result document with the reference evaluation
// of b, the same scenario rebuilt layer by layer.
func (v *verifier) checkResult(doc []byte, b *built) error {
	var res hierclust.Result
	if err := json.Unmarshal(doc, &res); err != nil {
		return fmt.Errorf("result document: %w", err)
	}
	sc := b.sc
	if err := firstErr(
		checkEq("scenario", res.Scenario, sc.Name),
		checkEq("ranks", res.Ranks, b.placement.NumRanks()),
		checkEq("nodes", res.Nodes, len(b.placement.UsedNodes())),
		checkEq("evaluations", len(res.Evaluations), len(sc.Strategies)),
	); err != nil {
		return err
	}
	cells, err := traceCells(sc, b.comm)
	if err != nil {
		return err
	}
	var total, msgs int64
	cells(func(_, _ int, bytes int64) { total += bytes })
	msgs = b.comm.TotalMsgs()
	if err := firstErr(checkEq("total_bytes", res.TotalBytes, total), checkEq("total_msgs", res.TotalMsgs, msgs)); err != nil {
		return err
	}
	mix := refMixOf(sc)
	base := sc.Baseline.Baseline()
	var catErr error
	for i, spec := range sc.Strategies {
		ev := res.Evaluations[i]
		lay := refLayoutOf(b.clusterings[i], b.placement)
		minNodes := 0
		if spec.Kind == "hierarchical" {
			minNodes = spec.Hier.Options().MinNodesPerL1
			if minNodes <= 0 {
				minNodes = 4
			}
		}
		if err := refStructure(lay, minNodes); err != nil {
			return fmt.Errorf("strategy %d (%s): %w", i, spec.Kind, err)
		}
		clusters := map[int]bool{}
		for _, c := range lay.l1 {
			clusters[c] = true
		}
		cut := refCutFromCells(cells, lay.l1)
		maxGroup := refMaxGroup(lay.groups)
		cat := refCatastropheProb(lay, res.Nodes, mix)
		if err := firstErr(
			checkEq("kind", ev.Kind, spec.Kind),
			checkEq("l1_clusters", ev.L1Clusters, len(clusters)),
			checkEq("groups", ev.Groups, len(lay.groups)),
			checkEq("max_group_size", ev.MaxGroupSize, maxGroup),
			checkClose("logged_fraction", ev.LoggedFraction, float64(cut)/float64(total)),
			checkClose("recovery_fraction", ev.RecoveryFraction, refRecovery(lay)),
		); err != nil {
			return fmt.Errorf("strategy %d (%s): %w", i, ev.Strategy, err)
		}
		if !cat.accepts(ev.CatastropheProb) && catErr == nil {
			catErr = catastropheError{fmt.Errorf("strategy %d (%s): catastrophe_prob %.17g outside reference [%.17g, %.17g] (slack %.3g)",
				i, ev.Strategy, ev.CatastropheProb, cat.lo, cat.hi, cat.slack), ev.CatastropheProb, cat}
		}
		per := ev.EncodeSecondsPerGB / float64(maxGroup)
		if v.encodePerMember == 0 {
			v.encodePerMember = per
		} else if err := checkClose("encode seconds per group member", per, v.encodePerMember); err != nil {
			return fmt.Errorf("strategy %d (%s): %w", i, ev.Strategy, err)
		}
		within := ev.LoggedFraction <= base.MaxLoggedFraction && ev.RecoveryFraction <= base.MaxRecoveryFraction &&
			ev.EncodeSecondsPerGB <= base.MaxEncodeSecPerGB && ev.CatastropheProb <= base.MaxCatastropheProb
		if err := firstErr(checkEq("within_baseline", ev.WithinBaseline, within),
			checkEq("violations", len(ev.Violations) == 0, within)); err != nil {
			return fmt.Errorf("strategy %d (%s): %w", i, ev.Strategy, err)
		}
		v.checked++
		if cat.exact {
			v.pinned++
		}
	}
	return catErr
}

// catastropheError is a catastrophe probability outside the reference
// bracket, reported after every other check of the result passed.
type catastropheError struct {
	err error
	got float64
	ref refCatastrophe
}

func (c catastropheError) Error() string { return c.err.Error() }

// refMixOf returns the scenario's normalized failure mix; a scenario
// without one uses the calibrated default the schema documents.
func refMixOf(sc *hierclust.Scenario) refMix {
	if sc.Mix != nil {
		return newRefMix(sc.Mix.Transient, sc.Mix.NodeLoss, sc.Mix.PairCorrelation)
	}
	d := hierclust.DefaultMix()
	return newRefMix(d.Transient, d.NodeLoss, d.PairCorrelation)
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
