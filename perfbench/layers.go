package main

// Scenarios evaluated layer by layer: the calls Pipeline.Run makes, made
// here one public function at a time so each can carry its own span. The
// served workloads replay their request streams through these functions
// in their traced runs, and every workload rebuilds its clusterings
// through them to check the program's outputs.

import (
	"fmt"

	"hierclust/internal/core"
	"hierclust/internal/erasure"
	"hierclust/internal/graph"
	"hierclust/internal/reliability"
	"hierclust/internal/topology"
	"hierclust/internal/trace"
	"hierclust/internal/tsunami"
	"hierclust/pkg/hierclust"
)

// call identifies where a layer call belongs: the tracer (nil when off),
// the operation span and the request id.
type call struct {
	tr     *tracer
	parent int
	req    int64
	// split times the node graph and the partition of every hierarchical
	// build in calls of their own, so that the hierarchical build's self
	// time can be derived.
	split    bool
	hierSelf *[]float64
	relCalls *int
}

// machineFor resolves a scenario's machine the way the scenario schema
// documents it: the TSUBAME2 model, subset or grown to the allocation.
func machineFor(sc *hierclust.Scenario) (*topology.Machine, error) {
	mach := topology.Tsubame2()
	nodes := sc.Machine.Nodes
	if nodes == 0 || nodes == mach.Nodes {
		return mach, nil
	}
	if nodes < mach.Nodes {
		return mach.Subset(nodes)
	}
	grown := *mach
	grown.Nodes = nodes
	return &grown, nil
}

// place maps the scenario's ranks onto its machine.
func (c call) place(sc *hierclust.Scenario) (p *topology.Placement, err error) {
	mach, err := machineFor(sc)
	if err != nil {
		return nil, err
	}
	c.tr.do("topology.place", c.parent, c.req, func() {
		ranks, ppn := sc.Placement.Ranks, sc.Placement.ProcsPerNode
		if sc.Placement.Policy == "round-robin" {
			p, err = topology.RoundRobin(mach, ranks, (ranks+ppn-1)/ppn)
		} else {
			p, err = topology.Block(mach, ranks, ppn)
		}
	})
	return p, err
}

// syntheticOptions are the generator options a synthetic scenario asks
// for; a stencil2d grid defaults to the placement density as its width.
func syntheticOptions(sc *hierclust.Scenario) trace.SyntheticOptions {
	o := trace.SyntheticOptions{Iterations: sc.Trace.Iterations, BytesPerMsg: sc.Trace.BytesPerMsg, Width: sc.Trace.Width}
	if sc.Trace.Pattern == "stencil2d" {
		o.Pattern = trace.Stencil2D
		if o.Width == 0 {
			o.Width = sc.Placement.ProcsPerNode
		}
	}
	return o
}

// oracleFor describes the trace a synthetic scenario must produce, from
// the generator's documented defaults (100 rounds of 1536-byte messages).
func oracleFor(sc *hierclust.Scenario) stencilOracle {
	o := syntheticOptions(sc)
	iters, bpm := int64(o.Iterations), o.BytesPerMsg
	if iters <= 0 {
		iters = 100
	}
	if bpm <= 0 {
		bpm = 1536
	}
	return stencilOracle{n: sc.Placement.Ranks, width: o.Width, twoD: o.Pattern == trace.Stencil2D,
		cellB: bpm * iters, cellMsgs: iters}
}

// buildTrace builds the scenario's communication trace.
func (c call) buildTrace(sc *hierclust.Scenario) (comm trace.Comm, err error) {
	ranks := sc.Placement.Ranks
	switch sc.Trace.Source {
	case "tsunami":
		iters := sc.Trace.Iterations
		if iters <= 0 {
			iters = 20
		}
		c.tr.do("tsunami.trace_build", c.parent, c.req, func() {
			rec := trace.NewRecorder(ranks)
			_, err = tsunami.RunTraced(tsunami.TracedOptions{Params: tsunami.TraceParams(ranks), Iterations: iters, Tracer: rec})
			comm = rec.Matrix()
		})
	case "synthetic":
		c.tr.do("trace.synthetic", c.parent, c.req, func() {
			comm, err = trace.Synthetic(ranks, syntheticOptions(sc))
		})
	default:
		err = fmt.Errorf("trace source %q is not generated by the benchmark", sc.Trace.Source)
	}
	return comm, err
}

// buildStrategy builds one strategy's clustering through the public
// strategy registry.
func (c call) buildStrategy(spec hierclust.StrategySpec, comm trace.Comm, p *topology.Placement) (cl *core.Clustering, err error) {
	st, err := hierclust.NewStrategy(spec)
	if err != nil {
		return nil, err
	}
	if spec.Kind != "hierarchical" {
		c.tr.do("core.strategy", c.parent, c.req, func() { cl, err = st.Build(comm, p) })
		return cl, err
	}
	var split float64
	if c.split {
		opts := spec.Hier.Options()
		min := opts.MinNodesPerL1
		if min <= 0 {
			min = 4
		}
		var ng *graph.Graph
		i := c.tr.begin("trace.node_graph", c.parent, c.req)
		ng, err = comm.NodeGraph(p)
		c.tr.end(i)
		if err != nil {
			return nil, err
		}
		j := c.tr.begin("graph.partition", c.parent, c.req)
		_, err = graph.Partition(ng, graph.PartitionOptions{MinSize: min, TargetSize: opts.TargetNodesPerL1,
			MaxSize: opts.MaxNodesPerL1, Multilevel: opts.Multilevel,
			CoarsenThreshold: opts.CoarsenThreshold, MatchingRounds: opts.MatchingRounds})
		c.tr.end(j)
		if err != nil {
			return nil, err
		}
		if c.tr != nil {
			split = ms(c.tr.spans[i].dur()) + ms(c.tr.spans[j].dur())
		}
	}
	k := c.tr.begin("core.hierarchical", c.parent, c.req)
	cl, err = st.Build(comm, p)
	c.tr.end(k)
	if c.tr != nil && c.split && c.hierSelf != nil {
		*c.hierSelf = append(*c.hierSelf, ms(c.tr.spans[k].dur())-split)
	}
	return cl, err
}

// score evaluates a built clustering on the four dimensions with the
// calls core.Evaluate makes, one span each.
func (c call) score(cl *core.Clustering, kind string, comm trace.Comm, p *topology.Placement, mix reliability.Mix, base core.Baseline) (res hierclust.StrategyResult, err error) {
	c.tr.do("core.validate", c.parent, c.req, func() { err = cl.Validate(p.NumRanks()) })
	if err != nil {
		return res, err
	}
	var logged, rec, pcat float64
	c.tr.do("trace.logged_fraction", c.parent, c.req, func() { logged, err = comm.LoggedFraction(cl.L1) })
	if err != nil {
		return res, err
	}
	c.tr.do("core.recovery_fraction", c.parent, c.req, func() { rec, err = core.RecoveryFraction(cl, p) })
	if err != nil {
		return res, err
	}
	var groups []reliability.Group
	c.tr.do("reliability.group_build", c.parent, c.req, func() {
		groups = make([]reliability.Group, 0, len(cl.Groups))
		for _, g := range cl.Groups {
			groups = append(groups, reliability.GroupFromRanks(p, g))
		}
	})
	mdl := &reliability.Model{Nodes: len(p.UsedNodes()), Mix: mix}
	c.tr.do("reliability.catastrophe", c.parent, c.req, func() { pcat, err = mdl.CatastropheProb(groups) })
	if err != nil {
		return res, err
	}
	if c.relCalls != nil {
		*c.relCalls++
	}
	e := &core.Evaluation{Name: cl.Name, LoggedFraction: logged, RecoveryFraction: rec,
		EncodeSecondsPerGB: erasure.ModelEncodeSeconds(cl.MaxGroupSize(), 1e9), CatastropheProb: pcat}
	ok, violations := e.Meets(base)
	return hierclust.StrategyResult{Strategy: cl.Name, Kind: kind, L1Clusters: cl.NumClusters(),
		Groups: len(cl.Groups), MaxGroupSize: cl.MaxGroupSize(), LoggedFraction: logged,
		RecoveryFraction: rec, EncodeSecondsPerGB: e.EncodeSecondsPerGB, CatastropheProb: pcat,
		WithinBaseline: ok, Violations: violations}, nil
}

// built is a scenario resolved layer by layer.
type built struct {
	sc          *hierclust.Scenario
	placement   *topology.Placement
	comm        trace.Comm
	clusterings []*core.Clustering
	results     []hierclust.StrategyResult
}

// evaluate runs the whole scenario. A non-nil comm skips the trace build
// (a trace-cache hit).
func (c call) evaluate(sc *hierclust.Scenario, comm trace.Comm) (*built, error) {
	p, err := c.place(sc)
	if err != nil {
		return nil, err
	}
	if comm == nil {
		if comm, err = c.buildTrace(sc); err != nil {
			return nil, err
		}
	}
	b := &built{sc: sc, placement: p, comm: comm}
	mix := sc.Mix.Mix()
	base := sc.Baseline.Baseline()
	for _, spec := range sc.Strategies {
		cl, err := c.buildStrategy(spec, comm, p)
		if err != nil {
			return nil, err
		}
		r, err := c.score(cl, spec.Kind, comm, p, mix, base)
		if err != nil {
			return nil, err
		}
		b.clusterings = append(b.clusterings, cl)
		b.results = append(b.results, r)
	}
	return b, nil
}
