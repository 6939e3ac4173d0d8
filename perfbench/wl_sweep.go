package main

// sweep-grid: one closed-loop client submits seeded grids of synthetic
// cells to POST /v1/sweeps, polls each to completion and streams its
// NDJSON results. hcserve keeps a disk result cache and a sweep journal.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"hierclust/internal/core"
	"hierclust/internal/trace"
	"hierclust/pkg/hierclust"
	"hierclust/pkg/hierclust/serve"
)

const (
	sweepPoll   = 10 * time.Millisecond
	sweepChecks = 6 // cells rebuilt and checked against the reference per run
)

// gridParams are the seeded values of a run's grid: the pair-correlation
// share and the message sizes, which change results but not the work.
type gridParams struct {
	pc  float64
	bpm [2]int64
}

func newGridParams(rng *rand.Rand) gridParams {
	return gridParams{pc: 0.2 + 0.3*rng.Float64(),
		bpm: [2]int64{1024 + 64*int64(rng.Intn(16)), 2048 + 64*int64(rng.Intn(16))}}
}

// sweepGrid builds the i-th sweep of a run. Every sweep of a run has the
// same axes; its base name is new, so the durable result cache has never
// seen its cells, while its traces are the ones the run shares.
func sweepGrid(seed int64, i int, g gridParams) *hierclust.Sweep {
	pc, bpm := g.pc, g.bpm
	return &hierclust.Sweep{
		Name: fmt.Sprintf("grid-s%d-%d", seed, i),
		Base: hierclust.Scenario{
			Name:       fmt.Sprintf("grid-s%d-%d", seed, i),
			Placement:  hierclust.PlacementSpec{Ranks: 128, ProcsPerNode: 4},
			Trace:      hierclust.TraceSpec{Source: "synthetic", Pattern: "stencil2d", Iterations: 50},
			Strategies: []hierclust.StrategySpec{{Kind: "hierarchical"}},
		},
		Axes: hierclust.SweepAxes{
			Machines: []hierclust.MachinePoint{
				{Nodes: 64, Ranks: 128, ProcsPerNode: 4},
				{Nodes: 128, Ranks: 256, ProcsPerNode: 4},
				{Nodes: 256, Ranks: 512, ProcsPerNode: 8},
				{Nodes: 512, Ranks: 1024, ProcsPerNode: 8},
			},
			Placements: []string{"block", "round-robin"},
			Strategies: [][]hierclust.StrategySpec{
				{{Kind: "naive"}, {Kind: "hierarchical"}},
				{{Kind: "size-guided"}, {Kind: "distributed"}},
				{{Kind: "hierarchical", Hier: &hierclust.HierSpec{MinNodesPerL1: 8}}},
			},
			Mixes: []hierclust.MixSpec{
				{Transient: 0.05, NodeLoss: defaultLoss},
				{Transient: 0.05, NodeLoss: defaultLoss, PairCorrelation: pc},
			},
			Traces: []hierclust.TracePoint{
				{Pattern: "stencil2d", BytesPerMsg: bpm[0]},
				{Pattern: "stencil1d", BytesPerMsg: bpm[1]},
			},
		},
	}
}

type sweepStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Cells struct {
		Total, Completed, Cached, Failed int
	} `json:"cells"`
	Plan struct {
		TraceBuilds     int `json:"trace_builds"`
		TraceRefs       int `json:"trace_refs"`
		PartitionBuilds int `json:"partition_builds"`
		PartitionRefs   int `json:"partition_refs"`
	} `json:"plan"`
}

// sweepRun is one sweep as the client saw it.
type sweepRun struct {
	doc       []byte
	plan      *hierclust.SweepPlan
	cpuMs     float64 // hcserve CPU time from the POST to the last result line
	submitMs  float64
	resultsMs float64
	lines     []serve.SweepCellLine
	status    sweepStatus
}

// runSweep submits one sweep, polls it until it leaves the running state
// and reads its results.
func runSweep(s *server, doc []byte) (*sweepRun, error) {
	r := &sweepRun{doc: doc}
	cpu0, err := procCPU(s.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	code, _, body, err := s.post("/v1/sweeps", doc, "")
	if err != nil {
		return nil, err
	}
	if code != 202 {
		return nil, fmt.Errorf("POST /v1/sweeps: status %d: %s", code, body)
	}
	r.submitMs = ms(time.Since(t0))
	if err := json.Unmarshal(body, &r.status); err != nil {
		return nil, err
	}
	for r.status.State == "running" {
		time.Sleep(sweepPoll)
		code, body, err := s.get("/v1/sweeps/" + r.status.ID)
		if err != nil {
			return nil, err
		}
		if code != 200 {
			return nil, fmt.Errorf("GET sweep status: %d: %s", code, body)
		}
		if err := json.Unmarshal(body, &r.status); err != nil {
			return nil, err
		}
	}
	done := time.Now()
	code, body, err = s.get("/v1/sweeps/" + r.status.ID + "/results")
	if err != nil {
		return nil, err
	}
	if code != 200 {
		return nil, fmt.Errorf("GET sweep results: %d", code)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		var line serve.SweepCellLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, err
		}
		r.lines = append(r.lines, line)
	}
	r.resultsMs = ms(time.Since(done))
	cpu1, err := procCPU(s.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	r.cpuMs = ms(cpu1 - cpu0)
	return r, nil
}

func runSweepGrid(e *env) (*outcome, error) {
	var docs [][]byte
	var plans []*hierclust.SweepPlan
	g := newGridParams(e.rng)
	for i := 0; i < 200; i++ {
		sw := sweepGrid(e.seed, i, g)
		doc, err := hierclust.EncodeSweep(sw)
		if err != nil {
			return nil, err
		}
		plan, err := hierclust.PlanSweep(sw)
		if err != nil {
			return nil, err
		}
		docs, plans = append(docs, doc), append(plans, plan)
	}
	m := metrics{}
	s, err := setupServer(e, m, func(dir string) []string {
		return []string{"-result-cache-dir", filepath.Join(dir, "results"), "-sweep-journal", filepath.Join(dir, "sweeps.journal")}
	})
	if err != nil {
		return nil, err
	}
	defer s.stop()
	// One untimed sweep fills the trace cache the run's sweeps share.
	if _, err := runSweep(s, docs[0]); err != nil {
		return nil, err
	}
	var runs []*sweepRun
	t0 := time.Now()
	for i := 1; i < len(docs) && time.Since(t0) < e.seconds; i++ {
		r, err := runSweep(s, docs[i])
		if err != nil {
			return nil, err
		}
		r.plan = plans[i]
		runs = append(runs, r)
	}
	rss, err := peakRSSMB(s.pid())
	if err != nil {
		return nil, err
	}
	s.stop()

	out := &outcome{m: m}
	var cpu []float64
	for _, r := range runs {
		out.attempted += len(r.plan.Cells)
		for _, l := range r.lines {
			if l.Status != 200 {
				out.failed++
			}
		}
		if missing := len(r.plan.Cells) - len(r.lines); missing > 0 {
			out.failed += missing
		}
		cpu = append(cpu, r.cpuMs)
	}
	opMetrics(m, cpu)
	m.set("peak_rss_mb", "MB", rss)
	p := plans[0]
	e.props["sweeps"] = len(runs)
	e.props["cells_per_sweep"] = len(p.Cells)
	e.props["trace_refs"], e.props["trace_builds"] = p.TraceRefs, p.TraceBuilds
	e.props["partition_refs"], e.props["partition_builds"] = p.PartitionRefs, p.PartitionBuilds
	if err := checkSweeps(e, runs); err != nil {
		return out, err
	}
	if !e.traced {
		return out, nil
	}

	lm := metrics{}
	var submit, results []float64
	for _, r := range runs {
		submit, results = append(submit, r.submitMs), append(results, r.resultsMs)
	}
	lm.set("serve.sweep_submit_ms", "ms", median(submit))
	lm.set("serve.sweep_results_ms", "ms", median(results))
	lm.set("hierclust.trace_share_ratio", "ratio", 1-float64(p.TraceBuilds)/float64(p.TraceRefs))
	lm.set("hierclust.partition_share_ratio", "ratio", 1-float64(p.PartitionBuilds)/float64(p.PartitionRefs))
	replays := 0
	if err := tracedReplay(e, lm, "sweep-grid", e.seconds/2, func(tr *tracer, limit int, until time.Time, st *replayStats) (int, error) {
		replays++
		return replaySweeps(tr, docs[1:], filepath.Join(e.work, fmt.Sprintf("replay%d", replays)), limit, until, st)
	}); err != nil {
		return out, err
	}
	out.m = lm
	return out, nil
}

// checkSweeps checks every answered sweep against its plan and a seeded
// sample of cells against the reference.
func checkSweeps(e *env, runs []*sweepRun) error {
	if len(runs) == 0 {
		return fmt.Errorf("no sweep completed in the run")
	}
	for _, r := range runs {
		p := r.plan
		st := r.status
		if err := firstErr(
			checkEq("sweep state", st.State, "completed"),
			checkEq("cells answered", len(r.lines), len(p.Cells)),
			checkEq("plan trace builds", st.Plan.TraceBuilds, p.TraceBuilds),
			checkEq("plan trace refs", st.Plan.TraceRefs, p.TraceRefs),
			checkEq("plan partition builds", st.Plan.PartitionBuilds, p.PartitionBuilds),
			checkEq("plan partition refs", st.Plan.PartitionRefs, p.PartitionRefs),
		); err != nil {
			return checkFailed("sweep %s: %v", st.ID, err)
		}
		if st.Cells.Cached != 0 {
			return fmt.Errorf("sweep %s: %d cells came from the result cache; the workload needs unseen sweeps", st.ID, st.Cells.Cached)
		}
		for i, l := range r.lines {
			if err := firstErr(checkEq("cell index", l.Index, i), checkEq("cell scenario", l.Scenario, p.Cells[i].Scenario.Name),
				checkEq("cell status", l.Status, 200)); err != nil {
				return checkFailed("sweep %s cell %d: %v", st.ID, i, err)
			}
		}
	}
	v := &verifier{}
	for k := 0; k < sweepChecks; k++ {
		r := runs[e.rng.Intn(len(runs))]
		i := e.rng.Intn(len(r.lines))
		b, err := call{}.evaluate(r.plan.Cells[i].Scenario, nil)
		if err != nil {
			return fmt.Errorf("rebuilding cell %d: %w", i, err)
		}
		if err := v.checkResult(r.lines[i].Result, b); err != nil {
			return checkFailed("sweep %s cell %d (%s): %v", r.status.ID, i, r.lines[i].Scenario, err)
		}
	}
	e.props["checked_results"] = v.checked
	e.props["checked_catastrophe_pinned"] = v.pinned
	return nil
}

// replaySweeps replays sweeps the way the sweep executor runs them: the
// plan, then per cell a durable-cache lookup, the shared trace and
// partition builds, the scoring, and the durable-cache write.
func replaySweeps(tr *tracer, docs [][]byte, dir string, limit int, until time.Time, st *replayStats) (int, error) {
	dc, err := hierclust.NewDiskResultCache(dir, 0)
	if err != nil {
		return 0, err
	}
	i := 0
	for ; i < limit && i < len(docs) && (until.IsZero() || time.Now().Before(until)); i++ {
		op := tr.begin("bench.op", -1, int64(i))
		c := call{tr: tr, parent: op, req: int64(i), split: true, hierSelf: &st.hierSelf, relCalls: &st.relCalls}
		var plan *hierclust.SweepPlan
		tr.do("hierclust.plan", op, c.req, func() {
			var sw *hierclust.Sweep
			if sw, err = hierclust.DecodeSweep(docs[i]); err == nil {
				plan, err = hierclust.PlanSweep(sw)
			}
		})
		if err != nil {
			return i, err
		}
		comms := map[int]trace.Comm{}
		parts := map[int]*core.Clustering{}
		for _, cell := range plan.Cells {
			tr.do("diskstore.get", op, c.req, func() { dc.Get(cell.CacheKey) })
			sc := cell.Scenario
			p, err := c.place(sc)
			if err != nil {
				return i, err
			}
			comm, ok := comms[cell.TraceNode]
			if !ok {
				if comm, err = c.buildTrace(sc); err != nil {
					return i, err
				}
				comms[cell.TraceNode] = comm
			}
			res := hierclust.Result{Scenario: sc.Name, Ranks: p.NumRanks(), Nodes: len(p.UsedNodes()),
				TotalBytes: comm.TotalBytes(), TotalMsgs: comm.TotalMsgs()}
			for j, spec := range sc.Strategies {
				cl, ok := parts[cell.PartNodes[j]]
				if !ok {
					if cl, err = c.buildStrategy(spec, comm, p); err != nil {
						return i, err
					}
					parts[cell.PartNodes[j]] = cl
				}
				r, err := c.score(cl, spec.Kind, comm, p, sc.Mix.Mix(), sc.Baseline.Baseline())
				if err != nil {
					return i, err
				}
				res.Evaluations = append(res.Evaluations, r)
			}
			doc, err := json.Marshal(&res)
			if err != nil {
				return i, err
			}
			tr.do("diskstore.put", op, c.req, func() { dc.Put(cell.CacheKey, doc) })
			st.writtenBytes += int64(len(doc))
		}
		tr.end(op)
	}
	return i, nil
}
