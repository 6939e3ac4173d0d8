package main

// ft-protocol: repeated hybrid.Runner.Run of the tsunami FT application
// under a hierarchical clustering with L3 Reed–Solomon checkpoints every
// iteration and two seeded node failures. Each timed run is a process of
// its own, so that its peak resident set does not carry the heap of the
// runs before it.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"hierclust/internal/checkpoint"
	"hierclust/internal/core"
	"hierclust/internal/hybrid"
	"hierclust/internal/storage"
	"hierclust/internal/topology"
	"hierclust/internal/trace"
	"hierclust/internal/tsunami"
)

const (
	ftRanks = 256
	ftPPN   = 8
	ftNodes = ftRanks / ftPPN
	ftIters = 24
	ftNX    = 2048
)

// ftRig is the protocol's fixed input: the placement, the clustering built
// from a traced run of the application, and the solver parameters.
type ftRig struct {
	placement *topology.Placement
	clust     *core.Clustering
	params    tsunami.Params
	failures  map[int][]topology.NodeID
}

// newFTRig builds the placement and the hierarchical clustering of the
// application's own communication trace.
func newFTRig() (*ftRig, error) {
	mach, err := topology.Tsubame2().Subset(ftNodes)
	if err != nil {
		return nil, err
	}
	p, err := topology.Block(mach, ftRanks, ftPPN)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder(ftRanks)
	if _, err := tsunami.RunTraced(tsunami.TracedOptions{Params: tsunami.TraceParams(ftRanks), Iterations: 10, Tracer: rec}); err != nil {
		return nil, err
	}
	cl, err := core.Hierarchical(rec.Matrix(), p, core.HierOptions{})
	if err != nil {
		return nil, err
	}
	params := tsunami.TraceParams(ftRanks)
	params.NX = ftNX
	params.Source.CX = ftNX / 2
	return &ftRig{placement: p, clust: cl, params: params}, nil
}

func (r *ftRig) runner(app *tsunami.FTApp) (*hybrid.Runner, error) {
	return hybrid.NewRunner(hybrid.Config{Placement: r.placement, Clusters: r.clust.L1, Groups: r.clust.Groups,
		CheckpointEvery: 1, Level: checkpoint.L3Encoded}, app)
}

// run executes one protocol run on a fresh application; failures nil runs
// failure-free. Only Runner.Run is timed, in wall and in CPU time.
func (r *ftRig) run(failures map[int][]topology.NodeID) (*tsunami.FTApp, *hybrid.Report, time.Duration, time.Duration, error) {
	app, err := tsunami.NewFTApp(r.params)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	ru, err := r.runner(app)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	runtime.GC()
	t0, c0 := time.Now(), selfCPU()
	rep, err := ru.Run(ftIters, failures)
	return app, rep, time.Since(t0), selfCPU() - c0, err
}

// restartedRanks is the reference containment cost of a failure: every
// rank of every L1 cluster with a rank on a failed node.
func (r *ftRig) restartedRanks(nodes []topology.NodeID) int {
	failed := map[topology.NodeID]bool{}
	for _, n := range nodes {
		failed[n] = true
	}
	hit := map[int]bool{}
	for rk, c := range r.clust.L1 {
		if failed[r.placement.NodeOf(topology.Rank(rk))] {
			hit[c] = true
		}
	}
	count := 0
	for _, c := range r.clust.L1 {
		if hit[c] {
			count++
		}
	}
	return count
}

// ftOpReport is what a protocol run in a child process reports.
type ftOpReport struct {
	CPUNs     int64         `json:"cpu_ns"`
	StateHash string        `json:"state_sha256"`
	CkptBytes int64         `json:"checkpoint_bytes"`
	Failures  []ftOpFailure `json:"failures"`
	peakMB    float64       // the child's peak resident set, from its rusage
}

type ftOpFailure struct {
	Nodes     []topology.NodeID `json:"nodes"`
	Restarted int               `json:"restarted_ranks"`
}

// ftOperation is the child side of one protocol run: it builds the rig,
// runs the protocol with the given failures and prints its report.
func ftOperation(failuresJSON string) error {
	var failures map[int][]topology.NodeID
	if err := json.Unmarshal([]byte(failuresJSON), &failures); err != nil {
		return err
	}
	rig, err := newFTRig()
	if err != nil {
		return err
	}
	app, rep, _, cpu, err := rig.run(failures)
	if err != nil {
		return err
	}
	out := ftOpReport{CPUNs: int64(cpu)}
	if out.StateHash, out.CkptBytes, err = stateHash(app); err != nil {
		return err
	}
	for _, ev := range rep.Failures {
		out.Failures = append(out.Failures, ftOpFailure{Nodes: ev.Nodes, Restarted: ev.RestartedRanks})
	}
	return json.NewEncoder(os.Stdout).Encode(&out)
}

// stateHash digests the final state of every rank, and counts its bytes:
// the size of one checkpoint of all ranks.
func stateHash(app *tsunami.FTApp) (string, int64, error) {
	h := sha256.New()
	var n int64
	for rk := 0; rk < ftRanks; rk++ {
		snap, err := app.Snapshot(rk)
		if err != nil {
			return "", 0, err
		}
		binary.Write(h, binary.LittleEndian, int64(len(snap)))
		h.Write(snap)
		n += int64(len(snap))
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// runFTOp runs one protocol operation in a child process of the benchmark
// binary.
func runFTOp(failuresJSON []byte) (*ftOpReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-ft-op", string(failuresJSON))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var rep ftOpReport
	if err := json.Unmarshal(stdout, &rep); err != nil {
		return nil, err
	}
	rep.peakMB = float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) / 1024
	return &rep, nil
}

func runFTProtocol(e *env) (*outcome, error) {
	// Two single-node failures, one in each half of the run.
	failures := map[int][]topology.NodeID{
		3 + e.rng.Intn(9):  {topology.NodeID(e.rng.Intn(ftNodes))},
		13 + e.rng.Intn(9): {topology.NodeID(e.rng.Intn(ftNodes))},
	}
	failuresJSON, err := json.Marshal(failures)
	if err != nil {
		return nil, err
	}
	m := metrics{}
	var rig *ftRig
	setup, err := setupMedian(setupRepeats, func() (time.Duration, error) {
		c0 := selfCPU()
		var err error
		rig, err = newFTRig()
		return selfCPU() - c0, err
	})
	if err != nil {
		return nil, err
	}
	m.set("setup_s", "s", setup)
	rig.failures = failures

	ref, err := tsunami.NewFTApp(rig.params)
	if err != nil {
		return nil, err
	}
	if err := ref.RunSequential(ftIters); err != nil {
		return nil, err
	}
	refHash, _, err := stateHash(ref)
	if err != nil {
		return nil, err
	}
	out := &outcome{m: m}
	var cpu, peak []float64
	var ckptBytes int64
	t0 := time.Now()
	for time.Since(t0) < e.seconds {
		rep, err := runFTOp(failuresJSON)
		out.attempted++
		if err != nil {
			out.failed++
			fmt.Fprintln(os.Stderr, "perfbench: ft-protocol run:", err)
			continue
		}
		cpu = append(cpu, ms(time.Duration(rep.CPUNs)))
		peak = append(peak, rep.peakMB)
		if err := rig.check(rep, refHash); err != nil {
			return out, err
		}
		ckptBytes = rep.CkptBytes
	}
	opMetrics(m, cpu)
	m.set("peak_rss_mb", "MB", median(peak))
	e.props["checkpoint_bytes"] = ckptBytes
	e.props["failures_injected"] = len(failures)
	e.props["failures"] = fmt.Sprint(failures)
	if len(cpu) == 0 {
		return out, checkFailed("no protocol run succeeded")
	}
	if !e.traced {
		return out, nil
	}

	lm := metrics{}
	var traced ftReplay
	if err := tracedReplay(e, lm, "ft-protocol", e.seconds, func(tr *tracer, limit int, until time.Time, _ *replayStats) (int, error) {
		if tr == nil {
			return rig.replay(nil, limit, until, &ftReplay{})
		}
		return rig.replay(tr, limit, until, &traced)
	}); err != nil {
		return out, err
	}
	ops := float64(max(1, len(traced.withFailures)))
	lm.set("hybrid.recovery_ms", "ms", median(traced.withFailures)-median(traced.clean))
	lm.set("hybrid.restarted_ranks", "count", traced.restarted/ops)
	lm.set("msglog.logged_mb", "MB", traced.loggedMB/ops)
	lm.set("checkpoint.ckpt_mb", "MB", traced.ckptMB)
	if c := lm["checkpoint.checkpoint_ms"].Value; c > 0 {
		lm.set("erasure.encode_mb_per_s", "MB/s", traced.ckptMB/(c/1000))
	}
	out.m = lm
	return out, nil
}

// ftReplay is what a traced protocol replay measures besides its spans.
type ftReplay struct {
	withFailures, clean []float64 // Runner.Run wall times, ms
	restarted, loggedMB float64   // summed over the runs with failures
	ckptMB              float64   // bytes of one checkpoint of every rank
}

// check compares a finished run with the failure-free sequential run and
// the reference containment cost.
func (r *ftRig) check(rep *ftOpReport, refHash string) error {
	if rep.StateHash != refHash {
		return checkFailed("final state differs from the failure-free sequential run")
	}
	if err := checkEq("failures handled", len(rep.Failures), len(r.failures)); err != nil {
		return checkFailed("%v", err)
	}
	for _, ev := range rep.Failures {
		if err := checkEq(fmt.Sprintf("ranks restarted for nodes %v", ev.Nodes), ev.Restarted, r.restartedRanks(ev.Nodes)); err != nil {
			return checkFailed("%v", err)
		}
	}
	return nil
}

// replay is one traced operation of the protocol: a run with the
// failures, the same run without them, and the layers the runner drives
// called one at a time — solver steps, L3 checkpoints and restores.
func (r *ftRig) replay(tr *tracer, limit int, until time.Time, out *ftReplay) (int, error) {
	i := 0
	for ; i < limit && (until.IsZero() || time.Now().Before(until)); i++ {
		op := tr.begin("bench.op", -1, int64(i))
		for _, f := range []map[int][]topology.NodeID{r.failures, nil} {
			_, rep, took, _, err := r.run(f)
			if err != nil {
				return i, err
			}
			if f == nil {
				out.clean = append(out.clean, ms(took))
				tr.record("hybrid.run_clean", op, int64(i), took)
				continue
			}
			out.withFailures = append(out.withFailures, ms(took))
			tr.record("hybrid.run_failures", op, int64(i), took)
			for _, ev := range rep.Failures {
				out.restarted += float64(ev.RestartedRanks)
			}
			out.loggedMB += float64(rep.LoggedBytes) / 1e6
		}
		app, err := tsunami.NewFTApp(r.params)
		if err != nil {
			return i, err
		}
		for it := 0; it < ftIters; it++ {
			tr.do("tsunami.step", op, int64(i), func() { err = app.RunSequential(1) })
			if err != nil {
				return i, err
			}
		}
		data := map[topology.Rank][]byte{}
		var ckptBytes int64
		for rk := 0; rk < ftRanks; rk++ {
			snap, err := app.Snapshot(rk)
			if err != nil {
				return i, err
			}
			data[topology.Rank(rk)] = snap
			ckptBytes += int64(len(snap))
		}
		out.ckptMB = float64(ckptBytes) / 1e6
		store := storage.NewCluster(r.placement.Machine())
		mgr, err := checkpoint.New(store, r.placement, r.clust.Groups)
		if err != nil {
			return i, err
		}
		for v := 1; v <= 4; v++ {
			tr.do("checkpoint.checkpoint", op, int64(i), func() { _, err = mgr.Checkpoint(v, checkpoint.L3Encoded, data) })
			if err != nil {
				return i, err
			}
		}
		// Restore the L1 cluster of a failed node, as the runner does, for
		// four nodes spread over the machine.
		for k := 0; k < 4; k++ {
			n := topology.NodeID(k * ftNodes / 4)
			if err := store.FailNode(n); err != nil {
				return i, err
			}
			if err := store.RepairNode(n); err != nil {
				return i, err
			}
			cluster := r.clust.L1[r.placement.RanksOn(n)[0]]
			var ranks []topology.Rank
			for rk, c := range r.clust.L1 {
				if c == cluster {
					ranks = append(ranks, topology.Rank(rk))
				}
			}
			tr.do("checkpoint.restore", op, int64(i), func() { _, err = mgr.Restore(4, ranks) })
			if err != nil {
				return i, err
			}
		}
		tr.end(op)
	}
	return i, nil
}
