package main

import (
	"math"
	"strings"
	"testing"
)

func TestRefCutHandComputed(t *testing.T) {
	cells := func(visit func(s, d int, b int64)) {
		visit(0, 1, 10)
		visit(1, 2, 20)
		visit(2, 3, 30)
		visit(3, 0, 40)
	}
	l1 := []int{0, 0, 1, 1}
	cut := refCutFromCells(cells, l1)
	if cut != 60 {
		t.Fatalf("cut = %d, want 60", cut)
	}
	if err := checkClose("logged", 60.0/100, float64(cut)/100); err != nil {
		t.Fatal(err)
	}
	if err := checkClose("logged", 61.0/100, float64(cut)/100); err == nil {
		t.Fatal("perturbed logged fraction accepted")
	}
}

func TestRefRecoveryHandComputed(t *testing.T) {
	// Node 0 hosts ranks 0,1 (clusters 0,1: 1+2 ranks restart), node 1
	// hosts ranks 2,3 (clusters 1,2: 2+1 ranks): 3/4 on either node.
	lay := refLayout{nodeOf: []int{0, 0, 1, 1}, l1: []int{0, 1, 1, 2}}
	got := refRecovery(lay)
	if got != 0.75 {
		t.Fatalf("recovery = %v, want 0.75", got)
	}
	if err := checkClose("recovery", 0.75, got); err != nil {
		t.Fatal(err)
	}
	if err := checkClose("recovery", 0.75*(1+1e-6), got); err == nil {
		t.Fatal("perturbed recovery fraction accepted")
	}
}

func TestRefStructure(t *testing.T) {
	good := refLayout{
		nodeOf: []int{0, 0, 1, 1, 2, 2, 3, 3},
		l1:     []int{0, 0, 0, 0, 1, 1, 1, 1},
		groups: [][]int{{0, 2}, {1, 3}, {4, 6}, {5, 7}},
	}
	if err := refStructure(good, 2); err != nil {
		t.Fatalf("valid clustering rejected: %v", err)
	}
	cases := map[string]refLayout{
		"in 2 encoding groups": {nodeOf: good.nodeOf, l1: good.l1, groups: [][]int{{0, 2}, {1, 3, 2}, {4, 6}, {5, 7}}},
		"in 0 encoding groups": {nodeOf: good.nodeOf, l1: good.l1, groups: [][]int{{0, 2}, {1, 3}, {4, 6}, {5}}},
		"spans L1 clusters":    {nodeOf: good.nodeOf, l1: good.l1, groups: [][]int{{0, 4}, {1, 3}, {2, 6}, {5, 7}}},
		"split between L1":     {nodeOf: good.nodeOf, l1: []int{0, 1, 0, 1, 2, 2, 2, 2}, groups: [][]int{{0, 2}, {1, 3}, {4, 6}, {5, 7}}},
		"not dense":            {nodeOf: good.nodeOf, l1: []int{0, 0, 0, 0, 2, 2, 2, 2}, groups: good.groups},
	}
	for want, lay := range cases {
		err := refStructure(lay, 0)
		if want == "split between L1" {
			err = refStructure(lay, 1)
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v", want, err)
		}
	}
	if err := refStructure(good, 3); err == nil || !strings.Contains(err.Error(), "want at least 3") {
		t.Errorf("undersized L1 cluster: got %v", err)
	}
}

func TestRefCatastropheHandComputed(t *testing.T) {
	// One two-member group on nodes 0 and 1 survives one loss: it dies
	// only when both nodes fail. Four nodes, P(1 node) = P(2 nodes) = 1/2.
	lay := refLayout{nodeOf: []int{0, 1, 2, 3}, groups: [][]int{{0, 1}}}
	mix := newRefMix(0, []float64{1, 1}, 0)
	rc := refCatastropheProb(lay, 4, mix)
	want := 0.5 * (1.0 / 6)
	if !rc.exact || !rc.accepts(want) {
		t.Fatalf("bracket [%g, %g] exact=%v, want %g", rc.lo, rc.hi, rc.exact, want)
	}
	if rc.accepts(want * (1 + 1e-6)) {
		t.Fatal("perturbed probability accepted")
	}
	// Half of the double failures hit a power pair: (0,1) kills the group,
	// (2,3) does not.
	mix.pairCorr = 0.5
	rc = refCatastropheProb(lay, 4, mix)
	want = 0.5 * (0.5*0.5 + 0.5/6)
	if !rc.accepts(want) || rc.accepts(want*(1-1e-6)) {
		t.Fatalf("pair-correlated bracket [%g, %g], want %g", rc.lo, rc.hi, want)
	}
}

func TestRefEventProbability(t *testing.T) {
	// A group of one member on each of three nodes survives one loss:
	// P(dies | 3 of 10 nodes fail) = (C(3,2)·C(7,1) + C(3,3)) / C(10,3).
	si := sigInfo{span: 3, ways: destroyWays([]int{1, 1, 1}, 1)}
	got := si.prob(10, 3)
	if want := 22.0 / 120; math.Abs(got-want) > 1e-15 {
		t.Fatalf("P = %v, want %v", got, want)
	}
	// The enumeration agrees with the closed count on the same layout.
	lay := refLayout{nodeOf: []int{0, 1, 2}, groups: [][]int{{0, 1, 2}}}
	evs := refEvents(lay, 10)
	nodeEv := make([][]int32, 10)
	for _, node := range evs[0].nodes {
		nodeEv[node] = []int32{0}
	}
	if e := enumerateSize(evs, nodeEv, 10, 3); math.Abs(e-22.0/120) > 1e-15 {
		t.Fatalf("enumerated P = %v", e)
	}
}

func TestRefCatastropheBracketsLargeMachine(t *testing.T) {
	// 40 disjoint three-node groups on 120 nodes: failure sets of 4 or
	// more are too many to enumerate, so the reference brackets them.
	// The first-order term is pinned by hand and the bracket must hold it.
	var lay refLayout
	for g := 0; g < 40; g++ {
		var grp []int
		for k := 0; k < 3; k++ {
			lay.nodeOf = append(lay.nodeOf, 3*g+k)
			grp = append(grp, 3*g+k)
		}
		lay.groups = append(lay.groups, grp)
	}
	mix := newRefMix(0, []float64{0, 1}, 0)
	rc := refCatastropheProb(lay, 120, mix)
	// Two failures kill a group iff both hit the same group.
	want := 40 * 3 / combinations(120, 2)
	if !rc.exact || !rc.accepts(want) || rc.accepts(want*1.001) {
		t.Fatalf("f=2 bracket [%g, %g], want %g", rc.lo, rc.hi, want)
	}
	mix = newRefMix(0, []float64{0, 0, 0, 0, 1}, 0)
	rc = refCatastropheProb(lay, 120, mix)
	si := sigInfo{span: 3, ways: destroyWays([]int{1, 1, 1}, 1)}
	single := si.prob(120, 5)
	if rc.hi < rc.lo || rc.hi > 40*single*(1+1e-12) || rc.lo < single {
		t.Fatalf("f=5 bracket [%g, %g] outside [%g, %g]", rc.lo, rc.hi, single, 40*single)
	}
	if rc.accepts(rc.hi * 1.01) {
		t.Fatal("value above the union bound accepted")
	}
}

func TestStencilOracle(t *testing.T) {
	o := stencilOracle{n: 6, width: 3, twoD: true, cellB: 5, cellMsgs: 1}
	bytes, msgs := o.totals()
	// A 2x3 grid has 4 horizontal and 3 vertical neighbor pairs.
	if bytes != 14*5 || msgs != 14 {
		t.Fatalf("totals = %d bytes %d msgs, want 70 and 14", bytes, msgs)
	}
	cut := refCutFromCells(o.cells, []int{0, 0, 0, 1, 1, 1})
	if cut != 6*5 {
		t.Fatalf("row cut = %d, want 30", cut)
	}
	o1 := stencilOracle{n: 6, cellB: 5, cellMsgs: 1}
	if b, _ := o1.totals(); b != 10*5 {
		t.Fatalf("1-D totals = %d, want 50", b)
	}
}

func TestKnownScaleDefect(t *testing.T) {
	// The scale-1m document's reference value and the model's answer,
	// 1.2% above it, are the known defect; a larger excess or a value
	// below the reference is not.
	ref := refCatastrophe{lo: 5.0116e-15, hi: 5.0116e-15, exact: true}
	for got, want := range map[float64]bool{5.0716e-15: true, 5.3e-15: false, 4.95e-15: false} {
		if k := knownScaleDefect(catastropheError{got: got, ref: ref}); k != want {
			t.Errorf("knownScaleDefect(%g) = %v, want %v", got, k, want)
		}
	}
}
