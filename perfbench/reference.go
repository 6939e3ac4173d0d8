package main

// The reference evaluator: the four dimensions of a clustering recomputed
// from the trace cells, the rank placement and the failure mix, without
// calling internal/core or internal/reliability. It takes its inputs as
// plain slices so that its tests can feed it hand-computed cases.

import (
	"fmt"
	"math"
	"sort"
)

// refTolerance is the relative tolerance of every exact comparison. Closed
// form and enumeration of the catastrophe probability differ by about
// 2e-14 on the program's own layouts, and float summation order by less.
const refTolerance = 1e-9

// refExactLimit is the program's documented enumeration bound (the
// reliability model enumerates failure sets exactly while C(n,f) stays at
// or below it); above it the model may use its closed form, its union
// bound or Monte Carlo sampling.
const refExactLimit = 100_000

// refEnumLimit bounds the reference's own enumeration of failure sets of
// one size.
const (
	refEnumLimit = 2_000_000
	// The model's sampling sizes: mcSamples draws for a whole failure
	// size, groupSamples for one group whose span has more than
	// groupEnumLimit subsets to enumerate.
	mcSamples      = 200_000
	groupSamples   = 100_000
	groupEnumLimit = 2e6
)

// refLayout is a clustering under a placement in plain form.
type refLayout struct {
	nodeOf []int   // rank -> node
	l1     []int   // rank -> L1 cluster
	groups [][]int // encoding groups as rank lists
}

// refMix is a normalized failure mix: loss[f-1] is P(f nodes fail).
type refMix struct {
	loss     []float64
	pairCorr float64
}

func newRefMix(transient float64, nodeLoss []float64, pairCorr float64) refMix {
	sum := transient
	for _, p := range nodeLoss {
		sum += p
	}
	m := refMix{loss: make([]float64, len(nodeLoss)), pairCorr: pairCorr}
	for i, p := range nodeLoss {
		m.loss[i] = p / sum
	}
	return m
}

// refCutFromCells sums the bytes of the cells whose endpoints sit in
// different L1 clusters. cells calls its argument once per nonzero cell.
func refCutFromCells(cells func(func(s, d int, b int64)), l1 []int) int64 {
	var cut int64
	cells(func(s, d int, b int64) {
		if l1[s] != l1[d] {
			cut += b
		}
	})
	return cut
}

// refRecovery simulates every single-node failure: the failed node's
// ranks restart together with every rank of an L1 cluster they belong to.
// It returns the mean restarted share over the used nodes. The distinct
// (node, cluster) pairs come from a sort, so a million-node layout costs
// one sort of its ranks.
func refRecovery(lay refLayout) float64 {
	size := map[int]int{}
	pairs := make([]uint64, len(lay.l1))
	for r, c := range lay.l1 {
		size[c]++
		pairs[r] = uint64(lay.nodeOf[r])<<32 | uint64(c)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i] < pairs[j] })
	var total float64
	nodes := 0
	for i := 0; i < len(pairs); {
		node := pairs[i] >> 32
		restarted := 0
		for ; i < len(pairs) && pairs[i]>>32 == node; i++ {
			if i == 0 || pairs[i] != pairs[i-1] {
				restarted += size[int(pairs[i]&0xffffffff)]
			}
		}
		total += float64(restarted) / float64(len(lay.l1))
		nodes++
	}
	return total / float64(nodes)
}

// refStructure checks the clustering invariants: dense L1 ids, every rank
// in exactly one encoding group, every group inside one L1 cluster, and,
// for node-aligned strategies, every node inside one L1 cluster of at
// least minNodes nodes (minNodes 0 skips the node checks).
func refStructure(lay refLayout, minNodes int) error {
	n := len(lay.l1)
	maxID := -1
	for r, c := range lay.l1 {
		if c < 0 {
			return fmt.Errorf("rank %d has L1 id %d", r, c)
		}
		if c > maxID {
			maxID = c
		}
	}
	used := make([]bool, maxID+1)
	for _, c := range lay.l1 {
		used[c] = true
	}
	for c, u := range used {
		if !u {
			return fmt.Errorf("L1 id %d unused: ids are not dense", c)
		}
	}
	seen := make([]int, n)
	for gi, g := range lay.groups {
		if len(g) == 0 {
			return fmt.Errorf("group %d is empty", gi)
		}
		for _, r := range g {
			if r < 0 || r >= n {
				return fmt.Errorf("group %d holds rank %d outside 0..%d", gi, r, n-1)
			}
			seen[r]++
			if lay.l1[r] != lay.l1[g[0]] {
				return fmt.Errorf("group %d spans L1 clusters %d and %d", gi, lay.l1[g[0]], lay.l1[r])
			}
		}
	}
	for r, k := range seen {
		if k != 1 {
			return fmt.Errorf("rank %d is in %d encoding groups, want 1", r, k)
		}
	}
	if minNodes <= 0 {
		return nil
	}
	clusterOf := map[int]int{}
	nodesIn := make([]int, maxID+1)
	for r, node := range lay.nodeOf {
		c, ok := clusterOf[node]
		if !ok {
			clusterOf[node] = lay.l1[r]
			nodesIn[lay.l1[r]]++
			continue
		}
		if c != lay.l1[r] {
			return fmt.Errorf("node %d is split between L1 clusters %d and %d", node, c, lay.l1[r])
		}
	}
	for c, k := range nodesIn {
		if k < minNodes {
			return fmt.Errorf("L1 cluster %d spans %d nodes, want at least %d", c, k, minNodes)
		}
	}
	return nil
}

// refMaxGroup returns the largest encoding-group size.
func refMaxGroup(groups [][]int) int {
	m := 0
	for _, g := range groups {
		if len(g) > m {
			m = len(g)
		}
	}
	return m
}

// event is one way a failure turns catastrophic: losing more than tol
// members of one encoding group. nodes ascend; counts[i] members live on
// nodes[i].
type event struct {
	nodes  []int
	counts []int
	tol    int
	dups   int // groups with exactly this span, counts and tolerance
}

func (e *event) signature() string {
	c := append([]int(nil), e.counts...)
	sort.Ints(c)
	return fmt.Sprintf("%v/%d", c, e.tol)
}

// refEvents turns encoding groups into destroyable events over nodes
// 0..n-1 (FTI's half-group provisioning: a group of k members survives
// k/2 losses). Groups that no failure can destroy are dropped; groups with
// identical spans merge into one event, since they die together.
func refEvents(lay refLayout, n int) []*event {
	byKey := map[string]*event{}
	var out []*event
	for _, g := range lay.groups {
		per := map[int]int{}
		for _, r := range g {
			if node := lay.nodeOf[r]; node >= 0 && node < n {
				per[node]++
			}
		}
		e := &event{tol: len(g) / 2, dups: 1}
		total := 0
		for node := range per {
			e.nodes = append(e.nodes, node)
		}
		sort.Ints(e.nodes)
		for _, node := range e.nodes {
			e.counts = append(e.counts, per[node])
			total += per[node]
		}
		if total <= e.tol {
			continue
		}
		key := fmt.Sprint(e.nodes, e.counts, e.tol)
		if prev, ok := byKey[key]; ok {
			prev.dups++
			continue
		}
		byKey[key] = e
		out = append(out, e)
	}
	return out
}

// refCatastrophe brackets the program's catastrophe probability: the
// documented model is exact wherever it enumerates, and elsewhere lies
// between the exact value and its union bound (or within sampling error
// of the exact value). lo == hi when the reference pins the value.
//
// Terms the model does not enumerate carry an absolute slack of
// closedFormUlps units in the last place of 1 on their conditional
// probability: the closed form obtains it as 1 - P(no group dies), so a
// faithful float64 evaluation is exact to a few ulps of 1, not relative
// to a tiny result. A term the reference proves to be 0 gets no slack.
type refCatastrophe struct {
	lo, hi float64
	slack  float64
	exact  bool
}

const closedFormUlps = 64

func (rc refCatastrophe) accepts(p float64) bool {
	return p >= rc.lo*(1-refTolerance)-rc.slack-1e-300 && p <= rc.hi*(1+refTolerance)+rc.slack+1e-300
}

// refCatastropheProb computes the bracket for a layout on a machine of n
// failure-prone nodes.
func refCatastropheProb(lay refLayout, n int, mix refMix) refCatastrophe {
	evs := refEvents(lay, n)
	nodeEv := make([][]int32, n)
	for ei, e := range evs {
		for _, node := range e.nodes {
			nodeEv[node] = append(nodeEv[node], int32(ei))
		}
	}
	disjoint, uniform := true, true
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	for ei, e := range evs {
		for i, node := range e.nodes {
			if owner[node] >= 0 {
				disjoint = false
			}
			owner[node] = ei
			if e.counts[i] != e.counts[0] {
				uniform = false
			}
		}
	}
	bySig := map[string]*sigInfo{}
	for _, e := range evs {
		s := e.signature()
		si := bySig[s]
		if si == nil {
			si = &sigInfo{span: len(e.nodes), ways: destroyWays(e.counts, e.tol)}
			bySig[s] = si
		}
		si.events++
		si.groups += e.dups
	}

	var res refCatastrophe
	for i, pf := range mix.loss {
		f := i + 1
		if pf == 0 || f > n {
			continue
		}
		cnf := combinations(n, f)
		var lo, hi float64
		var exactF float64
		haveExact := cnf <= refEnumLimit
		if haveExact {
			exactF = enumerateSize(evs, nodeEv, n, f)
		}
		// Union bounds over distinct events (s1) and over every group
		// (s1all, the bound the model may report), and the largest single
		// event probability.
		var s1, s1all, single float64
		for _, si := range bySig {
			p := si.prob(n, f)
			s1 += float64(si.events) * p
			s1all += float64(si.groups) * p
			single = math.Max(single, p)
		}
		s1all = math.Min(1, s1all)
		slack := 0.0
		if s1all > 0.1 && !(disjoint && uniform) {
			slack = 6 * math.Sqrt(0.25/mcSamples)
		}
		for _, si := range bySig {
			slack += si.sampledSlack(n, f)
		}
		switch {
		case haveExact && (cnf <= refExactLimit || disjoint && uniform):
			// The model enumerates, or uses its exact closed form for
			// disjoint uniform spans.
			lo, hi = exactF, exactF
		case haveExact:
			lo, hi = exactF-slack, math.Max(exactF, s1all)+slack
		case disjoint && uniform:
			// Exact closed form, which the reference brackets between the
			// second Bonferroni bound and the union bound over distinct
			// events.
			lo, hi = math.Max(single, s1-pairwise(bySig, n, f)), math.Min(1, s1)
		default:
			lo, hi = single-slack, s1all+slack
		}
		if f == 2 && mix.pairCorr > 0 {
			a := alignedPairs(evs, nodeEv, n)
			lo = mix.pairCorr*a + (1-mix.pairCorr)*lo
			hi = mix.pairCorr*a + (1-mix.pairCorr)*hi
		}
		res.lo += pf * math.Max(0, lo)
		res.hi += pf * hi
		if cnf > refExactLimit && hi > 0 {
			res.slack += pf * closedFormUlps * 0x1p-52
		}
	}
	res.exact = res.hi-res.lo <= refTolerance*res.hi
	return res
}

// sigInfo is shared by every event of one shape: span size, the number of
// destroying node subsets by size, and how many events and groups have it.
type sigInfo struct {
	span   int
	ways   []float64 // ways[j]: j-node subsets of the span destroying the event
	events int
	groups int
}

// prob is P(the event dies | f uniform distinct node failures out of n).
func (si *sigInfo) prob(n, f int) float64 {
	var p float64
	for j, w := range si.ways {
		if w == 0 || j > f {
			continue
		}
		p += w * chooseRatio(n-si.span, f-j, n, f)
	}
	return p
}

// sampledSlack is the sampling error the model's union bound may carry
// for this event shape: it samples a group's conditional probability
// (groupSamples draws) instead of enumerating its span when the span's
// subsets of up to f nodes number more than groupEnumLimit.
func (si *sigInfo) sampledSlack(n, f int) float64 {
	work := 0.0
	for j := 1; j <= f && j <= si.span; j++ {
		work += combinations(si.span, j)
	}
	if work <= groupEnumLimit {
		return 0
	}
	p := si.prob(n, f)
	return float64(si.groups) * (6*math.Sqrt(p*(1-p)/groupSamples) + 2/groupSamples)
}

// pairwise is the second Bonferroni term over pairwise disjoint events:
// the summed probability that two distinct events both die.
func pairwise(bySig map[string]*sigInfo, n, f int) float64 {
	sigs := make([]*sigInfo, 0, len(bySig))
	for _, si := range bySig {
		sigs = append(sigs, si)
	}
	var s2 float64
	for a := range sigs {
		for b := a; b < len(sigs); b++ {
			sa, sb := sigs[a], sigs[b]
			pairs := float64(sa.events) * float64(sb.events)
			if a == b {
				pairs = float64(sa.events) * float64(sa.events-1) / 2
			}
			if pairs == 0 {
				continue
			}
			var p float64
			for j1, w1 := range sa.ways {
				for j2, w2 := range sb.ways {
					if w1 == 0 || w2 == 0 || j1+j2 > f {
						continue
					}
					p += w1 * w2 * chooseRatio(n-sa.span-sb.span, f-j1-j2, n, f)
				}
			}
			s2 += pairs * p
		}
	}
	return s2
}

// destroyWays counts, for each j, the j-node subsets of a span whose
// failure loses more than tol members.
func destroyWays(counts []int, tol int) []float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	// dp[j][l]: ways to pick j span nodes losing l members.
	dp := make([][]float64, len(counts)+1)
	for j := range dp {
		dp[j] = make([]float64, total+1)
	}
	dp[0][0] = 1
	for _, c := range counts {
		for j := len(counts) - 1; j >= 0; j-- {
			for l := total - c; l >= 0; l-- {
				if dp[j][l] != 0 {
					dp[j+1][l+c] += dp[j][l]
				}
			}
		}
	}
	ways := make([]float64, len(counts)+1)
	for j := range dp {
		for l := tol + 1; l <= total; l++ {
			ways[j] += dp[j][l]
		}
	}
	return ways
}

// enumerateSize visits every f-subset of the n nodes and returns the share
// that kills some event.
func enumerateSize(evs []*event, nodeEv [][]int32, n, f int) float64 {
	lost := make([]int, len(evs))
	idx := make([]int, f)
	for i := range idx {
		idx[i] = i
	}
	count := func(node int, sign int) {
		for _, ei := range nodeEv[node] {
			e := evs[ei]
			for i, nn := range e.nodes {
				if nn == node {
					lost[ei] += sign * e.counts[i]
				}
			}
		}
	}
	var hits, sets float64
	for {
		for _, node := range idx {
			count(node, 1)
		}
		dead := false
		for _, node := range idx {
			for _, ei := range nodeEv[node] {
				if lost[ei] > evs[ei].tol {
					dead = true
				}
			}
		}
		for _, node := range idx {
			count(node, -1)
		}
		if dead {
			hits++
		}
		sets++
		i := f - 1
		for i >= 0 && idx[i] == n-f+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < f; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return hits / sets
}

// alignedPairs is the share of power-supply pairs (2i, 2i+1) whose joint
// failure kills some event.
func alignedPairs(evs []*event, nodeEv [][]int32, n int) float64 {
	lost := map[int32]int{}
	pairs, hits := 0, 0
	for base := 0; base+1 < n; base += 2 {
		pairs++
		for k := range lost {
			delete(lost, k)
		}
		dead := false
		for _, node := range []int{base, base + 1} {
			for _, ei := range nodeEv[node] {
				e := evs[ei]
				for i, nn := range e.nodes {
					if nn == node {
						lost[ei] += e.counts[i]
					}
				}
				if lost[ei] > e.tol {
					dead = true
				}
			}
		}
		if dead {
			hits++
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(hits) / float64(pairs)
}

// combinations returns C(n, k) as a float64 (exact below 2^53).
func combinations(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return math.Round(c)
}

// chooseRatio evaluates C(a, b) / C(n, f) as a product of f ratios,
// which keeps full double precision at a million nodes (a log-gamma
// difference would lose about 1e-9 there).
func chooseRatio(a, b, n, f int) float64 {
	if b < 0 || b > a || f > n {
		return 0
	}
	// C(a,b)/C(n,f) = a(a-1)..(a-b+1) / n(n-1)..(n-f+1) · f!/b!
	r := 1.0
	for i := 0; i < b; i++ {
		r *= float64(a-i) / float64(n-i)
	}
	for i := b; i < f; i++ {
		r /= float64(n - i)
	}
	for i := b + 1; i <= f; i++ {
		r *= float64(i)
	}
	return r
}

// stencilNeighbors lists the ranks a synthetic stencil rank exchanges with,
// in the generator's documented pattern: r±1 for stencil1d; r±1 within a
// grid row and r±width across rows for stencil2d.
func stencilNeighbors(r, n, width int, twoD bool, out []int) []int {
	out = out[:0]
	if !twoD {
		if r > 0 {
			out = append(out, r-1)
		}
		if r+1 < n {
			out = append(out, r+1)
		}
		return out
	}
	if r-width >= 0 {
		out = append(out, r-width)
	}
	if r%width != 0 {
		out = append(out, r-1)
	}
	if r%width != width-1 && r+1 < n {
		out = append(out, r+1)
	}
	if r+width < n {
		out = append(out, r+width)
	}
	return out
}

// stencilOracle describes the trace a synthetic stencil must produce.
type stencilOracle struct {
	n        int
	width    int
	twoD     bool
	cellB    int64 // bytes of one directed neighbor cell
	cellMsgs int64
}

// cells visits every directed stencil cell.
func (o stencilOracle) cells(visit func(s, d int, b int64)) {
	nb := make([]int, 0, 4)
	for r := 0; r < o.n; r++ {
		nb = stencilNeighbors(r, o.n, o.width, o.twoD, nb)
		for _, d := range nb {
			visit(r, d, o.cellB)
		}
	}
}

// totals returns the bytes and messages the whole stencil trace carries.
func (o stencilOracle) totals() (bytes, msgs int64) {
	var cells int64
	o.cells(func(int, int, int64) { cells++ })
	return cells * o.cellB, cells * o.cellMsgs
}
