package lra

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/ilp"
	"medea/internal/resource"
)

// The placement-semantics oracle: on clusters small enough to enumerate
// every placement of a batch, what buildModel's rows accept and charge
// is compared with what the evaluator (constraintExtent, the kernel of
// evaluateResolved) reports of the same placement, and what Place
// returns with what the enumeration shows was possible.

// tinyInstance is one enumerable scheduling problem.
type tinyInstance struct {
	seed   int64
	state  *cluster.Cluster
	apps   []*Application
	active []constraint.Entry
	cons   []constraint.Entry // flattenConstraints(apps, active)
	groups []mgroup
	nodes  []cluster.NodeID // the up nodes: every group's candidates

	// Where the model and the evaluator are known to differ (DESIGN §15):
	uncovered bool // an atom's group has no sets, or leaves an up node in none
	compound  bool // a DNF constraint with more than one term
}

var (
	tinyTags = []constraint.Tag{"a", "b", "c"}
	// The last two groups leave up nodes in no set: the fault domain some,
	// "nowhere" — not registered — all.
	tinyGroups = []constraint.GroupName{constraint.Node, constraint.Rack, "zone", constraint.FaultDomain, "nowhere"}
)

// tinyAtom draws an atom over one of groups whose subject is one of
// subjTags, alone or with the application tag.
func tinyAtom(rng *rand.Rand, groups []constraint.GroupName, subjTags []constraint.Tag, appTag constraint.Tag) constraint.Atom {
	subject := constraint.E(subjTags[rng.Intn(len(subjTags))])
	if rng.Intn(4) == 0 {
		subject = append(subject, appTag)
	}
	target := constraint.E(append(tinyTags, "gpu")[rng.Intn(4)])
	if rng.Intn(3) == 0 {
		target = subject // self-targeting
	}
	group := groups[rng.Intn(len(groups))]
	switch rng.Intn(4) {
	case 0:
		return constraint.Affinity(subject, target, group)
	case 1:
		return constraint.AntiAffinity(subject, target, group)
	case 2:
		return constraint.MaxCardinality(subject, target, 1+rng.Intn(2), group)
	default:
		return constraint.CardinalityRange(subject, target, 1, 2+rng.Intn(2), group)
	}
}

// tinyConstraint draws a simple, weighted (fractional or hard) or DNF
// constraint over such atoms.
func tinyConstraint(rng *rand.Rand, groups []constraint.GroupName, subjTags []constraint.Tag, appTag constraint.Tag) constraint.Constraint {
	atom := func() constraint.Atom { return tinyAtom(rng, groups, subjTags, appTag) }
	switch rng.Intn(8) {
	case 0:
		return or([]constraint.Atom{atom()}, []constraint.Atom{atom()})
	case 1:
		c := or([]constraint.Atom{atom(), atom()}, []constraint.Atom{atom()})
		c.Weight = 2.5
		return c
	case 2, 3:
		return constraint.Weighted(atom(), []float64{0.5, 1.5, 100, 150}[rng.Intn(4)])
	default:
		return constraint.New(atom())
	}
}

// newTinyInstance draws, from the seed alone: two to four nodes in racks
// of two, overlapping zones, a fault domain that leaves nodes out, maybe
// a "gpu" attribute container, a nearly full node and a drained one; up
// to three deployed containers with constraints of their own, now and
// then an operator constraint whose subject is the gpu tag; and a batch
// of one or two applications, at most three groups and six containers.
func newTinyInstance(seed int64) *tinyInstance {
	rng := rand.New(rand.NewSource(seed))
	groups := tinyGroups[:3]
	if rng.Intn(4) == 0 {
		groups = tinyGroups // one instance in four may leave nodes uncovered
	}
	n := 2 + rng.Intn(3)
	state := cluster.Grid(n, 2, resource.New(4096, 4))
	all := make([]cluster.NodeID, n)
	for i := range all {
		all[i] = cluster.NodeID(i)
	}
	if err := state.RegisterGroup("zone", [][]cluster.NodeID{all[:max(1, n-1)], all[1:]}); err != nil {
		panic(err)
	}
	if err := state.RegisterGroup(constraint.FaultDomain, [][]cluster.NodeID{all[:1+rng.Intn(n-1)]}); err != nil {
		panic(err)
	}
	if rng.Intn(3) == 0 {
		addAttribute(state, cluster.NodeID(rng.Intn(n)), "gpu")
	}
	if rng.Intn(3) == 0 {
		if err := state.Allocate(cluster.NodeID(rng.Intn(n)), "fill#0", resource.New(3072, 2), nil); err != nil {
			panic(err)
		}
	}
	if n > 2 && rng.Intn(6) == 0 {
		state.DrainNode(cluster.NodeID(rng.Intn(n)))
	}

	// Deployed containers, each its own application, wherever they fit.
	var active []constraint.Entry
	for d := 0; d < rng.Intn(4); d++ {
		id := fmt.Sprintf("dep%d", d)
		tags := []constraint.Tag{tinyTags[rng.Intn(3)], constraint.AppIDTag(id)}
		if rng.Intn(3) == 0 {
			tags = append(tags, tinyTags[rng.Intn(3)])
		}
		if state.Allocate(cluster.NodeID(rng.Intn(n)), cluster.MakeContainerID(id, 0), resource.New(1024, 1), tags) != nil {
			continue // full or down
		}
		if rng.Intn(3) != 0 {
			active = append(active, constraint.Entry{AppID: id, Source: constraint.SourceApplication,
				Constraint: tinyConstraint(rng, groups, tags[:1], tags[1])})
		}
	}
	if rng.Intn(12) == 0 {
		active = append(active, constraint.Entry{Source: constraint.SourceOperator,
			Constraint: constraint.New(tinyAtom(rng, groups, []constraint.Tag{"gpu"}, "gpu"))})
	}

	var apps []*Application
	left, groupsLeft := 6, 3
	for ai := 0; ai <= rng.Intn(2) && left > 0 && groupsLeft > 0; ai++ {
		app := &Application{ID: fmt.Sprintf("new%d", ai)}
		var own []constraint.Tag
		for gi := 0; gi <= rng.Intn(2) && left > 0 && groupsLeft > 0; gi++ {
			count := 1 + rng.Intn(min(3, left))
			left -= count
			groupsLeft--
			tags := []constraint.Tag{tinyTags[rng.Intn(3)]}
			if rng.Intn(3) == 0 {
				tags = append(tags, tinyTags[rng.Intn(3)])
			}
			own = append(own, tags...)
			app.Groups = append(app.Groups, ContainerGroup{
				Name: fmt.Sprintf("g%d", gi), Count: count, Tags: tags,
				Demand: resource.New(int64(1024*(1+rng.Intn(2))), int64(1+rng.Intn(2))),
			})
		}
		for ci := 0; ci <= rng.Intn(2); ci++ {
			app.Constraints = append(app.Constraints, tinyConstraint(rng, groups, own, constraint.AppIDTag(app.ID)))
		}
		apps = append(apps, app)
	}
	in := tinyInstanceOf(state, apps, active)
	in.seed = seed
	return in
}

// tinyInstanceOf wraps a batch on a state with what the checks derive
// from them once.
func tinyInstanceOf(state *cluster.Cluster, apps []*Application, active []constraint.Entry) *tinyInstance {
	in := &tinyInstance{state: state, apps: apps, active: active,
		cons: flattenConstraints(apps, active), groups: batchGroups(apps)}
	for _, node := range state.Nodes() {
		if node.Available() {
			in.nodes = append(in.nodes, node.ID)
		}
	}
	for _, e := range in.cons {
		in.compound = in.compound || len(e.Constraint.Terms) > 1
		for _, a := range atomsOf(e.Constraint) {
			for _, node := range in.nodes {
				in.uncovered = in.uncovered || len(state.SetsOfNode(a.Group, node)) == 0
			}
		}
	}
	return in
}

func (in *tinyInstance) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d: %d nodes (up %v)", in.seed, in.state.NumNodes(), in.nodes)
	for _, id := range containerIDs(in.state) {
		node, _ := in.state.ContainerNode(id)
		tags, _ := in.state.ContainerTags(id)
		fmt.Fprintf(&b, "\n  deployed %s@%d %v", id, node, tags)
	}
	for gi, g := range in.groups {
		fmt.Fprintf(&b, "\n  group %d: app %d %s ×%d %v %v", gi, g.appIdx, g.name, g.count, g.demand, g.tags)
	}
	for _, e := range in.cons {
		fmt.Fprintf(&b, "\n  %s: %s", e.AppID, e.Constraint)
	}
	return b.String()
}

// candidates lists every up node for every group: all candidates
// materialised, as selectCandidates does on a cluster this small.
func (in *tinyInstance) candidates() [][]cluster.NodeID {
	cands := make([][]cluster.NodeID, len(in.groups))
	for gi := range cands {
		cands[gi] = in.nodes
	}
	return cands
}

// tinyPlacement says, per application, whether S is set and, per group,
// how many containers go to each node of tinyInstance.nodes.
type tinyPlacement struct {
	placed []bool
	counts [][]int
}

func (p tinyPlacement) String() string { return fmt.Sprintf("S=%v Y=%v", p.placed, p.counts) }

// compositions returns every way to put total containers on n nodes.
func compositions(total, n int) [][]int {
	if n == 1 {
		return [][]int{{total}}
	}
	var out [][]int
	for first := 0; first <= total; first++ {
		for _, rest := range compositions(total-first, n-1) {
			out = append(out, append([]int{first}, rest...))
		}
	}
	return out
}

// enumerate visits every assignment of S and of group counts in which
// each group is complete or absent — with S set or not independently of
// that — and, for one group at a time, the same with that group one
// container short and the others absent. wellFormed marks the
// all-or-nothing ones: every application has S and all its groups
// complete, or neither S nor a container.
func (in *tinyInstance) enumerate(visit func(p tinyPlacement, wellFormed bool)) {
	absent := make([]int, len(in.nodes))
	p := tinyPlacement{placed: make([]bool, len(in.apps)), counts: make([][]int, len(in.groups))}
	present := make([]bool, len(in.groups))
	masks := func(anyShort bool) {
		for mask := 0; mask < 1<<len(in.apps); mask++ {
			wellFormed := !anyShort
			for ai := range in.apps {
				p.placed[ai] = mask&(1<<ai) != 0
			}
			for gi, g := range in.groups {
				wellFormed = wellFormed && present[gi] == p.placed[g.appIdx]
			}
			visit(p, wellFormed)
		}
	}
	var rec func(gi int)
	rec = func(gi int) {
		if gi == len(in.groups) {
			masks(false)
			return
		}
		p.counts[gi], present[gi] = absent, false
		rec(gi + 1)
		present[gi] = true
		for _, opt := range compositions(in.groups[gi].count, len(in.nodes)) {
			p.counts[gi] = opt
			rec(gi + 1)
		}
	}
	rec(0)
	for gi := range in.groups {
		p.counts[gi], present[gi] = absent, false
	}
	for gi, g := range in.groups {
		if g.count == 1 {
			continue // one short of one is absent
		}
		present[gi] = true
		for _, opt := range compositions(g.count-1, len(in.nodes)) {
			p.counts[gi] = opt
			masks(true)
		}
		p.counts[gi], present[gi] = absent, false
	}
}

// fits reports whether every node has room, in both dimensions, for what
// the placement puts there.
func (in *tinyInstance) fits(p tinyPlacement) bool {
	for ni, n := range in.nodes {
		var need resource.Vector
		for gi, g := range in.groups {
			k := int64(p.counts[gi][ni])
			need = need.Add(resource.New(g.demand.MemoryMB*k, g.demand.VCores*k))
		}
		if !need.Fits(in.state.Node(n).Free()) {
			return false
		}
	}
	return true
}

// apply returns the state with the placement's containers allocated, in
// buildRequests order; the placement must be well-formed and fit.
func (in *tinyInstance) apply(p tinyPlacement) (*cluster.Cluster, *Result) {
	work := in.state.Clone()
	res := &Result{Placements: make([]Placement, len(in.apps))}
	reqs := buildRequests(in.apps)
	gi := 0
	for ai, app := range in.apps {
		res.Placements[ai] = Placement{AppID: app.ID, Placed: p.placed[ai]}
		next := 0
		for range app.Groups {
			for ni, n := range in.nodes {
				for k := 0; k < p.counts[gi][ni]; k++ {
					r := reqs[ai][next]
					next++
					if err := work.Allocate(n, r.id, r.demand, r.tags); err != nil {
						panic(fmt.Sprintf("%v\n%v: %v", in, p, err))
					}
					res.Placements[ai].Assignments = append(res.Placements[ai].Assignments,
						Assignment{Container: r.id, Group: r.group, Node: n, Demand: r.demand, Tags: r.tags})
				}
			}
			gi++
		}
	}
	return work, res
}

// modelBuilder is buildModel, or a mutant of it.
type modelBuilder func(state *cluster.Cluster, apps []*Application, cons []constraint.Entry, groups []mgroup, cands [][]cluster.NodeID, w Weights) *placementModel

// accepts reports whether the model's hard rows — everything but the
// slacked cardinality rows — admit the placement: the assignment is
// completed with every activation the placement forces, the first DNF
// term, slacks large enough for any cardinality row and no headroom
// credit, which is the completion that asks least of the other rows.
func (in *tinyInstance) accepts(pm *placementModel, p tinyPlacement) bool {
	x := make([]float64, pm.m.NumVars())
	for ai, v := range pm.S {
		x[v] = float64(b2f(p.placed[ai]))
	}
	for gi := range in.groups {
		for ni, n := range in.nodes {
			if v, ok := pm.Y[gi][n]; ok {
				x[v] = float64(p.counts[gi][ni])
			} else if p.counts[gi][ni] > 0 {
				return false // no variable: not one container of the group fits there
			}
		}
	}
	for k, v := range pm.acts {
		for ni, n := range in.nodes {
			if p.counts[k.gi][ni] > 0 && slices.Contains(in.state.SetMembers(k.group, k.set), n) {
				x[v] = 1
			}
		}
	}
	for key, u := range pm.termSel {
		x[u] = float64(b2f(key[1] == 0))
	}
	for _, s := range pm.slacks {
		x[s.v] = 1e6
	}
	return pm.m.CheckFeasible(x)
}

// pinned solves the model with S and Y held at the placement and the
// slacks alone in the objective: the solver picks the activations and
// DNF selectors that cost least. The model is rebuilt from its text with
// the bounds of S and Y closed on their values; pinning with equality
// rows instead sends the search astray (DESIGN §15, "What the oracle
// found in the solver").
func (in *tinyInstance) pinned(build modelBuilder, p tinyPlacement) (*placementModel, *ilp.Solution) {
	pm := build(in.state, in.apps, in.cons, in.groups, in.candidates(), Weights{W2: 1})
	pins := map[string]float64{}
	for ai := range pm.S {
		pins[fmt.Sprintf("S_%d", ai)] = float64(b2f(p.placed[ai]))
	}
	for gi := range in.groups {
		for ni, n := range in.nodes {
			pins[fmt.Sprintf("Y_%d_%d", gi, n)] = float64(p.counts[gi][ni])
		}
	}
	fixed := *pm
	fixed.m = rebuildModel(pm.m, pins, func(*textRow) bool { return true })
	return &fixed, fixed.m.Solve(ilp.Options{})
}

// slackFree reports whether the model can hold the placement with every
// violation slack at zero; ok is false when it cannot hold it at all.
func (in *tinyInstance) slackFree(build modelBuilder, p tinyPlacement) (free, ok bool) {
	_, sol := in.pinned(build, p)
	return sol.Objective > -1e-9, sol.Status == ilp.Optimal
}

// influences reports whether the batch can change what the evaluator
// says of atom a for the container id on node: id is one of the batch's
// own containers, or there is, in a set of the atom's group around node,
// a node where a batch group matching the atom's target has a variable.
// Elsewhere the model has no row, by design: no placement of this batch
// moves that γ.
func (in *tinyInstance) influences(pm *placementModel, id cluster.ContainerID, node cluster.NodeID, a constraint.Atom) bool {
	if _, deployed := in.state.ContainerNode(id); !deployed {
		return true
	}
	for _, sid := range in.state.SetsOfNode(a.Group, node) {
		for gi, g := range in.groups {
			if a.Target.Matches(g.tags) && len(pm.candidatesIn(gi, a.Group, sid)) > 0 {
				return true
			}
		}
	}
	return false
}

// evaluatorClean reports whether, for some choice of one term per DNF
// constraint — the model's reading of "exactly one term binds" (§5.2) —
// the evaluator finds no (container, constraint) pair violated through
// an atom the batch influences, on the state the placement leaves. With
// simple constraints only, the choice is the instance's own list.
func (in *tinyInstance) evaluatorClean(pm *placementModel, work *cluster.Cluster) bool {
	choice := make([]int, len(in.cons))
	for {
		chosen := make([]constraint.Entry, len(in.cons))
		for ci, e := range in.cons {
			chosen[ci] = e
			chosen[ci].Constraint.Terms = e.Constraint.Terms[choice[ci] : choice[ci]+1]
		}
		violated, influenced := 0, 0
		for _, id := range containerIDs(work) {
			node, _ := work.ContainerNode(id)
			tags, _ := work.ContainerTags(id)
			for _, e := range chosen {
				sum, byBatch := 0.0, false
				for _, a := range e.Constraint.Terms[0] {
					if a.Subject.Matches(tags) {
						ext := subjectExtent(work, &a, work.SetsOfNode(a.Group, node), a.Target.Matches(tags))
						sum += ext
						byBatch = byBatch || ext > 0 && in.influences(pm, id, node, a)
					}
				}
				// The pair as evaluateResolved sees it.
				if ext, _ := constraintExtent(work, e.Constraint, node, tags); ext != sum {
					panic(fmt.Sprintf("%v: constraintExtent %v, its atoms sum to %v", in, ext, sum))
				}
				violated += b2f(sum > 0)
				influenced += b2f(byBatch)
			}
		}
		if rep := evaluateResolved(work, chosen); rep.Violated != violated {
			panic(fmt.Sprintf("%v: evaluateResolved counts %d violated pairs, its kernel %d", in, rep.Violated, violated))
		}
		if influenced == 0 {
			return true
		}
		ci := 0
		for ; ci < len(choice); ci++ {
			if choice[ci]++; choice[ci] < len(in.cons[ci].Constraint.Terms) {
				break
			}
			choice[ci] = 0
		}
		if ci == len(choice) {
			return false
		}
	}
}

// oracleStats counts what the enumeration covered.
type oracleStats struct {
	instances, agreeing, uncovered, compound int // instances by class, first match
	points, accepted, rejected               int // (a)
	pinned, clean, dirty                     int // (b)
	cleanExists, cut                         int // (d)
	beaten                                   int // (e): instances where NC or J-Kube(++) outscores Place
}

// slackFreeBudget caps the placements per instance whose minimal slack is
// solved for; beyond it every k-th accepted placement is taken.
const slackFreeBudget = 12

// checkModel runs assertions (a) and (b) for one instance against a
// model builder and returns what failed, at most one line per assertion.
func (in *tinyInstance) checkModel(build modelBuilder, stats *oracleStats) (failures []string) {
	fail := func(tag, format string, args ...any) {
		for _, f := range failures {
			if strings.HasPrefix(f, tag) {
				return
			}
		}
		failures = append(failures, tag+": "+fmt.Sprintf(format, args...))
	}
	pm := build(in.state, in.apps, in.cons, in.groups, in.candidates(), Weights{W2: 1})
	var accepted []tinyPlacement
	in.enumerate(func(p tinyPlacement, wellFormed bool) {
		stats.points++
		want := wellFormed && in.fits(p)
		if got := in.accepts(pm, p); got != want {
			fail("(a)", "model accepts=%v, all-or-nothing and within capacity=%v: %v", got, want, p)
		}
		if want {
			stats.accepted++
			accepted = append(accepted, tinyPlacement{append([]bool(nil), p.placed...), append([][]int(nil), p.counts...)})
		} else {
			stats.rejected++
		}
	})
	stride := 1 + len(accepted)/slackFreeBudget
	for i := int(in.seed%int64(stride)+int64(stride)) % stride; i < len(accepted); i += stride {
		p := accepted[i]
		work, _ := in.apply(p)
		model, ok := in.slackFree(build, p)
		evaluator := in.evaluatorClean(pm, work)
		stats.pinned++
		stats.clean += b2f(evaluator)
		stats.dirty += b2f(!evaluator)
		// Where a node is in no set of an atom's group the model has no
		// row and the evaluator charges an empty set: one direction of (b)
		// survives (TestPlacementSemanticsDivergences).
		switch {
		case !ok:
			fail("(b)", "the model cannot hold an accepted placement: %v", p)
		case in.uncovered && (model || !evaluator):
		case model != evaluator:
			fail("(b)", "model slack-free=%v, evaluator clean=%v: %v", model, evaluator, p)
		}
	}
	return failures
}

// checkPlace runs assertions (d) and (e) for one instance: what Place
// returns against what the enumeration shows exists and against the
// heuristics, with the fragmentation and balance terms off. The clock
// ticks so that the few instances with a large tree end on the budget.
func (in *tinyInstance) checkPlace(stats *oracleStats) (failures []string) {
	opts := Options{Weights: Weights{W1: 1, W2: 0.5}, SolverBudget: 250 * time.Millisecond, Clock: tickingClock(time.Millisecond)}
	got := NewILP().Place(in.state, in.apps, in.active, opts)
	score := oracleScore(in.state, in.apps, in.active, got)
	stats.cut += b2f(got.DeadlineHit)

	// (d) holds where the model and the evaluator mean the same thing,
	// for a solve that ran to its end. A result that places everything
	// without a violation has the highest score there is.
	best := false
	if !in.uncovered && !in.compound && !got.DeadlineHit {
		in.enumerate(func(p tinyPlacement, wellFormed bool) {
			if best || !wellFormed || !in.fits(p) || slices.Contains(p.placed, false) {
				return
			}
			work, _ := in.apply(p)
			best = evaluateResolved(work, in.cons).TotalExtent == 0
		})
		if stats.cleanExists += b2f(best); best && score != float64(len(in.apps)) {
			failures = append(failures, fmt.Sprintf("(d): a fully placed placement without violations exists, Place scores %v", score))
		}
	}

	// (e) Place keeps the better of the solver's placement and its
	// fallback's, Medea-TP or Serial, so those two never outscore it. The
	// other heuristics can: the model prices a violation per node set,
	// the score per container (the "per-set slack" divergence case). They
	// cannot where (d) has just shown Place at the highest score.
	beaten := false
	for _, g := range scoringVariants() {
		res, work := g.placeOnClone(in.state, in.apps, in.cons)
		if h := placementScore(work, in.cons, res); h > score {
			if best || g.order != orderNC && g.loadBalanceWeight == 0 {
				failures = append(failures, fmt.Sprintf("(e): %s scores %v, Place %v", g.name, h, score))
			}
			beaten = true
		}
	}
	stats.beaten += b2f(beaten)
	return failures
}

// checkInstance runs (a), (b), (d) and (e) on the instance of one seed.
func checkInstance(seed int64, stats *oracleStats) []string {
	in := newTinyInstance(seed)
	stats.instances++
	switch {
	case in.uncovered:
		stats.uncovered++
	case in.compound:
		stats.compound++
	default:
		stats.agreeing++
	}
	failures := append(in.checkModel(buildModel, stats), in.checkPlace(stats)...)
	if len(failures) > 0 {
		failures = append(failures, in.String())
	}
	return failures
}

// TestPlacementSemantics enumerates every placement of 2,000 seeded tiny
// instances and asserts what must hold exactly:
//
//	(a) the gang and capacity rows accept precisely the all-or-nothing
//	    placements that fit;
//	(b) the minimal slack total of a placement is zero iff the evaluator
//	    reports no violated (container, constraint) pair the batch can
//	    influence, for some one term per DNF constraint;
//	(d) with W3 = W4 = 0, when a fully placed placement without
//	    violations exists, Place returns one;
//	(e) Medea-TP and Serial never score above Place's result under
//	    placementScore, and no heuristic does where (d) applies.
//
// (c), the audit, is in placement_audit_test.go: the audit imports this
// package. (b), (d) and (e) are stated on the domain where they hold;
// TestPlacementSemanticsDivergences pins what happens outside it. Then
// three mutants of buildModel — selfAdj dropped, a ≥ turned into a ≤,
// the deployed-subject rows left out — must each fail (a) or (b).
func TestPlacementSemantics(t *testing.T) {
	var stats oracleStats
	for seed := int64(1); seed <= OracleInstances(); seed++ {
		if failures := checkInstance(seed, &stats); len(failures) > 0 {
			t.Fatal(strings.Join(failures, "\n"))
		}
	}
	t.Logf("%+v", stats)
	if stats.rejected == 0 || stats.clean == 0 || stats.dirty == 0 || stats.cleanExists == 0 || stats.beaten == 0 ||
		stats.agreeing < stats.instances/5 || stats.uncovered == 0 || stats.compound == 0 {
		t.Fatal("coverage: one of the counts above is zero or too small")
	}

	for _, mut := range modelMutants() {
		caught, tried := 0, 0
		for seed := int64(1); seed <= 300; seed++ {
			tried++
			if len(newTinyInstance(seed).checkModel(mut.build, &oracleStats{})) > 0 {
				caught++
			}
		}
		t.Logf("mutant %q caught on %d of %d instances", mut.name, caught, tried)
		if (caught == 0) != (mut.name == "none") {
			t.Errorf("mutant %q fails (a) or (b) on %d of %d instances", mut.name, caught, tried)
		}
	}
}

// FuzzPlacementSemantics runs the same assertions on the instance of any
// seed the fuzzer comes up with.
func FuzzPlacementSemantics(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if failures := checkInstance(seed, &oracleStats{}); len(failures) > 0 {
			t.Fatal(strings.Join(failures, "\n"))
		}
	})
}

// OracleInstances is how many seeds the oracle's tests enumerate: 2,000,
// a fifth of that under -short.
func OracleInstances() int64 {
	if testing.Short() {
		return 400
	}
	return 2000
}

// TinyPlacements is the enumeration for tests outside the package (the
// audit imports this one, so assertion (c) cannot live here): it calls
// visit with the instance of seed and each of its all-or-nothing
// placements that fit, as a Result.
func TinyPlacements(seed int64, visit func(state *cluster.Cluster, apps []*Application, active []constraint.Entry, res *Result)) {
	in := newTinyInstance(seed)
	in.enumerate(func(p tinyPlacement, wellFormed bool) {
		if wellFormed && in.fits(p) {
			_, res := in.apply(p)
			visit(in.state, in.apps, in.active, res)
		}
	})
}

// modelMutant is buildModel with one defect.
type modelMutant struct {
	name  string
	build modelBuilder
}

// modelMutants returns the seeded defects: each rebuilds the model
// buildModel returns from its text, changing the rows it is about.
func modelMutants() []modelMutant {
	mutant := func(name string, edit func(pm *placementModel, atoms []constraint.Atom, row *textRow) (keep bool)) modelMutant {
		return modelMutant{name, func(state *cluster.Cluster, apps []*Application, cons []constraint.Entry, groups []mgroup, cands [][]cluster.NodeID, w Weights) *placementModel {
			pm := buildModel(state, apps, cons, groups, cands, w)
			var atoms []constraint.Atom
			for _, e := range cons {
				atoms = append(atoms, atomsOf(e.Constraint)...)
			}
			mutated := *pm
			mutated.m = rebuildModel(pm.m, nil, func(row *textRow) bool { return edit(pm, atoms, row) })
			return &mutated
		}}
	}
	return []modelMutant{
		// The control: a rebuilt but unchanged model must pass.
		mutant("none", func(*placementModel, []constraint.Atom, *textRow) bool { return true }),
		mutant("drop selfAdj", func(pm *placementModel, atoms []constraint.Atom, row *textRow) bool {
			var idx, gi, sid int
			if n, _ := fmt.Sscanf(row.name, "scmax_%d_%d", &idx, &sid); n == 2 {
				row.rhs-- // the subject is its own target
			}
			for _, format := range []string{"cmin_%d_%d_%d", "cmax_%d_%d_%d"} {
				if n, _ := fmt.Sscanf(row.name, format, &idx, &gi, &sid); n == 3 && atoms[idx].Target.Matches(pm.groups[gi].tags) {
					row.rhs--
				}
			}
			return true
		}),
		mutant("≤ for ≥", func(_ *placementModel, _ []constraint.Atom, row *textRow) bool {
			if strings.HasPrefix(row.name, "cmin_") || strings.HasPrefix(row.name, "ecmin_") {
				row.op = "<="
			}
			return true
		}),
		mutant("no deployed-subject rows", func(_ *placementModel, _ []constraint.Atom, row *textRow) bool {
			return !strings.HasPrefix(row.name, "ecmin_") && !strings.HasPrefix(row.name, "ecmax_")
		}),
	}
}

// textRow is one row of ilp.Model.String, parsed.
type textRow struct {
	name  string
	terms []ilp.Term
	op    string // "<=", ">=" or "="
	rhs   float64
}

// rebuildModel re-creates a model from its text, variable for variable
// and row for row, with the variables named in pins fixed at those
// values and after edit changed each row or dropped it.
func rebuildModel(m *ilp.Model, pins map[string]float64, edit func(*textRow) (keep bool)) *ilp.Model {
	out := ilp.NewModel(ilp.Maximize)
	vars := map[string]ilp.Var{}
	num := func(s string) float64 {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			panic(err)
		}
		return f
	}
	for _, line := range strings.Split(strings.TrimSuffix(m.String(), "\n"), "\n") {
		f := strings.Fields(line)
		if f[0] == "var" { // var <name> int|float [lo,hi] obj=<c>
			los, his, _ := strings.Cut(strings.Trim(f[3], "[]"), ",")
			lo, hi := num(los), num(his)
			if at, pinned := pins[f[1]]; pinned {
				lo, hi = at, at
			}
			add := out.Float
			if f[2] == "int" {
				add = out.Int
			}
			v := add(f[1], lo, hi)
			out.SetObjective(v, num(strings.TrimPrefix(f[4], "obj=")))
			vars[f[1]] = v
			continue
		}
		// row <name>: <c> <var> + <c> <var> ... <op> <rhs>
		row := textRow{name: strings.TrimSuffix(f[1], ":"), op: f[len(f)-2], rhs: num(f[len(f)-1])}
		for i := 2; i < len(f)-2; i += 3 {
			row.terms = append(row.terms, ilp.T(num(f[i]), vars[f[i+1]]))
		}
		if !edit(&row) {
			continue
		}
		switch row.op {
		case "<=":
			out.AddLE(row.name, row.rhs, row.terms...)
		case ">=":
			out.AddGE(row.name, row.rhs, row.terms...)
		default:
			out.AddEQ(row.name, row.rhs, row.terms...)
		}
	}
	return out
}
