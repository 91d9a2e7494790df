package lra

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/ilp"
)

// ilpScheduler is Medea-ILP (§5.2): it formulates the batch placement of
// the interval's LRAs as the Figure-5 integer linear program and solves it
// with the in-repo branch-and-bound solver, substituting for CPLEX, when
// its heuristic fallback leaves the batch undecided (see Place).
//
// The formulation is the paper's, with two documented engineering
// adaptations that preserve its semantics:
//
//  1. Symmetry reduction: containers within a container group are
//     interchangeable, so instead of per-container binaries X_ijn the model
//     uses integer counts Y_gn (containers of group g on node n). The
//     paper's Equations 2 and 4 collapse into Σ_n Y_gn = T_g·S_i.
//  2. Candidate pruning: only a bounded, violation-score-ranked and
//     diversity-preserving subset of nodes is materialised per group,
//     keeping the model tractable on multi-thousand-node clusters. Nodes
//     with identical free resources, group memberships and relevant tag
//     cardinalities are interchangeable, so one representative per
//     equivalence class (times the containers that could land there)
//     suffices.
//
// The fragmentation indicators z_n (Equation 5) are relaxed to [0,1]
// continuous variables: the LP then awards partial credit proportional to
// the free-space margin, preserving the anti-fragmentation pressure while
// keeping the branch-and-bound tree small.
type ilpScheduler struct {
	// fallback is the answer when its score is decided; otherwise it
	// seeds the solver's incumbent and handles deadline exhaustion
	// without one.
	fallback *bestOf

	scratch pool[placeScratch]
}

// placeScratch is the memory one Place works in: the buffers it resolves
// its constraint list in, its score table, its score base, with the plan
// of its constraint list, and its solver arena. The table and the base
// are reset for each Place, and every arena buffer is re-initialised
// before it is read (the poisoned-arena differential proves it).
type placeScratch struct {
	res   resolver
	tab   scoreTable
	base  scoreBase
	arena *ilp.SolverArena // made by the scratch's first solve
}

// debugILP enables solver diagnostics on stdout (set via MEDEA_DEBUG_ILP).
var debugILP = os.Getenv("MEDEA_DEBUG_ILP") != ""

// NewILP returns the Medea-ILP algorithm.
func NewILP() Algorithm {
	return &ilpScheduler{fallback: newBestOfGreedy()}
}

// Name implements Algorithm.
func (s *ilpScheduler) Name() string { return "Medea-ILP" }

// Place implements Algorithm: fallback, returned as it is when its score
// is decided (it wins every comparison it enters), else candidates →
// buildModel → warm start → solve → decodeSolution → final selection. It
// keeps nothing of one call for the next but its scratch (placeScratch),
// whose contents never reach a result.
func (s *ilpScheduler) Place(state *cluster.Cluster, apps []*Application, active []constraint.Entry, opts Options) *Result {
	clk := opts.clock()
	start := clk()
	if len(apps) == 0 {
		return &Result{Latency: clk().Sub(start)}
	}
	sc := s.scratch.get()
	defer s.scratch.put(sc)
	cons := sc.res.resolve(apps, active)
	reqs := buildRequests(apps)
	queue := queueOf(reqs)

	// Every candidate placement is built on state itself, scored there
	// (scoreBase) and released again: the model is built on state as
	// Place found it, and Place returns it so.
	base := sc.base.reset(state, cons)

	// The score of every node for every container class, one table for
	// the Place: the heuristics place from it in turn and candidate
	// selection reads it. Its owner scores the plain violation delta, as
	// Medea-TP and Serial do.
	tab := &sc.tab
	classOf := tab.reset(&greedy{}, state, cons, queue)

	// Run the greedy fallback first. A decided one is the answer, as
	// nothing can score above it. Any other seeds the solver as its
	// initial incumbent (warm start): branch-and-bound then only ever
	// improves on the heuristic within the time budget, combining the
	// heuristics' latency with the ILP's placement quality (§5.3).
	fb, fbScore := s.fallback.placeBest(state, apps, cons, queue, tab, classOf, base, opts)
	if decided(fb, fbScore) {
		fb.Latency = clk().Sub(start)
		fb.DecidedPlaces = 1
		return fb
	}
	if sc.arena == nil {
		sc.arena = ilp.NewSolverArena()
	}
	// The heuristics' placements were released behind the table's back.
	tab.restart(tab.g)
	sol, pm := solve(state, apps, cons, tab, fb, start, opts, sc.arena)

	// Final selection: compare the solver's placement with the greedy
	// warm placement under the *actual* evaluation metric (placed apps,
	// then total violation extent on the resulting state). The model's
	// relaxations (continuous z/h, per-set slack aggregation) can make
	// its objective diverge slightly from the true metric; committing
	// whichever placement evaluates better closes that gap and makes
	// Medea-ILP never worse than its own heuristics (§5.3). The fallback's
	// score came with it; the solver's placement is decoded onto state,
	// scored there and released, and a tie keeps the fallback. Without
	// an incumbent within budget the batch degrades gracefully to the
	// greedy placement. Either way the result records how the solve
	// went: budget, validity (a model that failed its check has no
	// solution), node count and whether the warm start was taken.
	final := fb
	solved := sol != nil && (sol.Status == ilp.Optimal || sol.Status == ilp.Feasible)
	if solved {
		if res := decodeSolution(state, apps, reqs, sol, pm.S, pm.Y); base.scoreAndRelease(state, res) > fbScore {
			final, res.SolverCommits = res, 1
		}
		final.SolverDecodes = 1
	}
	final.Invalid = sol == nil || sol.Status == ilp.Invalid
	if sol != nil {
		final.DeadlineHit, final.Exhausted = sol.DeadlineHit, sol.DeadlineHit && !solved
		final.ExactSolves, final.Nodes, final.WarmStarts = 1, sol.Nodes, b2f(sol.WarmUsed)
	}
	final.Latency = clk().Sub(start)
	return final
}

// solve builds the batch's model on state from Place's score table tab,
// every node of fb a candidate so that the warm start is expressible,
// and solves it once on arena, seeded with fb, by start plus the budget.
// A defective constraint set can produce a malformed model (inverted
// bounds, dangling variables): solve returns no solution for a model
// that fails its check, and the batch degrades to the fallback.
func solve(state *cluster.Cluster, apps []*Application, cons []constraint.Entry, tab *scoreTable, fb *Result, start time.Time, opts Options, arena *ilp.SolverArena) (*ilp.Solution, *placementModel) {
	groups := batchGroups(apps)
	fbCounts := groupCounts(groups, fb)
	cands := selectCandidates(state, tab, cons, groups, opts)
	for gi := range groups {
		for n := range fbCounts[gi] {
			cands[gi] = append(cands[gi], n)
		}
		slices.Sort(cands[gi])
		cands[gi] = slices.Compact(cands[gi])
	}
	pm := buildModel(state, apps, cons, groups, cands, opts.weights())
	if err := pm.m.Check(); err != nil {
		if debugILP {
			fmt.Printf("[ilp] model check failed: %v\n", err)
		}
		return nil, pm
	}
	sol := pm.m.Solve(ilp.Options{
		Deadline:   start.Add(opts.solverBudget()),
		WarmStarts: []map[ilp.Var]float64{pm.warmValues(fb, fbCounts)},
		Clock:      opts.Clock,
		Arena:      arena,
	})
	if debugILP {
		fmt.Printf("[ilp] vars=%d cons=%d status=%v nodes=%d obj=%.4f warm=%v\n",
			pm.m.NumVars(), pm.m.NumConstraints(), sol.Status, sol.Nodes, sol.Objective, sol.WarmUsed)
	}
	return sol, pm
}

// decided reports whether score, res's, wins every comparison it enters:
// a score is the placed applications less a non-negative violation
// extent, so none exceeds the batch's size, and a placement replaces
// another only when it scores strictly higher.
func decided(res *Result, score float64) bool {
	return score >= float64(len(res.Placements))
}

// decodeSolution turns the solver's S and Y values into concrete
// assignments of reqs, the batch's requests (buildRequests), allocating
// them on work, the state the model was built from: an application whose
// containers do not all fit there is rolled back and reported unplaced.
// work ends up holding exactly the placed applications on top of that
// state; if decodeSolution panics, it releases what it allocated before
// the panic goes on.
func decodeSolution(work *cluster.Cluster, apps []*Application, reqs [][]containerReq, sol *ilp.Solution, S []ilp.Var, Y []map[cluster.NodeID]ilp.Var) *Result {
	res := &Result{Placements: make([]Placement, len(apps))}
	var assigned []Assignment // the application being decoded
	finished := false
	defer func() {
		if !finished {
			releaseAll(work, assigned)
			releasePlaced(work, res)
		}
	}()
	gi := 0
	for ai, app := range apps {
		ok := sol.IntValue(S[ai]) == 1
		for range app.Groups {
			y := Y[gi]
			gi++
			if !ok {
				continue
			}
			nodes := make([]cluster.NodeID, 0, len(y))
			for n := range y {
				nodes = append(nodes, n)
			}
			slices.Sort(nodes)
			for _, n := range nodes {
				for k := sol.IntValue(y[n]); ok && k > 0 && len(assigned) < len(reqs[ai]); k-- {
					r := reqs[ai][len(assigned)]
					if err := work.Allocate(n, r.id, r.demand, r.tags); err != nil {
						ok = false
						break
					}
					assigned = append(assigned, Assignment{
						Container: r.id, Group: r.group, Node: n, Demand: r.demand, Tags: r.tags,
					})
				}
			}
		}
		if ok && len(assigned) == app.NumContainers() {
			res.Placements[ai] = Placement{AppID: app.ID, Placed: true, Assignments: assigned}
		} else {
			res.Placements[ai] = Placement{AppID: app.ID}
			releaseAll(work, assigned)
		}
		assigned = nil
	}
	finished = true
	return res
}

// groupCounts reads res once into per-group node counts: how many of
// each model group's containers res puts on each node. Two groups of one
// application that share a name cannot be told apart: each gets the
// containers of both.
func groupCounts(groups []mgroup, res *Result) []map[cluster.NodeID]int {
	counts := make([]map[cluster.NodeID]int, len(groups))
	for gi, g := range groups {
		for _, asg := range res.Placements[g.appIdx].Assignments {
			if asg.Group != g.name {
				continue
			}
			if counts[gi] == nil {
				counts[gi] = map[cluster.NodeID]int{}
			}
			counts[gi][asg.Node]++
		}
	}
	return counts
}

// selectCandidates picks, per group, a bounded set of candidate nodes:
// feasible nodes are bucketed into equivalence classes (identical free
// resources, group memberships and violation score), classes are ranked by
// (violation delta, free space), and representatives are drawn round-robin
// across classes so rack/domain diversity is preserved. A group's
// violation delta at a node is tab's cell of its class there: tab is a
// table of state, made or restarted on it for an owner that scores the
// plain delta, and cons the constraint list it was made against. Two
// deltas are the same score when they print alike rounded to six
// decimals, so 1e-9 and 0 share a class; the class ranks by the delta
// of its first node.
func selectCandidates(state *cluster.Cluster, tab *scoreTable, cons []constraint.Entry, groups []mgroup, opts Options) [][]cluster.NodeID {
	out := make([][]cluster.NodeID, len(groups))
	nodes := state.Nodes()
	sig := nodeSignatures(state)
	var (
		text    []byte      // a delta, rounded, as its class key holds it
		bits    uint64      // the delta text was made of
		did     = int32(-1) // text's index in deltaID
		deltaID = map[string]int32{}
		classID = map[[2]int32]int32{} // by node signature and delta index
		classes []candClass
		classOf = make([]int32, len(nodes)) // by node, -1 for a node that does not fit
		members = make([]cluster.NodeID, len(nodes))
		order   []int32
	)
	for gi, g := range groups {
		budget := opts.MaxCandidates
		if budget <= 0 {
			// Twice the group's own container count suffices for spread
			// (anti-affinity needs at most count distinct nodes) while
			// keeping the model small; the floor keeps tiny groups from
			// starving under constraint pressure.
			budget = max(2*g.count, 8)
		}
		clear(deltaID)
		clear(classID)
		classes, did = classes[:0], -1
		for i, s := range tab.groupScores(cons, g.tags, g.demand) {
			classOf[i] = -1
			if !s.ok { // unavailable, or the group's demand does not fit
				continue
			}
			if b := math.Float64bits(s.delta); did < 0 || b != bits {
				text = strconv.AppendFloat(text[:0], s.delta, 'f', 6, 64)
				id, ok := deltaID[string(text)]
				if !ok {
					id = int32(len(deltaID))
					deltaID[string(text)] = id
				}
				did, bits = id, b
			}
			c, ok := classID[[2]int32{sig[i], did}]
			if !ok {
				c = int32(len(classes))
				classID[[2]int32{sig[i], did}] = c
				classes = append(classes, candClass{delta: s.delta, free: nodes[i].Free().Scalar(), first: nodes[i].ID})
			}
			classes[c].n++
			classOf[i] = c
		}
		// Lay the classes' nodes out one class after the other, each in
		// node ID order.
		at := 0
		for c := range classes {
			classes[c].off, at = at, at+classes[c].n
			classes[c].n = 0
		}
		for i, c := range classOf {
			if c >= 0 {
				cl := &classes[c]
				members[cl.off+cl.n] = nodes[i].ID
				cl.n++
			}
		}
		order = order[:0]
		for c := range classes {
			order = append(order, int32(c))
		}
		slices.SortFunc(order, func(a, b int32) int {
			x, y := &classes[a], &classes[b]
			return cmp.Or(cmp.Compare(x.delta, y.delta), cmp.Compare(y.free, x.free), cmp.Compare(x.first, y.first))
		})
		var sel []cluster.NodeID
		for round := 0; len(sel) < budget; round++ {
			advanced := false
			for _, c := range order {
				if cl := &classes[c]; round < cl.n && len(sel) < budget {
					sel = append(sel, members[cl.off+round])
					advanced = true
				}
			}
			if !advanced {
				break
			}
		}
		slices.Sort(sel)
		out[gi] = sel
	}
	return out
}

// candClass is one equivalence class of selectCandidates: its rank keys
// and where its n nodes lie in the members buffer.
type candClass struct {
	delta  float64
	free   int64
	first  cluster.NodeID
	n, off int
}

// nodeSignatures numbers the nodes of state by their free resources and
// their sets in every group but "node": two nodes share a number exactly
// when they agree on both.
func nodeSignatures(state *cluster.Cluster) []int32 {
	groupNames := state.Groups()
	ids := map[string]int32{}
	sig := make([]int32, state.NumNodes())
	var key []byte
	for i, n := range state.Nodes() {
		free := n.Free()
		key = strconv.AppendInt(key[:0], free.MemoryMB, 10)
		key = append(key, '/')
		key = strconv.AppendInt(key, free.VCores, 10)
		for _, gn := range groupNames {
			if gn == constraint.Node {
				continue
			}
			key = append(key, '|')
			for _, sid := range state.SetsOfNode(gn, n.ID) {
				key = strconv.AppendInt(key, int64(sid), 10)
				key = append(key, ' ')
			}
		}
		id, ok := ids[string(key)]
		if !ok {
			id = int32(len(ids))
			ids[string(key)] = id
		}
		sig[i] = id
	}
	return sig
}

func b2f(b bool) int {
	if b {
		return 1
	}
	return 0
}
