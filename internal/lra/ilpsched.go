package lra

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/ilp"
)

// ilpScheduler is Medea-ILP (§5.2): it formulates the batch placement of
// the interval's LRAs as the Figure-5 integer linear program and solves it
// with the in-repo branch-and-bound solver, substituting for CPLEX.
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
	// fallback seeds the solver's incumbent and handles deadline
	// exhaustion without one.
	fallback *bestOf

	// mu guards the arena free list, the only state kept between Place
	// calls: concurrent sub-batches check arenas out and back in.
	mu     sync.Mutex
	arenas []*ilp.SolverArena
}

// appMemory is what one placement says of one application: whether it
// was placed, and where, as per-group node counts. Place turns the greedy
// fallback's placement into this form to replay it as the solver's warm
// start.
type appMemory struct {
	placed bool
	counts map[string]map[cluster.NodeID]int // group name -> node -> count
}

// debugILP enables solver diagnostics on stdout (set via MEDEA_DEBUG_ILP).
var debugILP = os.Getenv("MEDEA_DEBUG_ILP") != ""

// NewILP returns the Medea-ILP algorithm.
func NewILP() Algorithm {
	return &ilpScheduler{fallback: newBestOfGreedy()}
}

// checkoutArena pops a reusable solver arena, growing the pool on first
// use. Which physical arena serves which solve is irrelevant: every
// buffer handed out is fully re-initialised before it is read (the
// poisoned-arena differential suite proves it), so arena identity can
// never perturb a solution.
func (s *ilpScheduler) checkoutArena() *ilp.SolverArena {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.arenas); n > 0 {
		a := s.arenas[n-1]
		s.arenas = s.arenas[:n-1]
		return a
	}
	return ilp.NewSolverArena()
}

func (s *ilpScheduler) returnArena(a *ilp.SolverArena) {
	s.mu.Lock()
	s.arenas = append(s.arenas, a)
	s.mu.Unlock()
}

// Name implements Algorithm.
func (s *ilpScheduler) Name() string { return "Medea-ILP" }

// Place implements Algorithm: fallback → candidates → buildModel → warm
// start → solve → decodeSolution → final selection. It keeps nothing of
// one call for the next but the solver arenas, whose contents never reach
// a solution.
func (s *ilpScheduler) Place(state *cluster.Cluster, apps []*Application, active []constraint.Entry, opts Options) *Result {
	clk := opts.clock()
	start := clk()
	if len(apps) == 0 {
		return &Result{Latency: clk().Sub(start)}
	}
	cons := flattenConstraints(apps, active)
	groups := batchGroups(apps)

	// Every candidate placement is built on one scratch copy of state and
	// priced against one sweep of state: the heuristics release theirs
	// again, the solution's decode comes last.
	work := state.Clone()
	base := newScoreBase(state, cons)

	// Warm start: run the greedy fallback first and seed the solver with
	// its placement as the initial incumbent. Branch-and-bound then only
	// ever improves on the heuristic within the time budget, combining
	// the heuristics' latency with the ILP's placement quality (§5.3).
	fb, fbScore := s.fallback.placeBest(work, apps, cons, base, opts)
	fbMem := memoryOf(apps, fb)

	// Every node the greedy used is a candidate too, so that the warm
	// solution is expressible in the model.
	cands := selectCandidates(state, cons, groups, opts)
	for gi, g := range groups {
		for n := range fbMem[apps[g.appIdx].ID].counts[g.name] {
			cands[gi] = append(cands[gi], n)
		}
		slices.Sort(cands[gi])
		cands[gi] = slices.Compact(cands[gi])
	}
	pm := buildModel(state, apps, cons, groups, cands, opts.weights())

	warm := pm.replay(apps, fbMem)

	// A defective constraint set can produce a malformed model (inverted
	// bounds, dangling variables). Check before solving and degrade to the
	// greedy placement instead of crashing the scheduler.
	var sol *ilp.Solution
	if err := pm.m.Check(); err != nil {
		if debugILP {
			fmt.Printf("[ilp] model check failed: %v\n", err)
		}
	} else {
		arena := s.checkoutArena()
		defer s.returnArena(arena)
		sol = pm.m.Solve(ilp.Options{
			Deadline:   start.Add(opts.solverBudget()),
			WarmStarts: []map[ilp.Var]float64{warm},
			Clock:      opts.Clock,
			Arena:      arena,
		})
		if debugILP {
			fmt.Printf("[ilp] vars=%d cons=%d status=%v nodes=%d obj=%.4f warm=%v fallback=%.6f\n",
				pm.m.NumVars(), pm.m.NumConstraints(), sol.Status, sol.Nodes, sol.Objective, sol.WarmUsed, fbScore)
		}
	}

	// Final selection: compare the solver's placement with the greedy
	// warm placement under the *actual* evaluation metric (placed apps,
	// then total violation extent on the resulting state). The model's
	// relaxations (continuous z/h, per-set slack aggregation) can make
	// its objective diverge slightly from the true metric; committing
	// whichever placement evaluates better closes that gap and makes
	// Medea-ILP never worse than its own heuristics (§5.3). The fallback's
	// score came with it; the solver's placement is decoded onto the
	// scratch copy and scored there, unless it is the fallback's own,
	// which ties and keeps the fallback. Without an incumbent within
	// budget the batch degrades gracefully to the greedy placement.
	final := fb
	if sol != nil && (sol.Status == ilp.Optimal || sol.Status == ilp.Feasible) {
		res := decodeSolution(work, apps, sol, pm.S, pm.Y)
		if !(sameNodes(res, fb) || fbScore >= base.score(work, res)) {
			final = res
		}
	}
	final.Latency = clk().Sub(start)
	stamp(final, sol)
	return final
}

// stamp records on the result Place returns how its solve went: budget,
// validity, node count and whether the warm start seeded the incumbent.
// sol is nil when the model failed its check and nothing was solved.
func stamp(final *Result, sol *ilp.Solution) {
	if sol == nil {
		final.Invalid = true
		return
	}
	final.DeadlineHit = sol.DeadlineHit
	if sol.Status != ilp.Optimal && sol.Status != ilp.Feasible {
		final.Exhausted = sol.DeadlineHit
		final.Invalid = sol.Status == ilp.Invalid
	}
	final.ExactSolves++
	final.Nodes += sol.Nodes
	if sol.WarmUsed {
		final.WarmStarts++
	}
}

// replay turns a placement of the batch's applications, as per-group node
// counts, into a warm-start candidate. Place replays the greedy
// fallback's placement, every node of which is a candidate with room for
// its containers. An application whose counts do not add up to a group's
// size (two of its groups share a name) is marked unplaced in the replay:
// the candidate stays well-formed and the solver simply re-derives its
// placement.
func (pm *placementModel) replay(apps []*Application, mems map[string]*appMemory) map[ilp.Var]float64 {
	usable := make([]bool, len(apps))
	for ai, app := range apps {
		mem := mems[app.ID]
		usable[ai] = mem != nil && mem.placed
	}
	for _, g := range pm.groups {
		if !usable[g.appIdx] {
			continue
		}
		total := 0
		for _, c := range mems[apps[g.appIdx].ID].counts[g.name] {
			total += c
		}
		if total != g.count {
			usable[g.appIdx] = false
		}
	}
	counts := make([]map[cluster.NodeID]int, len(pm.groups))
	for gi, g := range pm.groups {
		if usable[g.appIdx] {
			counts[gi] = mems[apps[g.appIdx].ID].counts[g.name]
		}
	}
	return pm.warmValues(usable, counts)
}

// decodeSolution turns the solver's S and Y values into concrete
// assignments, allocating them on work, a scratch copy of the state the
// model was built from: an application whose containers do not all fit
// there is rolled back and reported unplaced. work ends up holding
// exactly the placed applications on top of that state.
func decodeSolution(work *cluster.Cluster, apps []*Application, sol *ilp.Solution, S []ilp.Var, Y []map[cluster.NodeID]ilp.Var) *Result {
	res := &Result{Placements: make([]Placement, len(apps))}
	reqs := buildRequests(apps)
	gi := 0
	for ai, app := range apps {
		var assigned []Assignment
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
			continue
		}
		res.Placements[ai] = Placement{AppID: app.ID}
		for _, a := range assigned {
			_ = work.Release(a.Container)
		}
	}
	return res
}

// sameNodes reports whether two results for one batch place the same
// applications and put every container on the same node, in whatever
// order they list the assignments: such results score identically.
func sameNodes(a, b *Result) bool {
	for i, p := range a.Placements {
		q := b.Placements[i]
		if p.Placed != q.Placed || len(p.Assignments) != len(q.Assignments) {
			return false
		}
		for _, asg := range p.Assignments {
			if !slices.ContainsFunc(q.Assignments, func(o Assignment) bool {
				return o.Container == asg.Container && o.Node == asg.Node
			}) {
				return false
			}
		}
	}
	return true
}

// memoryOf is what res says of each batch application: whether it was
// placed, and where, as per-group node counts.
func memoryOf(apps []*Application, res *Result) map[string]*appMemory {
	mems := make(map[string]*appMemory, len(apps))
	for ai, p := range res.Placements {
		mem := &appMemory{placed: p.Placed}
		if len(p.Assignments) > 0 {
			mem.counts = make(map[string]map[cluster.NodeID]int)
		}
		for _, asg := range p.Assignments {
			c := mem.counts[asg.Group]
			if c == nil {
				c = map[cluster.NodeID]int{}
				mem.counts[asg.Group] = c
			}
			c[asg.Node]++
		}
		mems[apps[ai].ID] = mem
	}
	return mems
}

// selectCandidates picks, per group, a bounded set of candidate nodes:
// feasible nodes are bucketed into equivalence classes (identical free
// resources, group memberships and violation score), classes are ranked by
// (violation delta, free space), and representatives are drawn round-robin
// across classes so rack/domain diversity is preserved.
func selectCandidates(state *cluster.Cluster, cons []constraint.Entry, groups []mgroup, opts Options) [][]cluster.NodeID {
	out := make([][]cluster.NodeID, len(groups))
	groupNames := state.Groups()
	var key []byte // class key of the node being bucketed, reused
	for gi, g := range groups {
		budget := opts.MaxCandidates
		if budget <= 0 {
			// Twice the group's own container count suffices for spread
			// (anti-affinity needs at most count distinct nodes) while
			// keeping the model small; the floor keeps tiny groups from
			// starving under constraint pressure.
			budget = max(2*g.count, 8)
		}
		gcons := relevantEntries(cons, g.tags)
		type class struct {
			nodes []cluster.NodeID
			delta float64
			free  int64
		}
		classes := map[string]*class{}
		for _, n := range state.Nodes() {
			if !n.Available() || !g.demand.Fits(n.Free()) {
				continue
			}
			delta := placementDelta(state, gcons, g.tags, n.ID)
			free := n.Free()
			key = strconv.AppendInt(key[:0], free.MemoryMB, 10)
			key = append(key, '/')
			key = strconv.AppendInt(key, free.VCores, 10)
			key = append(key, '|')
			key = strconv.AppendFloat(key, delta, 'f', 6, 64)
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
			cl := classes[string(key)]
			if cl == nil {
				cl = &class{delta: delta, free: free.Scalar()}
				classes[string(key)] = cl
			}
			cl.nodes = append(cl.nodes, n.ID)
		}
		ordered := make([]*class, 0, len(classes))
		for _, cl := range classes {
			ordered = append(ordered, cl) // cl.nodes ascends: state.Nodes() is in ID order
		}
		slices.SortFunc(ordered, func(a, b *class) int {
			return cmp.Or(cmp.Compare(a.delta, b.delta), cmp.Compare(b.free, a.free), cmp.Compare(a.nodes[0], b.nodes[0]))
		})
		var sel []cluster.NodeID
		for round := 0; len(sel) < budget; round++ {
			advanced := false
			for _, cl := range ordered {
				if round < len(cl.nodes) && len(sel) < budget {
					sel = append(sel, cl.nodes[round])
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

func b2f(b bool) int {
	if b {
		return 1
	}
	return 0
}
