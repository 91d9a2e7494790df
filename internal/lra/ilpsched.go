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

	// mu guards the arena free list and the cross-cycle memory map. Place
	// runs concurrently for constraint-independent sub-batches, but their
	// application sets are disjoint, so individual appMemory entries are
	// never contended — the lock only protects map and slice structure.
	mu     sync.Mutex
	arenas []*ilp.SolverArena
	memory map[string]*appMemory
}

// appMemory is the cross-cycle solver memory of one application: the
// last solve's placement (as per-group node counts) and the top of its
// branch-and-bound tree, replayed into the next cycle's solve as a warm
// start and branch priority. A requeued application re-solves a
// near-identical model, so the replay usually seeds the incumbent
// immediately and re-walks yesterday's tree first.
type appMemory struct {
	placed   bool
	counts   map[string]map[cluster.NodeID]int // group name -> node -> count
	branched []semVar                          // top of the tree, by semantic name
	age      int                               // cycles since last refreshed
}

// memoryMaxAge is how many cycles an unrefreshed memory entry survives
// before BeginCycle prunes it: stale placements on a drifted cluster
// only waste warm-start LP evaluations.
const memoryMaxAge = 8

// memoryMaxBranched caps the branch-order names remembered per
// application; replay only needs the top of the tree.
const memoryMaxBranched = 16

// debugILP enables solver diagnostics on stdout (set via MEDEA_DEBUG_ILP).
var debugILP = os.Getenv("MEDEA_DEBUG_ILP") != ""

// NewILP returns the Medea-ILP algorithm.
func NewILP() Algorithm {
	return &ilpScheduler{fallback: newBestOfGreedy(), memory: map[string]*appMemory{}}
}

// BeginCycle implements CycleAware: age the cross-cycle memory and prune
// entries untouched for memoryMaxAge cycles. Core invokes it once per
// scheduling cycle before any Place call, so the memory's evolution is a
// deterministic function of the cycle sequence.
func (s *ilpScheduler) BeginCycle() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, mem := range s.memory {
		mem.age++
		if mem.age > memoryMaxAge {
			delete(s.memory, id)
		}
	}
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
// starts → solve → decodeSolution → final selection → memory.
func (s *ilpScheduler) Place(state *cluster.Cluster, apps []*Application, active []constraint.Entry, opts Options) *Result {
	clk := opts.clock()
	start := clk()
	if len(apps) == 0 {
		return &Result{Latency: clk().Sub(start)}
	}
	cons := flattenConstraints(apps, active)
	groups := batchGroups(apps)

	// Warm start: run the greedy fallback first and seed the solver with
	// its placement as the initial incumbent. Branch-and-bound then only
	// ever improves on the heuristic within the time budget, combining
	// the heuristics' latency with the ILP's placement quality (§5.3).
	fb, fbScore := s.fallback.placeBest(state, apps, cons, opts)
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

	warm, _ := pm.replay(apps, fbMem)
	var cycleWarm map[ilp.Var]float64
	var branchPrio []ilp.Var
	if !opts.DisableCycleWarm {
		cycleWarm, branchPrio = pm.replay(apps, s.recall(apps))
	}

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
			Deadline:       start.Add(opts.solverBudget()),
			RelGap:         0.01,
			WarmStarts:     []map[ilp.Var]float64{warm, cycleWarm},
			BranchPriority: branchPrio,
			Clock:          opts.Clock,
			Arena:          arena,
			Mode:           opts.SolverMode,
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
	// score came with it; the solver's placement is scored on the scratch
	// copy the decode left it on, unless it is the fallback's own, which
	// ties and keeps the fallback. Without an incumbent within budget the
	// batch degrades gracefully to the greedy placement.
	final := fb
	if sol != nil && (sol.Status == ilp.Optimal || sol.Status == ilp.Feasible) {
		res, work := decodeSolution(state, apps, sol, pm.S, pm.Y)
		if !(sameNodes(res, fb) || fbScore >= placementScore(work, cons, res)) {
			final = res
		}
	}
	final.Latency = clk().Sub(start)
	s.stamp(final, sol, apps, pm.semOf, !opts.DisableCycleWarm)
	return final
}

// stamp records on the result Place returns how its solve went — budget,
// validity, which path ran and whether a warm start seeded the incumbent
// — and remembers what actually committed: the chosen result's placement
// plus the solve's branch order, keyed by application. sol is nil when
// the model failed its check and nothing was solved.
func (s *ilpScheduler) stamp(final *Result, sol *ilp.Solution, apps []*Application, semOf map[ilp.Var]semVar, remember bool) {
	if sol == nil {
		final.Invalid = true
		return
	}
	final.DeadlineHit = sol.DeadlineHit
	if sol.Status != ilp.Optimal && sol.Status != ilp.Feasible {
		final.Exhausted = sol.DeadlineHit
		final.Invalid = sol.Status == ilp.Invalid
	}
	if sol.Approximate {
		final.ApproxSolves++
	} else {
		final.ExactSolves++
	}
	if sol.WarmUsed {
		final.WarmStarts++
	}
	if remember {
		s.recordMemory(apps, final, sol, semOf)
	}
}

// recall snapshots the batch applications' cross-cycle memory. Entries
// are only ever read and written by the sub-batch owning their
// application, so the pointers stay safe to use outside the lock.
func (s *ilpScheduler) recall(apps []*Application) map[string]*appMemory {
	s.mu.Lock()
	defer s.mu.Unlock()
	mems := make(map[string]*appMemory, len(apps))
	for _, app := range apps {
		if mem := s.memory[app.ID]; mem != nil {
			mems[app.ID] = mem
		}
	}
	return mems
}

// replay turns remembered placements of the batch's applications into a
// warm-start candidate and their remembered branch orders into a
// branching priority. The greedy fallback's placement is replayed this
// way within the cycle, the cross-cycle memory as a second candidate next
// to it. Apps whose remembered nodes are no longer candidates (or whose
// counts no longer add up to the gang size) are marked unplaced in the
// replay — the candidate stays well-formed and the solver simply
// re-derives their placement. An infeasible replay (cluster drifted) is
// rejected by the solver's warm evaluation, never committed.
func (pm *placementModel) replay(apps []*Application, mems map[string]*appMemory) (warm map[ilp.Var]float64, prio []ilp.Var) {
	if len(mems) == 0 {
		return nil, nil
	}
	usable := make([]bool, len(apps))
	for ai, app := range apps {
		mem := mems[app.ID]
		usable[ai] = mem != nil && mem.placed
	}
	for gi, g := range pm.groups {
		if !usable[g.appIdx] {
			continue
		}
		total := 0
		for n, c := range mems[apps[g.appIdx].ID].counts[g.name] {
			if _, ok := pm.Y[gi][n]; !ok && c > 0 {
				usable[g.appIdx] = false
				break
			}
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
	// Branch priority: the remembered branch orders, app by app in
	// submission order. Names that no longer resolve are dropped.
	for _, app := range apps {
		if mem := mems[app.ID]; mem != nil {
			for _, name := range mem.branched {
				if v, ok := pm.varOf[name]; ok {
					prio = append(prio, v)
				}
			}
		}
	}
	return pm.warmValues(usable, counts), prio
}

// decodeSolution turns the solver's S and Y values into concrete
// assignments, verifying capacities on a scratch copy of state: an
// application whose containers do not all fit there is rolled back and
// reported unplaced. It returns the result and the scratch copy, which
// holds exactly the placed applications on top of state.
func decodeSolution(state *cluster.Cluster, apps []*Application, sol *ilp.Solution, S []ilp.Var, Y []map[cluster.NodeID]ilp.Var) (*Result, *cluster.Cluster) {
	work := state.Clone()
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
	return res, work
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

// memoryOf is what a result leaves to remember of each batch
// application: whether it was placed, and where, as per-group node
// counts.
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

// recordMemory refreshes the cross-cycle memory from one finished solve:
// each batch application's placement and its share of the recorded branch
// order, in semantic names that survive model re-numbering. Applications
// in concurrent sub-batches are disjoint, so entries are never written by
// two solves at once.
func (s *ilpScheduler) recordMemory(apps []*Application, final *Result, sol *ilp.Solution, semOf map[ilp.Var]semVar) {
	mems := memoryOf(apps, final)
	for _, v := range sol.Branched {
		// Activation/DNF binaries have no name: batch-local, not replayable.
		if sem, ok := semOf[v]; ok && len(mems[sem.app].branched) < memoryMaxBranched {
			mems[sem.app].branched = append(mems[sem.app].branched, sem)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, mem := range mems {
		s.memory[id] = mem
	}
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
