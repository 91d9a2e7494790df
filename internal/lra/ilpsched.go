package lra

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/ilp"
	"medea/internal/resource"
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
	branched []string                          // semantic names (semSName/semYName)
	age      int                               // cycles since last refreshed
}

// memoryMaxAge is how many cycles an unrefreshed memory entry survives
// before BeginCycle prunes it: stale placements on a drifted cluster
// only waste warm-start LP evaluations.
const memoryMaxAge = 8

// memoryMaxBranched caps the branch-order names remembered per
// application; replay only needs the top of the tree.
const memoryMaxBranched = 16

// semSName and semYName build cycle-independent variable names. Model
// variable indices shift between cycles as batch composition changes;
// semantic names — "S/<appID>" and "Y/<appID>/<group>/<node>" — do not,
// so memory recorded against one cycle's model maps onto the next one's.
func semSName(appID string) string { return "S/" + appID }

func semYName(appID, group string, n cluster.NodeID) string {
	return "Y/" + appID + "/" + group + "/" + strconv.FormatInt(int64(n), 10)
}

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

// mgroup is one container group of the batch in model form.
type mgroup struct {
	appIdx int
	name   string
	count  int
	demand resource.Vector
	tags   []constraint.Tag
}

// atomInst is a flattened constraint atom with provenance.
type atomInst struct {
	atom    constraint.Atom
	weight  float64
	consIdx int // index of the owning constraint in the flattened list
	termIdx int // DNF term within that constraint
}

// Place implements Algorithm.
func (s *ilpScheduler) Place(state *cluster.Cluster, apps []*Application, active []constraint.Entry, opts Options) *Result {
	clk := opts.clock()
	start := clk()
	if len(apps) == 0 {
		return &Result{Latency: clk().Sub(start)}
	}
	cons := flattenConstraints(apps, active)
	w := opts.weights()

	// Snapshot the batch apps' cross-cycle memory. Entries are only ever
	// read and written by the sub-batch owning their application, so the
	// pointers stay safe to use outside the lock.
	var mems map[string]*appMemory
	if !opts.DisableCycleWarm {
		s.mu.Lock()
		mems = make(map[string]*appMemory, len(apps))
		for _, app := range apps {
			if mem := s.memory[app.ID]; mem != nil {
				mems[app.ID] = mem
			}
		}
		s.mu.Unlock()
	}

	var groups []mgroup
	for ai, app := range apps {
		for _, g := range app.Groups {
			groups = append(groups, mgroup{
				appIdx: ai, name: g.Name, count: g.Count,
				demand: g.Demand, tags: app.EffectiveTags(g),
			})
		}
	}
	totalContainers := 0
	for _, g := range groups {
		totalContainers += g.count
	}

	var atoms []atomInst
	for ci, e := range cons {
		for ti, term := range e.Constraint.Terms {
			for _, a := range term {
				atoms = append(atoms, atomInst{
					atom: a, weight: e.Constraint.EffectiveWeight(), consIdx: ci, termIdx: ti,
				})
			}
		}
	}

	// Warm start: run the greedy fallback first and seed the solver with
	// its placement as the initial incumbent. Branch-and-bound then only
	// ever improves on the heuristic within the time budget, combining
	// the heuristics' latency with the ILP's placement quality (§5.3).
	fb, fbScore := s.fallback.placeBest(state, apps, cons, opts)
	warmCounts := make([]map[cluster.NodeID]int, len(groups))
	type groupKey struct {
		app   int
		group string
	}
	giOf := make(map[groupKey]int, len(groups))
	warmOK := true
	for gi := range groups {
		warmCounts[gi] = map[cluster.NodeID]int{}
		key := groupKey{groups[gi].appIdx, groups[gi].name}
		if _, dup := giOf[key]; dup {
			warmOK = false // ambiguous duplicate group names
		}
		giOf[key] = gi
	}
	fbPlaced := make([]bool, len(apps))
	for ai, p := range fb.Placements {
		fbPlaced[ai] = p.Placed
		for _, asg := range p.Assignments {
			gi, ok := giOf[groupKey{ai, asg.Group}]
			if !ok {
				warmOK = false
				break
			}
			warmCounts[gi][asg.Node]++
		}
	}

	cands := selectCandidates(state, cons, groups, totalContainers, opts)
	// Ensure every node the greedy used is a candidate, so the warm
	// solution is expressible in the model.
	if warmOK {
		for gi := range groups {
			selected := cands[gi] // sorted by selectCandidates
			for n := range warmCounts[gi] {
				if _, have := slices.BinarySearch(selected, n); !have {
					cands[gi] = append(cands[gi], n)
				}
			}
			slices.Sort(cands[gi])
		}
	}
	// Union of candidate nodes, sorted for determinism.
	unionSet := map[cluster.NodeID]bool{}
	for _, cn := range cands {
		for _, n := range cn {
			unionSet[n] = true
		}
	}
	union := make([]cluster.NodeID, 0, len(unionSet))
	for n := range unionSet {
		union = append(union, n)
	}
	sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })

	m := ilp.NewModel(ilp.Maximize)

	// S_i: all-or-nothing indicator per LRA (Table 2).
	S := make([]ilp.Var, len(apps))
	for i := range apps {
		S[i] = m.Binary(fmt.Sprintf("S_%d", i))
		m.SetObjective(S[i], w.W1/float64(len(apps)))
	}

	// Y_gn: containers of group g on node n.
	Y := make([]map[cluster.NodeID]ilp.Var, len(groups))
	for gi, g := range groups {
		Y[gi] = make(map[cluster.NodeID]ilp.Var, len(cands[gi]))
		for _, n := range cands[gi] {
			free := state.Node(n).Free()
			ub := int64(g.count)
			if g.demand.MemoryMB > 0 {
				ub = min(ub, free.MemoryMB/g.demand.MemoryMB)
			}
			if g.demand.VCores > 0 {
				ub = min(ub, free.VCores/g.demand.VCores)
			}
			if ub <= 0 {
				continue
			}
			Y[gi][n] = m.Int(fmt.Sprintf("Y_%d_%d", gi, n), 0, float64(ub))
		}
	}

	// Semantic variable names, both directions: varOf maps a remembered
	// name onto this cycle's model, semOf/ownerOf translate this cycle's
	// branch record back into names for the next one.
	varOf := make(map[string]ilp.Var, len(apps)+4*len(groups))
	semOf := make(map[ilp.Var]string, len(apps)+4*len(groups))
	ownerOf := make(map[ilp.Var]int, len(apps)+4*len(groups))
	for ai, app := range apps {
		name := semSName(app.ID)
		varOf[name], semOf[S[ai]], ownerOf[S[ai]] = S[ai], name, ai
	}
	for gi, g := range groups {
		for n, v := range Y[gi] {
			name := semYName(apps[g.appIdx].ID, g.name, n)
			varOf[name], semOf[v], ownerOf[v] = v, name, g.appIdx
		}
	}

	// Equations 2+4 (symmetry-reduced): Σ_n Y_gn = T_g · S_i.
	for gi, g := range groups {
		terms := []ilp.Term{ilp.T(-float64(g.count), S[g.appIdx])}
		for _, v := range Y[gi] {
			terms = append(terms, ilp.T(1, v))
		}
		m.AddEQ(fmt.Sprintf("gang_%d", gi), 0, terms...)
	}

	// Equation 3: node capacities, one row per resource dimension.
	for _, n := range union {
		free := state.Node(n).Free()
		var memT, cpuT []ilp.Term
		for gi, g := range groups {
			if v, ok := Y[gi][n]; ok {
				memT = append(memT, ilp.T(float64(g.demand.MemoryMB), v))
				cpuT = append(cpuT, ilp.T(float64(g.demand.VCores), v))
			}
		}
		if len(memT) > 0 {
			m.AddLE(fmt.Sprintf("mem_%d", n), float64(free.MemoryMB), memT...)
			m.AddLE(fmt.Sprintf("cpu_%d", n), float64(free.VCores), cpuT...)
		}
	}

	// Equation 5: fragmentation indicators z_n, relaxed to [0,1] with the
	// row r_min·z_n + Σ demand·Y ≤ free (r_min is the §7.4 threshold). A node keeps full credit (z=1)
	// as long as ≥ r_min stays free after placement — exactly the paper's
	// binary semantics in that regime — and the credit decays linearly
	// only inside the fragmentation band, so the relaxation exerts no
	// spurious packing pressure on comfortable nodes.
	rmin := float64(cluster.FragmentationThreshold.Scalar())
	for _, n := range union {
		free := float64(state.Node(n).Free().Scalar())
		if free <= 0 {
			continue
		}
		z := m.Float(fmt.Sprintf("z_%d", n), 0, 1)
		m.SetObjective(z, w.W3/float64(len(union)))
		terms := []ilp.Term{ilp.T(rmin, z)}
		for gi, g := range groups {
			if v, ok := Y[gi][n]; ok {
				terms = append(terms, ilp.T(float64(g.demand.Scalar()), v))
			}
		}
		m.AddLE(fmt.Sprintf("frag_%d", n), free, terms...)
	}

	// Optional load-balance component (§2.4, §5.2): reward per-node
	// headroom with a small weight so the solver breaks ties toward
	// balanced placements that keep future cycles feasible.
	if w4 := w.balanceWeight(); w4 > 0 {
		for _, n := range union {
			free := float64(state.Node(n).Free().Scalar())
			capScalar := float64(state.Node(n).Capacity.Scalar())
			if free <= 0 || capScalar <= 0 {
				continue
			}
			h := m.Float(fmt.Sprintf("h_%d", n), 0, 1)
			m.SetObjective(h, w4/float64(len(union)))
			terms := []ilp.Term{ilp.T(capScalar, h)}
			for gi, g := range groups {
				if v, ok := Y[gi][n]; ok {
					terms = append(terms, ilp.T(float64(g.demand.Scalar()), v))
				}
			}
			// cap·h + Σ demand·Y ≤ free, i.e. h ≤ headroom fraction.
			m.AddLE(fmt.Sprintf("bal_%d", n), free, terms...)
		}
	}

	// Activation binaries A[g][group][set]: group g has ≥1 container in
	// that node set. Shared across all atoms needing the same indicator.
	type actKey struct {
		gi    int
		group constraint.GroupName
		set   cluster.SetID
	}
	activations := map[actKey]ilp.Var{}
	activation := func(gi int, gn constraint.GroupName, sid cluster.SetID) (ilp.Var, bool) {
		k := actKey{gi, gn, sid}
		if v, ok := activations[k]; ok {
			return v, true
		}
		// Collect the group's candidate nodes inside the set.
		var terms []ilp.Term
		for _, n := range setMembersIn(state, gn, sid, Y[gi]) {
			terms = append(terms, ilp.T(1, Y[gi][n]))
		}
		if len(terms) == 0 {
			return 0, false // group cannot reach this set
		}
		v := m.Binary(fmt.Sprintf("A_%d_%s_%d", gi, gn, sid))
		terms = append(terms, ilp.T(-float64(groups[gi].count), v))
		m.AddLE(fmt.Sprintf("act_%d_%s_%d", gi, gn, sid), 0, terms...)
		activations[k] = v
		return v, true
	}

	// DNF term-selection binaries: for compound constraints, exactly one
	// term binds (§5.2 "Compound constraints").
	termSel := map[[2]int]ilp.Var{}
	for ci, e := range cons {
		if len(e.Constraint.Terms) <= 1 {
			continue
		}
		var terms []ilp.Term
		for ti := range e.Constraint.Terms {
			u := m.Binary(fmt.Sprintf("U_%d_%d", ci, ti))
			termSel[[2]int{ci, ti}] = u
			terms = append(terms, ilp.T(1, u))
		}
		m.AddEQ(fmt.Sprintf("dnf_%d", ci), 1, terms...)
	}

	// Equations 6–8: cardinality rows with violation slacks. Equation 1
	// normalises the violation component by m, the number of constraints
	// (Table 2), and Equation 8 defines ONE extent v_lc per constraint.
	// The model materialises a slack per (constraint, node set) instance,
	// so each slack's objective coefficient is further divided by the
	// constraint's instance count — the sum then plays the role of v_lc
	// and one constraint can never outweigh the w1 placement reward on
	// sheer instance count.
	mCons := max(1, len(atoms))
	type slackRef struct {
		v       ilp.Var
		atomIdx int
		weight  float64
		bound   int
	}
	var slackRefs []slackRef
	curAtom := 0
	addSlackObj := func(v ilp.Var, weight float64, bound int) {
		slackRefs = append(slackRefs, slackRef{v: v, atomIdx: curAtom, weight: weight, bound: bound})
	}

	newTargetTerms := func(gn constraint.GroupName, sid cluster.SetID, target constraint.Expr) []ilp.Term {
		var terms []ilp.Term
		for gi, g := range groups {
			if !target.Matches(g.tags) {
				continue
			}
			for _, n := range setMembersIn(state, gn, sid, Y[gi]) {
				terms = append(terms, ilp.T(1, Y[gi][n]))
			}
		}
		return terms
	}

	for aiIdx, inst := range atoms {
		curAtom = aiIdx
		a := inst.atom
		numSets := state.NumSets(a.Group)
		if numSets == 0 {
			continue // unknown group: treat as trivially unconstrained here
		}
		bigM := float64(totalContainers + a.Min + 64)
		relaxTermLE, relaxTermGE := []ilp.Term(nil), []ilp.Term(nil)
		relaxConstLE, relaxConstGE := 0.0, 0.0
		if u, ok := termSel[[2]int{inst.consIdx, inst.termIdx}]; ok {
			// Non-selected DNF terms are relaxed by big-M.
			relaxTermLE = []ilp.Term{ilp.T(bigM, u)}
			relaxConstLE = bigM
			relaxTermGE = []ilp.Term{ilp.T(-bigM, u)}
			relaxConstGE = -bigM
		}

		// Self-covered max-cardinality atoms (the common "≤K workers per
		// node" template: subject == target, cmin == 0) need no activation
		// binaries: γ_other = total−1 ≤ cmax is vacuous (−1 ≤ cmax) when
		// no subject is present, so the row can bind unconditionally. This
		// removes the largest binary family from the model.
		if a.SelfTargeting() && a.Min == 0 && a.Max != constraint.Unbounded {
			for sid := cluster.SetID(0); int(sid) < numSets; sid++ {
				tgtTerms := newTargetTerms(a.Group, sid, a.Target)
				if len(tgtTerms) == 0 {
					continue
				}
				existing := state.Gamma(a.Group, sid, a.Target)
				vmax := m.Float(fmt.Sprintf("svmax_%d_%d", aiIdx, sid), 0, ilp.Infinity)
				addSlackObj(vmax, inst.weight, a.Max)
				terms := append([]ilp.Term{ilp.T(-1, vmax)}, tgtTerms...)
				terms = append(terms, relaxTermLE...)
				m.AddLE(fmt.Sprintf("scmax_%d_%d", aiIdx, sid),
					float64(a.Max-existing+1)+relaxConstLE, terms...)
			}
			continue
		}

		for sid := cluster.SetID(0); int(sid) < numSets; sid++ {
			existing := state.Gamma(a.Group, sid, a.Target)
			tgtTerms := newTargetTerms(a.Group, sid, a.Target)

			// (a) Newly submitted subjects: per subject-matching group with
			// candidates in this set, conditional on its activation.
			for gi, g := range groups {
				if !a.Subject.Matches(g.tags) {
					continue
				}
				act, reachable := activation(gi, a.Group, sid)
				if !reachable {
					continue
				}
				selfAdj := 0
				if a.Target.Matches(g.tags) {
					selfAdj = 1
				}
				if a.Min > 0 {
					vmin := m.Float(fmt.Sprintf("vmin_%d_%d_%d", aiIdx, gi, sid), 0, ilp.Infinity)
					addSlackObj(vmin, inst.weight, a.Min)
					terms := append([]ilp.Term{ilp.T(1, vmin), ilp.T(-bigM, act)}, tgtTerms...)
					terms = append(terms, relaxTermGE...)
					rhs := float64(a.Min-existing+selfAdj) - bigM + relaxConstGE
					m.AddGE(fmt.Sprintf("cmin_%d_%d_%d", aiIdx, gi, sid), rhs, terms...)
				}
				if a.Max != constraint.Unbounded {
					vmax := m.Float(fmt.Sprintf("vmax_%d_%d_%d", aiIdx, gi, sid), 0, ilp.Infinity)
					addSlackObj(vmax, inst.weight, a.Max)
					terms := append([]ilp.Term{ilp.T(-1, vmax), ilp.T(bigM, act)}, tgtTerms...)
					terms = append(terms, relaxTermLE...)
					rhs := float64(a.Max-existing+selfAdj) + bigM + relaxConstLE
					m.AddLE(fmt.Sprintf("cmax_%d_%d_%d", aiIdx, gi, sid), rhs, terms...)
				}
			}

			// (b) Already-deployed subjects in this set: their γ changes
			// when new target containers land here (constraints of
			// previously deployed LRAs must keep holding, §5.1).
			if len(tgtTerms) == 0 {
				continue // placements cannot change γ here
			}
			nSubj := state.Gamma(a.Group, sid, a.Subject)
			if nSubj == 0 {
				continue
			}
			both := append(append(constraint.Expr{}, a.Subject...), a.Target...)
			nBoth := state.Gamma(a.Group, sid, both)
			if a.Min > 0 {
				selfAdj := 0
				if nBoth > 0 {
					selfAdj = 1 // tightest: a subject that matches the target
				}
				vmin := m.Float(fmt.Sprintf("evmin_%d_%d", aiIdx, sid), 0, ilp.Infinity)
				addSlackObj(vmin, inst.weight, a.Min)
				terms := append([]ilp.Term{ilp.T(1, vmin)}, tgtTerms...)
				terms = append(terms, relaxTermGE...)
				m.AddGE(fmt.Sprintf("ecmin_%d_%d", aiIdx, sid),
					float64(a.Min-existing+selfAdj)+relaxConstGE, terms...)
			}
			if a.Max != constraint.Unbounded {
				selfAdj := 1
				if nSubj-nBoth > 0 {
					selfAdj = 0 // tightest: a subject not matching the target
				}
				vmax := m.Float(fmt.Sprintf("evmax_%d_%d", aiIdx, sid), 0, ilp.Infinity)
				addSlackObj(vmax, inst.weight, a.Max)
				terms := append([]ilp.Term{ilp.T(-1, vmax)}, tgtTerms...)
				terms = append(terms, relaxTermLE...)
				m.AddLE(fmt.Sprintf("ecmax_%d_%d", aiIdx, sid),
					float64(a.Max-existing+selfAdj)+relaxConstLE, terms...)
			}
		}
	}
	perAtom := map[int]int{}
	for _, r := range slackRefs {
		perAtom[r.atomIdx]++
	}
	for _, r := range slackRefs {
		inst := float64(max(1, perAtom[r.atomIdx]))
		m.AddObjective(r.v, -w.W2*r.weight/(float64(mCons)*float64(max(1, r.bound))*inst))
	}

	// Assemble the warm-start values for every integer variable.
	var warm map[ilp.Var]float64
	if warmOK {
		warm = make(map[ilp.Var]float64)
		for ai := range apps {
			warm[S[ai]] = float64(b2f(fbPlaced[ai]))
		}
		for gi := range groups {
			for n, v := range Y[gi] {
				warm[v] = float64(warmCounts[gi][n])
			}
		}
		for k, v := range activations {
			sum := 0
			for _, n := range state.SetMembers(k.group, k.set) {
				sum += warmCounts[k.gi][n]
			}
			warm[v] = float64(b2f(sum > 0))
		}
		for key, u := range termSel {
			warm[u] = float64(b2f(key[1] == 0)) // bind the first DNF term
		}
	}

	// Cross-cycle warm start: replay each remembered application's last
	// placement as a second incumbent candidate next to the greedy one,
	// and its recorded branch order as the branching priority. Apps whose
	// remembered nodes are no longer candidates (or whose counts no
	// longer add up to the gang size) are marked unplaced in the replay —
	// the candidate stays well-formed and the solver simply re-derives
	// their placement. An infeasible replay (cluster drifted) is rejected
	// by the solver's warm evaluation, never committed.
	var cycleWarm map[ilp.Var]float64
	var branchPrio []ilp.Var
	if len(mems) > 0 {
		usable := make([]bool, len(apps))
		for ai, app := range apps {
			mem := mems[app.ID]
			usable[ai] = mem != nil && mem.placed
		}
		for gi, g := range groups {
			if !usable[g.appIdx] {
				continue
			}
			total := 0
			for n, c := range mems[apps[g.appIdx].ID].counts[g.name] {
				if _, ok := Y[gi][n]; !ok && c > 0 {
					usable[g.appIdx] = false
					break
				}
				total += c
			}
			if total != g.count {
				usable[g.appIdx] = false
			}
		}
		cycleWarm = make(map[ilp.Var]float64, len(warm))
		for ai := range apps {
			cycleWarm[S[ai]] = float64(b2f(usable[ai]))
		}
		memCount := func(gi int, n cluster.NodeID) int {
			g := groups[gi]
			if !usable[g.appIdx] {
				return 0
			}
			return mems[apps[g.appIdx].ID].counts[g.name][n]
		}
		for gi := range groups {
			for n, v := range Y[gi] {
				cycleWarm[v] = float64(memCount(gi, n))
			}
		}
		for k, v := range activations {
			sum := 0
			for _, n := range state.SetMembers(k.group, k.set) {
				sum += memCount(k.gi, n)
			}
			cycleWarm[v] = float64(b2f(sum > 0))
		}
		for key, u := range termSel {
			cycleWarm[u] = float64(b2f(key[1] == 0))
		}
		// Branch priority: the remembered branch orders, app by app in
		// submission order. Names that no longer resolve are dropped.
		for _, app := range apps {
			mem := mems[app.ID]
			if mem == nil {
				continue
			}
			for _, name := range mem.branched {
				if v, ok := varOf[name]; ok {
					branchPrio = append(branchPrio, v)
				}
			}
		}
	}

	// A defective constraint set can produce a malformed model (inverted
	// bounds, dangling variables). Check before solving and degrade to the
	// greedy placement instead of crashing the scheduler.
	if err := m.Check(); err != nil {
		if debugILP {
			fmt.Printf("[ilp] model check failed: %v\n", err)
		}
		fb.Latency = clk().Sub(start)
		fb.Invalid = true
		return fb
	}

	arena := s.checkoutArena()
	defer s.returnArena(arena)
	solveOpts := ilp.Options{
		Deadline:       start.Add(opts.solverBudget()),
		RelGap:         0.01,
		WarmStarts:     []map[ilp.Var]float64{warm, cycleWarm},
		BranchPriority: branchPrio,
		Clock:          opts.Clock,
		Arena:          arena,
		Mode:           opts.SolverMode,
	}
	sol := m.Solve(solveOpts)
	// recordSolve stamps the outcome's solve-path counters: which path
	// ran and whether a warm start seeded the incumbent.
	recordSolve := func(r *Result) {
		if sol.Approximate {
			r.ApproxSolves++
		} else {
			r.ExactSolves++
		}
		if sol.WarmUsed {
			r.WarmStarts++
		}
	}
	if debugILP {
		fmt.Printf("[ilp] vars=%d cons=%d status=%v nodes=%d obj=%.4f warm=%v fallback=%.6f\n",
			m.NumVars(), m.NumConstraints(), sol.Status, sol.Nodes, sol.Objective, sol.WarmUsed, fbScore)
	}
	if sol.Status != ilp.Optimal && sol.Status != ilp.Feasible {
		// No incumbent within budget: degrade gracefully to the greedy
		// placement rather than dropping the batch.
		fb.Latency = clk().Sub(start)
		fb.DeadlineHit = sol.DeadlineHit
		fb.Exhausted = sol.DeadlineHit
		fb.Invalid = sol.Status == ilp.Invalid
		recordSolve(fb)
		if !opts.DisableCycleWarm {
			s.recordMemory(apps, fb, sol, semOf, ownerOf)
		}
		return fb
	}

	res, work := decodeSolution(state, apps, sol, S, Y)

	// Final selection: compare the solver's placement with the greedy
	// warm placement under the *actual* evaluation metric (placed apps,
	// then total violation extent on the resulting state). The model's
	// relaxations (continuous z/h, per-set slack aggregation) can make
	// its objective diverge slightly from the true metric; committing
	// whichever placement evaluates better closes that gap and makes
	// Medea-ILP never worse than its own heuristics (§5.3). The fallback's
	// score came with it; the solver's placement is scored on the scratch
	// copy the decode left it on, unless it is the fallback's own, which
	// ties and keeps the fallback.
	final := res
	if sameNodes(res, fb) || fbScore >= placementScore(work, cons, res) {
		final = fb
	}
	final.Latency = clk().Sub(start)
	final.DeadlineHit = sol.DeadlineHit
	recordSolve(final)
	if !opts.DisableCycleWarm {
		// Remember what actually committed: the chosen result's placement
		// plus the solve's branch order, keyed by application.
		s.recordMemory(apps, final, sol, semOf, ownerOf)
	}
	return final
}

// decodeSolution turns the solver's S and Y values into concrete
// assignments, verifying capacities on a scratch copy of state: an
// application whose containers do not all fit there is rolled back and
// reported unplaced. It returns the result and the scratch copy, which
// holds exactly the placed applications on top of state.
func decodeSolution(state *cluster.Cluster, apps []*Application, sol *ilp.Solution, S []ilp.Var, Y []map[cluster.NodeID]ilp.Var) (*Result, *cluster.Cluster) {
	work := state.Clone()
	res := &Result{}
	reqs := buildRequests(apps)
	gi := 0
	placements := make([]Placement, len(apps))
	for ai, app := range apps {
		placements[ai] = Placement{AppID: app.ID, Placed: sol.IntValue(S[ai]) == 1}
	}
	for ai, app := range apps {
		next := 0
		ok := placements[ai].Placed
		var assigned []Assignment
		for range app.Groups {
			if !ok {
				gi++
				continue
			}
			nodes := make([]cluster.NodeID, 0, len(Y[gi]))
			for n := range Y[gi] {
				nodes = append(nodes, n)
			}
			sort.Slice(nodes, func(x, y int) bool { return nodes[x] < nodes[y] })
			for _, n := range nodes {
				cnt := sol.IntValue(Y[gi][n])
				for k := 0; k < cnt && next < len(reqs[ai]); k++ {
					r := reqs[ai][next]
					next++
					if err := work.Allocate(n, r.id, r.demand, r.tags); err != nil {
						ok = false
						break
					}
					assigned = append(assigned, Assignment{
						Container: r.id, Group: r.group, Node: n, Demand: r.demand, Tags: r.tags,
					})
				}
			}
			gi++
		}
		if ok && next == app.NumContainers() {
			placements[ai].Assignments = assigned
		} else {
			placements[ai].Placed = false
			for _, a := range assigned {
				_ = work.Release(a.Container)
			}
		}
	}
	res.Placements = placements
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

// recordMemory refreshes the cross-cycle memory from one finished solve:
// each batch application's placement (as per-group node counts) and its
// share of the recorded branch order, in semantic names that survive
// model re-numbering. Applications in concurrent sub-batches are
// disjoint, so entries are never written by two solves at once.
func (s *ilpScheduler) recordMemory(apps []*Application, final *Result, sol *ilp.Solution, semOf map[ilp.Var]string, ownerOf map[ilp.Var]int) {
	branchedOf := make(map[string][]string)
	for _, v := range sol.Branched {
		name, ok := semOf[v]
		if !ok {
			continue // activation/DNF binaries: batch-local, not replayable
		}
		id := apps[ownerOf[v]].ID
		if len(branchedOf[id]) < memoryMaxBranched {
			branchedOf[id] = append(branchedOf[id], name)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.memory == nil {
		s.memory = map[string]*appMemory{}
	}
	for ai, app := range apps {
		if ai >= len(final.Placements) {
			break
		}
		p := final.Placements[ai]
		mem := &appMemory{placed: p.Placed, branched: branchedOf[app.ID]}
		if len(p.Assignments) > 0 {
			mem.counts = make(map[string]map[cluster.NodeID]int)
			for _, asg := range p.Assignments {
				c := mem.counts[asg.Group]
				if c == nil {
					c = map[cluster.NodeID]int{}
					mem.counts[asg.Group] = c
				}
				c[asg.Node]++
			}
		}
		s.memory[app.ID] = mem
	}
}

// setMembersIn returns the members of a node set that have a Y variable
// for the group, sorted.
func setMembersIn(state *cluster.Cluster, gn constraint.GroupName, sid cluster.SetID, y map[cluster.NodeID]ilp.Var) []cluster.NodeID {
	var out []cluster.NodeID
	for _, n := range state.SetMembers(gn, sid) {
		if _, ok := y[n]; ok {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// selectCandidates picks, per group, a bounded set of candidate nodes:
// feasible nodes are bucketed into equivalence classes (identical free
// resources, group memberships and violation score), classes are ranked by
// (violation delta, free space), and representatives are drawn round-robin
// across classes so rack/domain diversity is preserved.
func selectCandidates(state *cluster.Cluster, cons []constraint.Entry, groups []mgroup, totalContainers int, opts Options) [][]cluster.NodeID {
	budgetPer := opts.MaxCandidates
	out := make([][]cluster.NodeID, len(groups))
	groupNames := state.Groups()
	var key []byte // class key of the node being bucketed, reused
	for gi, g := range groups {
		budget := budgetPer
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
			sort.Slice(cl.nodes, func(i, j int) bool { return cl.nodes[i] < cl.nodes[j] })
			ordered = append(ordered, cl)
		}
		sort.Slice(ordered, func(i, j int) bool {
			if ordered[i].delta != ordered[j].delta {
				return ordered[i].delta < ordered[j].delta
			}
			if ordered[i].free != ordered[j].free {
				return ordered[i].free > ordered[j].free
			}
			return ordered[i].nodes[0] < ordered[j].nodes[0]
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
		sort.Slice(sel, func(i, j int) bool { return sel[i] < sel[j] })
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
