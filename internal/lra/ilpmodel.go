package lra

import (
	"fmt"
	"slices"
	"strconv"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/ilp"
	"medea/internal/resource"
)

// mgroup is one container group of the batch in model form.
type mgroup struct {
	appIdx int
	name   string
	count  int
	demand resource.Vector
	tags   []constraint.Tag
}

// batchGroups lists the container groups of a batch in model order:
// application by application, group by group.
func batchGroups(apps []*Application) []mgroup {
	var groups []mgroup
	for ai, app := range apps {
		for _, g := range app.Groups {
			groups = append(groups, mgroup{
				appIdx: ai, name: g.Name, count: g.Count,
				demand: g.Demand, tags: app.EffectiveTags(g),
			})
		}
	}
	return groups
}

// atomInst is a flattened constraint atom with provenance.
type atomInst struct {
	atom    constraint.Atom
	weight  float64
	consIdx int // index of the owning constraint in the flattened list
	termIdx int // DNF term within that constraint
}

// actKey names an activation binary A[g][group][set]: group g has ≥1
// container in that node set. Shared across all atoms needing the same
// indicator.
type actKey struct {
	gi    int
	group constraint.GroupName
	set   cluster.SetID
}

// slackRef is one violation slack, with what its objective coefficient
// is computed from once every slack of its atom is known.
type slackRef struct {
	v       ilp.Var
	atomIdx int
	weight  float64
	bound   int
}

// semVar names an S or Y variable independently of the cycle. Model
// variable indices shift between cycles as batch composition changes;
// (application, group, node) — and the application alone for its S —
// does not, so memory recorded against one cycle's model maps onto the
// next one's.
type semVar struct {
	app   string
	group string
	node  cluster.NodeID // -1 for S
}

// noVar stands for "no such variable" where a row takes an optional one.
const noVar = ilp.Var(-1)

// placementModel is the Figure-5 model of one batch over its candidate
// nodes, with the handles a caller needs to seed it and to read a
// solution back: S per application, Y per group and candidate node, the
// activation and DNF term-selection binaries, the violation slacks, and
// the semantic names of S and Y in both directions (varOf maps a
// remembered name onto this model, semOf translates this model's branch
// record into names for the next one).
type placementModel struct {
	m       *ilp.Model
	S       []ilp.Var
	Y       []map[cluster.NodeID]ilp.Var
	acts    map[actKey]ilp.Var
	termSel map[[2]int]ilp.Var // (constraint, DNF term) -> U
	slacks  []slackRef
	varOf   map[semVar]ilp.Var
	semOf   map[ilp.Var]semVar

	// What the row emitters read.
	state  *cluster.Cluster
	groups []mgroup
}

// buildModel formulates the Figure-5 program for apps over cands, the
// sorted candidate nodes of each group of groups (batchGroups(apps)),
// under the flattened constraint list cons. It is a function of its
// arguments alone: no heuristic runs, no clock or environment is read.
// Variable and row order are part of the result — the solver's dive and
// tie-breaks follow them — and go S, Y, gang, capacity, fragmentation,
// balance, DNF selectors, then per atom and node set the activations and
// cardinality rows.
func buildModel(state *cluster.Cluster, apps []*Application, cons []constraint.Entry, groups []mgroup, cands [][]cluster.NodeID, w Weights) *placementModel {
	pm := &placementModel{
		m: ilp.NewModel(ilp.Maximize), state: state, groups: groups,
		acts: map[actKey]ilp.Var{}, termSel: map[[2]int]ilp.Var{},
		varOf: make(map[semVar]ilp.Var, len(apps)+4*len(groups)),
		semOf: make(map[ilp.Var]semVar, len(apps)+4*len(groups)),
	}
	m := pm.m
	name := func(v ilp.Var, sem semVar) { pm.varOf[sem], pm.semOf[v] = v, sem }

	// S_i: all-or-nothing indicator per LRA (Table 2).
	pm.S = make([]ilp.Var, len(apps))
	for i, app := range apps {
		pm.S[i] = m.Binary(fmt.Sprintf("S_%d", i))
		m.SetObjective(pm.S[i], w.W1/float64(len(apps)))
		name(pm.S[i], semVar{app: app.ID, node: -1})
	}

	// Y_gn: containers of group g on node n, at most what fits there.
	pm.Y = make([]map[cluster.NodeID]ilp.Var, len(groups))
	totalContainers := 0
	for gi, g := range groups {
		totalContainers += g.count
		pm.Y[gi] = make(map[cluster.NodeID]ilp.Var, len(cands[gi]))
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
			pm.Y[gi][n] = m.Int(fmt.Sprintf("Y_%d_%d", gi, n), 0, float64(ub))
			name(pm.Y[gi][n], semVar{apps[g.appIdx].ID, g.name, n})
		}
	}

	// Equations 2+4 (symmetry-reduced): Σ_n Y_gn = T_g · S_i.
	for gi, g := range groups {
		terms := []ilp.Term{ilp.T(-float64(g.count), pm.S[g.appIdx])}
		for _, n := range cands[gi] {
			if v, ok := pm.Y[gi][n]; ok {
				terms = append(terms, ilp.T(1, v))
			}
		}
		m.AddEQ(fmt.Sprintf("gang_%d", gi), 0, terms...)
	}

	// Union of candidate nodes, sorted for determinism.
	var union []cluster.NodeID
	for _, cn := range cands {
		union = append(union, cn...)
	}
	slices.Sort(union)
	union = slices.Compact(union)

	// Equation 3: node capacities, one row per resource dimension.
	for _, n := range union {
		free := state.Node(n).Free()
		if memT := pm.demandTerms(n, nil, func(d resource.Vector) int64 { return d.MemoryMB }); len(memT) > 0 {
			m.AddLE(fmt.Sprintf("mem_%d", n), float64(free.MemoryMB), memT...)
			m.AddLE(fmt.Sprintf("cpu_%d", n), float64(free.VCores),
				pm.demandTerms(n, nil, func(d resource.Vector) int64 { return d.VCores })...)
		}
	}

	// Equation 5: fragmentation indicators z_n, relaxed to [0,1] with the
	// row r_min·z_n + Σ demand·Y ≤ free (r_min is the §7.4 threshold). A
	// node keeps full credit (z=1) as long as ≥ r_min stays free after
	// placement — exactly the paper's binary semantics in that regime —
	// and the credit decays linearly only inside the fragmentation band,
	// so the relaxation exerts no spurious packing pressure on
	// comfortable nodes.
	rmin := float64(cluster.FragmentationThreshold.Scalar())
	pm.headroomRows(union, "z", "frag", w.W3, func(*cluster.Node) float64 { return rmin })

	// Optional load-balance component (§2.4, §5.2): reward per-node
	// headroom with a small weight so the solver breaks ties toward
	// balanced placements that keep future cycles feasible. The row is
	// cap·h + Σ demand·Y ≤ free, i.e. h ≤ headroom fraction.
	if w.W4 > 0 {
		pm.headroomRows(union, "h", "bal", w.W4, func(n *cluster.Node) float64 { return float64(n.Capacity.Scalar()) })
	}

	// DNF term-selection binaries: for compound constraints, exactly one
	// term binds (§5.2 "Compound constraints").
	var atoms []atomInst
	for ci, e := range cons {
		var sel []ilp.Term
		for ti, term := range e.Constraint.Terms {
			for _, a := range term {
				atoms = append(atoms, atomInst{atom: a, weight: e.Constraint.EffectiveWeight(), consIdx: ci, termIdx: ti})
			}
			if len(e.Constraint.Terms) > 1 {
				u := m.Binary(fmt.Sprintf("U_%d_%d", ci, ti))
				pm.termSel[[2]int{ci, ti}] = u
				sel = append(sel, ilp.T(1, u))
			}
		}
		if len(sel) > 0 {
			m.AddEQ(fmt.Sprintf("dnf_%d", ci), 1, sel...)
		}
	}

	for idx, inst := range atoms {
		pm.cardinalityRows(idx, inst, float64(totalContainers+inst.atom.Min+64))
	}

	// Equation 1 normalises the violation component by m, the number of
	// constraints (Table 2), and Equation 8 defines ONE extent v_lc per
	// constraint. The model materialises a slack per (constraint, node
	// set) instance, so each slack's objective coefficient is further
	// divided by the constraint's instance count — the sum then plays the
	// role of v_lc and one constraint can never outweigh the w1 placement
	// reward on sheer instance count.
	mCons := float64(max(1, len(atoms)))
	perAtom := map[int]int{}
	for _, r := range pm.slacks {
		perAtom[r.atomIdx]++
	}
	for _, r := range pm.slacks {
		m.AddObjective(r.v, -w.W2*r.weight/(mCons*float64(max(1, r.bound))*float64(perAtom[r.atomIdx])))
	}
	return pm
}

// demandTerms returns lead followed by dim(demand_g)·Y_gn for every group
// with a variable on node n: the Σ demand·Y that the capacity,
// fragmentation and balance rows of a node share.
func (pm *placementModel) demandTerms(n cluster.NodeID, lead []ilp.Term, dim func(resource.Vector) int64) []ilp.Term {
	for gi, g := range pm.groups {
		if v, ok := pm.Y[gi][n]; ok {
			lead = append(lead, ilp.T(float64(dim(g.demand)), v))
		}
	}
	return lead
}

// headroomRows gives every node of union that has free space a [0,1]
// credit variable worth weight/|union| in the objective, bounded by the
// row scale(n)·credit + Σ demand·Y ≤ free: the credit is what the
// placement leaves of the node's free space, in units of scale(n).
func (pm *placementModel) headroomRows(union []cluster.NodeID, varPrefix, rowPrefix string, weight float64, scale func(*cluster.Node) float64) {
	for _, n := range union {
		node := pm.state.Node(n)
		free, per := float64(node.Free().Scalar()), scale(node)
		if free <= 0 || per <= 0 {
			continue
		}
		credit := pm.m.Float(fmt.Sprintf("%s_%d", varPrefix, n), 0, 1)
		pm.m.SetObjective(credit, weight/float64(len(union)))
		pm.m.AddLE(fmt.Sprintf("%s_%d", rowPrefix, n), free,
			pm.demandTerms(n, []ilp.Term{ilp.T(per, credit)}, resource.Vector.Scalar)...)
	}
}

// candidatesIn returns the nodes of a set on which group gi has a Y
// variable, sorted.
func (pm *placementModel) candidatesIn(gi int, gn constraint.GroupName, sid cluster.SetID) []cluster.NodeID {
	var out []cluster.NodeID
	for _, n := range pm.state.SetMembers(gn, sid) {
		if _, ok := pm.Y[gi][n]; ok {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	return out
}

// activation returns the binary "group gi has ≥1 container in the set",
// adding it with its row Σ Y ≤ count·A on first use; false when the group
// has no candidate in the set.
func (pm *placementModel) activation(gi int, gn constraint.GroupName, sid cluster.SetID) (ilp.Var, bool) {
	k := actKey{gi, gn, sid}
	if v, ok := pm.acts[k]; ok {
		return v, true
	}
	var terms []ilp.Term
	for _, n := range pm.candidatesIn(gi, gn, sid) {
		terms = append(terms, ilp.T(1, pm.Y[gi][n]))
	}
	if len(terms) == 0 {
		return noVar, false // group cannot reach this set
	}
	v := pm.m.Binary(fmt.Sprintf("A_%d_%s_%d", gi, gn, sid))
	terms = append(terms, ilp.T(-float64(pm.groups[gi].count), v))
	pm.m.AddLE(fmt.Sprintf("act_%d_%s_%d", gi, gn, sid), 0, terms...)
	pm.acts[k] = v
	return v, true
}

// cardRow is where one cardinality row goes: the atom, the node set, the
// Y terms that count new target containers there and γ of the target
// before placement.
type cardRow struct {
	pm       *placementModel
	idx      int
	inst     atomInst
	bigM     float64
	sel      ilp.Var // the DNF selector of the atom's term, or noVar
	sid      cluster.SetID
	tgt      []ilp.Term
	existing int
}

// cardinalityRows emits Equations 6–8 for one atom: per node set of its
// group, the rows that charge a slack when γ of the target, as a subject
// sees it, leaves [cmin, cmax].
func (pm *placementModel) cardinalityRows(idx int, inst atomInst, bigM float64) {
	a := inst.atom
	numSets := pm.state.NumSets(a.Group)
	if numSets == 0 {
		return // unknown group: treat as trivially unconstrained here
	}
	r := cardRow{pm: pm, idx: idx, inst: inst, bigM: bigM, sel: noVar}
	if u, ok := pm.termSel[[2]int{inst.consIdx, inst.termIdx}]; ok {
		r.sel = u
	}
	// Self-covered max-cardinality atoms (the common "≤K workers per
	// node" template: subject == target, cmin == 0) need no activation
	// binaries: γ_other = total−1 ≤ cmax is vacuous (−1 ≤ cmax) when
	// no subject is present, so the row can bind unconditionally. This
	// removes the largest binary family from the model.
	selfCovered := a.SelfTargeting() && a.Min == 0 && a.Max != constraint.Unbounded

	for r.sid = 0; int(r.sid) < numSets; r.sid++ {
		r.existing = pm.state.Gamma(a.Group, r.sid, a.Target)
		r.tgt = nil
		for gi, g := range pm.groups {
			if a.Target.Matches(g.tags) {
				for _, n := range pm.candidatesIn(gi, a.Group, r.sid) {
					r.tgt = append(r.tgt, ilp.T(1, pm.Y[gi][n]))
				}
			}
		}
		if selfCovered {
			if len(r.tgt) > 0 {
				r.emit("s", false, -1, 1, noVar)
			}
			continue
		}

		// (a) Newly submitted subjects: per subject-matching group with
		// candidates in this set, conditional on its activation.
		for gi, g := range pm.groups {
			if !a.Subject.Matches(g.tags) {
				continue
			}
			act, reachable := pm.activation(gi, a.Group, r.sid)
			if !reachable {
				continue
			}
			selfAdj := b2f(a.Target.Matches(g.tags))
			if a.Min > 0 {
				r.emit("", true, gi, selfAdj, act)
			}
			if a.Max != constraint.Unbounded {
				r.emit("", false, gi, selfAdj, act)
			}
		}

		// (b) Already-deployed subjects in this set: their γ changes
		// when new target containers land here (constraints of
		// previously deployed LRAs must keep holding, §5.1).
		if len(r.tgt) == 0 {
			continue // placements cannot change γ here
		}
		nSubj := pm.state.Gamma(a.Group, r.sid, a.Subject)
		if nSubj == 0 {
			continue
		}
		nBoth := pm.state.GammaBoth(a.Group, r.sid, a.Subject, a.Target)
		if a.Min > 0 {
			// tightest: a subject that matches the target
			r.emit("e", true, -1, b2f(nBoth > 0), noVar)
		}
		if a.Max != constraint.Unbounded {
			// tightest: a subject not matching the target
			r.emit("e", false, -1, b2f(nSubj == nBoth), noVar)
		}
	}
}

// emit adds one cardinality row with a fresh violation slack v ≥ 0:
//
//	min:  v + Σtgt − M·act − M·u ≥ cmin − existing + selfAdj − M − M
//	max: −v + Σtgt + M·act + M·u ≤ cmax − existing + selfAdj + M + M
//
// selfAdj is 1 when the subject counts itself among the targets (it is
// excluded from its own γ). The M·act pair binds the row only while the
// subject group is present in the set and is left out when act is noVar;
// the M·u pair relaxes the rows of a DNF term that is not selected and is
// left out for simple constraints. Rows are named <family>c<min|max> and
// slacks <family>v<min|max>, both followed by _<atom>_<set>, with the
// subject group gi in between unless it is negative.
func (r *cardRow) emit(family string, isMin bool, gi, selfAdj int, act ilp.Var) {
	pm := r.pm
	kind, bound, sign := "max", r.inst.atom.Max, -1.0
	if isMin {
		kind, bound, sign = "min", r.inst.atom.Min, 1.0
	}
	name := func(part string) string {
		b := append(append(append(make([]byte, 0, 32), family...), part...), kind...)
		for _, i := range [3]int{r.idx, gi, int(r.sid)} {
			if i >= 0 {
				b = strconv.AppendInt(append(b, '_'), int64(i), 10)
			}
		}
		return string(b)
	}
	v := pm.m.Float(name("v"), 0, ilp.Infinity)
	pm.slacks = append(pm.slacks, slackRef{v: v, atomIdx: r.idx, weight: r.inst.weight, bound: bound})
	terms := make([]ilp.Term, 0, len(r.tgt)+3)
	terms = append(terms, ilp.T(sign, v))
	rhs := float64(bound - r.existing + selfAdj)
	if act != noVar {
		terms = append(terms, ilp.T(-sign*r.bigM, act))
		rhs -= sign * r.bigM
	}
	terms = append(terms, r.tgt...)
	if r.sel != noVar {
		terms = append(terms, ilp.T(-sign*r.bigM, r.sel))
		rhs -= sign * r.bigM
	}
	if isMin {
		pm.m.AddGE(name("c"), rhs, terms...)
	} else {
		pm.m.AddLE(name("c"), rhs, terms...)
	}
}

// warmValues assembles one warm-start candidate — a value for every
// integer variable of the model — from the applications the candidate
// places and the containers of each group it puts on each node.
func (pm *placementModel) warmValues(placed []bool, counts []map[cluster.NodeID]int) map[ilp.Var]float64 {
	warm := make(map[ilp.Var]float64, len(pm.semOf)+len(pm.acts)+len(pm.termSel))
	for ai, v := range pm.S {
		warm[v] = float64(b2f(placed[ai]))
	}
	for gi, y := range pm.Y {
		for n, v := range y {
			warm[v] = float64(counts[gi][n])
		}
	}
	for k, v := range pm.acts {
		present := false
		for _, n := range pm.state.SetMembers(k.group, k.set) {
			present = present || counts[k.gi][n] > 0
		}
		warm[v] = float64(b2f(present))
	}
	for key, u := range pm.termSel {
		warm[u] = float64(b2f(key[1] == 0)) // bind the first DNF term
	}
	return warm
}
