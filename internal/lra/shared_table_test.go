package lra

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"medea/internal/cluster"
	"medea/internal/constraint"
)

// TestSharedScoreTableMatchesFresh: Medea-ILP's Place makes one score
// table on the state it is handed, restarts it for Medea-TP and again for
// Serial, each placing from it in turn, and restarts it once more before
// candidate selection reads it. On every seed's oracleInstance, half of
// them nearly full:
//   - each heuristic placing from the restarted table places exactly
//     what it places from a newScoreTable of its own, and placeBest keeps
//     the placement the heuristics keep from their own tables;
//   - selectCandidates, reading the table restarted after the heuristics
//     ran, selects exactly what refSelectCandidates, which prices each
//     group on its own, selects, at the default budget and at budgets of
//     one to three nodes, which force a choice between classes.
//
// After every restart the table's memos must count above every stamp
// their entries hold (memoAhead). Three mutants must each be caught on
// some seed: a restart that keeps the rows filled, so that Serial reads
// Medea-TP's rows; a restart whose memos fall back to the epoch the
// table was made with; and a class key without the delta.
func TestSharedScoreTableMatchesFresh(t *testing.T) {
	const seeds = 120
	placed, selections := 0, 0
	var staleCells, fallenEpoch, keyNoDelta int
	for seed := int64(1); seed <= seeds; seed++ {
		state, apps, active := oracleInstance(t, rand.New(rand.NewSource(seed)), seed%2 == 0)
		flat := flattenConstraints(apps, active)
		queue := queueOf(buildRequests(apps))
		tab, classOf := newScoreTable(&greedy{}, state, flat, queue)
		// place runs g from the table from and returns its placement.
		place := func(g *greedy, from *scoreTable, classOf []int) []Placement {
			res := g.placeQueue(state, apps, queue, from, classOf)
			releasePlaced(state, res)
			return res.Placements
		}
		// afterTP is a table Medea-TP has placed from, with the epoch each
		// class's memo was made with.
		afterTP := func() (*scoreTable, []uint32) {
			m, _ := newScoreTable(&greedy{}, state, flat, queue)
			made := make([]uint32, len(m.classes))
			for ci, c := range m.classes {
				made[ci] = c.memo.epoch
			}
			tp := newBestOfGreedy().algs[0]
			m.restart(tp)
			place(tp, m, classOf)
			return m, made
		}

		for k, g := range newBestOfGreedy().algs {
			own, ownClassOf := g.ownTable(state, flat, queue, new(scoreTable))
			want := place(g, own, ownClassOf)
			if k == 1 {
				// Mutant: a restart that keeps Medea-TP's rows filled.
				kept, _ := afterTP()
				kept.g, kept.log = g, kept.log[:0]
				for ci := range kept.classes {
					kept.classes[ci].memo.epoch++
					kept.classes[ci].cursor = 0
				}
				if !reflect.DeepEqual(place(g, kept, classOf), want) {
					staleCells++
				}
				// Mutant: a restart whose memos count on from the epoch
				// the table was made with, below the stamps Medea-TP left.
				fallen, made := afterTP()
				fallen.restart(g)
				for ci := range fallen.classes {
					fallen.classes[ci].memo.epoch = made[ci]
				}
				if !memoAhead(fallen) || !reflect.DeepEqual(place(g, fallen, classOf), want) {
					fallenEpoch++
				}
			}
			tab.restart(g)
			if !memoAhead(tab) {
				t.Fatalf("seed %d %s: a memo of the restarted table counts at or below a stamp an earlier run left", seed, g.name)
			}
			if got := place(g, tab, classOf); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s: from the shared table it places %+v, from its own %+v", seed, g.name, got, want)
			}
			placed += placedContainers(&Result{Placements: want})
		}

		base := newScoreBase(state, flat)
		want, wantScore := freshBest(state, apps, flat, base)
		got, gotScore := newBestOfGreedy().placeBest(state, apps, flat, queue, tab, classOf, base, Options{})
		if !reflect.DeepEqual(got.Placements, want.Placements) || gotScore != wantScore {
			t.Fatalf("seed %d: placeBest keeps %+v (score %v) from the shared table, %+v (score %v) from fresh ones", seed, got.Placements, gotScore, want.Placements, wantScore)
		}

		tab.restart(tab.g)
		groups := batchGroups(apps)
		for budget := 0; budget <= 3; budget++ {
			opts := Options{MaxCandidates: budget}
			want := refSelectCandidates(state, flat, groups, opts, true)
			if got := selectCandidates(state, tab, flat, groups, opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d budget %d: selectCandidates %v, per-group pricing %v", seed, budget, got, want)
			}
			if !reflect.DeepEqual(refSelectCandidates(state, flat, groups, opts, false), want) {
				keyNoDelta++
			}
			selections++
		}
	}
	t.Logf("%d seeds: %d containers placed, %d selections; caught: stale cells on %d, fallen epoch on %d, key without delta on %d",
		seeds, placed, selections, staleCells, fallenEpoch, keyNoDelta)
	for name, n := range map[string]int{"Serial from Medea-TP's cells": staleCells, "a memo epoch that falls across copies": fallenEpoch, "a class key without the delta": keyNoDelta} {
		if n == 0 {
			t.Errorf("mutant %q is not caught", name)
		}
	}
}

// memoAhead reports whether every class memo of tab counts above every
// stamp its entries and its row's cells hold, so that nothing an earlier
// run wrote can pass for a value of the current state.
func memoAhead(tab *scoreTable) bool {
	for _, c := range tab.classes {
		for _, cell := range c.memo.cells {
			if cell.stamp >= c.memo.epoch {
				return false
			}
		}
		for _, s := range c.scores {
			if s.stamp >= c.memo.epoch {
				return false
			}
		}
	}
	return true
}

// freshBest is placeBest with every heuristic placing from a score table
// of its own.
func freshBest(work *cluster.Cluster, apps []*Application, flat []constraint.Entry, base *scoreBase) (best *Result, bestScore float64) {
	for _, g := range newBestOfGreedy().algs {
		res := g.placeOn(work, apps, flat, new(scoreTable))
		if score := base.scoreAndRelease(work, res); best == nil || score > bestScore {
			best, bestScore = res, score
		}
	}
	return best, bestScore
}

// refSelectCandidates is selectCandidates as it was before it read a
// shared score table: each group compiles its atoms and prices every
// node on its own, and builds each node's set-membership signature anew.
// keyDelta false leaves the delta out of the class key (a mutant).
func refSelectCandidates(state *cluster.Cluster, cons []constraint.Entry, groups []mgroup, opts Options, keyDelta bool) [][]cluster.NodeID {
	out := make([][]cluster.NodeID, len(groups))
	groupNames := state.Groups()
	for gi, g := range groups {
		budget := opts.MaxCandidates
		if budget <= 0 {
			budget = max(2*g.count, 8)
		}
		atoms := compileAtoms(nil, cons, g.tags)
		var memo setMemo[float64]
		memo.reset(state, atoms)
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
			delta := atoms.delta(state, n.ID, false, &memo)
			free := n.Free()
			key := strconv.FormatInt(free.MemoryMB, 10) + "/" + strconv.FormatInt(free.VCores, 10) + "|"
			if keyDelta {
				key += strconv.FormatFloat(delta, 'f', 6, 64)
			}
			for _, gn := range groupNames {
				if gn == constraint.Node {
					continue
				}
				key += "|"
				for _, sid := range state.SetsOfNode(gn, n.ID) {
					key += strconv.Itoa(int(sid)) + " "
				}
			}
			cl := classes[key]
			if cl == nil {
				cl = &class{delta: delta, free: free.Scalar()}
				classes[key] = cl
			}
			cl.nodes = append(cl.nodes, n.ID)
		}
		var ordered []*class
		for _, cl := range classes {
			ordered = append(ordered, cl)
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
