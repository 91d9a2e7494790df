package ilp

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/solve.golden")

// goldenCase is one pinned solve.
type goldenCase struct {
	label string
	m     *Model
	opts  Options
}

// gangModel is a placement-shaped general-integer model: groups gangs of
// up to perGroup containers spread over nodes, one shared capacity row
// per node. The fractional capacity keeps the relaxation fractional, the
// repeating objective coefficients make many optima tie, and general
// integers let the dive go deeper than the variable count — these are
// the models whose search leaves frontierTarget subproblems open, which
// no model of at most 31 binaries can.
func gangModel(groups, nodes, perGroup int, capacity float64) *Model {
	m := NewModel(Maximize)
	nodeTerms := make([][]Term, nodes)
	for g := 0; g < groups; g++ {
		gang := make([]Term, nodes)
		for n := 0; n < nodes; n++ {
			v := m.Int(fmt.Sprintf("y_%d_%d", g, n), 0, float64(perGroup))
			m.SetObjective(v, 1+float64((g*7+n*3)%5))
			nodeTerms[n] = append(nodeTerms[n], T(float64(1+(g*13+n*5)%2), v))
			gang[n] = T(1, v)
		}
		m.AddLE("gang", float64(perGroup), gang...)
	}
	for n := 0; n < nodes; n++ {
		m.AddLE("cap", capacity, nodeTerms[n]...)
	}
	return m
}

// warmReplay returns opts extended the way the LRA scheduler replays a
// previous solution: its integer values as a warm start and its branch
// order as the priority.
func warmReplay(m *Model, opts Options, prev *Solution) Options {
	warm := map[Var]float64{}
	for j := range m.vars {
		if m.vars[j].integer {
			warm[Var(j)] = prev.Value(Var(j))
		}
	}
	opts.WarmStarts = []map[Var]float64{warm}
	opts.BranchPriority = prev.Branched
	return opts
}

// goldenCases lists every solve pinned in testdata/solve.golden: the
// fuzz corpus and two seeded families of small random models, the
// warm-replayed solves of TestWarmStartDifferential, and the models that
// reach the subtree phase — complete, cut by the node budget, and
// warm-replayed.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for i, data := range fuzzCorpus() {
		m, _, _ := decodeModel(data)
		cases = append(cases, goldenCase{fmt.Sprintf("corpus[%d]", i), m, oracleOpts()})
	}
	for _, fam := range []struct {
		seed int64
		n    int
	}{{7, 60}, {99, 40}} {
		r := rand.New(rand.NewSource(fam.seed))
		for i := 0; i < fam.n; i++ {
			cases = append(cases, goldenCase{fmt.Sprintf("random%d[%d]", fam.seed, i), randomOracleModel(r), oracleOpts()})
		}
	}
	for i, m := range warmStartModels() {
		cold := m.Solve(oracleOpts())
		if cold.Status != Optimal {
			continue
		}
		cases = append(cases, goldenCase{fmt.Sprintf("warm[%d]", i), m, warmReplay(m, oracleOpts(), cold)})
	}
	for _, g := range []struct {
		groups, nodes, perGroup int
		capacity                float64
	}{{7, 4, 6, 7.5}, {7, 4, 6, 9.5}, {7, 4, 5, 9.5}, {8, 3, 8, 7.5}, {8, 3, 8, 9.5}, {9, 3, 8, 7.5}} {
		m := gangModel(g.groups, g.nodes, g.perGroup, g.capacity)
		label := fmt.Sprintf("gang%dx%dx%d/%v", g.groups, g.nodes, g.perGroup, g.capacity)
		cases = append(cases, goldenCase{label, m, oracleOpts()})
		approx := m.Solve(Options{Mode: ModeApprox})
		cases = append(cases, goldenCase{label + "/warm", m, warmReplay(m, oracleOpts(), approx)})
	}
	cases = append(cases,
		goldenCase{"gang8x4x6/9.5/nodes=5000", gangModel(8, 4, 6, 9.5), Options{MaxNodes: 5000}},
		goldenCase{"gang10x3x6/9.5/nodes=4000", gangModel(10, 3, 6, 9.5), Options{MaxNodes: 4000}},
		goldenCase{"knapsack34/nodes=3000", correlatedKnapsack(34), Options{MaxNodes: 3000}},
	)
	return cases
}

// goldenLine renders everything identicalSolutions compares. 'g' with
// precision -1 is the shortest text that parses back to the same bits.
func goldenLine(label string, s *Solution) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "%s status=%v obj=%s nodes=%d hit=%v warm=%v x=", label, s.Status, f(s.Objective), s.Nodes, s.DeadlineHit, s.WarmUsed)
	for j, v := range s.values {
		if j > 0 {
			b.WriteByte(',')
		}
		b.WriteString(f(v))
	}
	b.WriteString(" branched=")
	for i, v := range s.Branched {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(v)))
	}
	return b.String()
}

// TestSolveGolden pins what Solve returns — status, objective bits, the
// full assignment, node count and recorded branch order — for every case
// of goldenCases. Which of several equal optima comes back is decided by
// the dive order, the subtree order, the prune line and the tie-break, so
// any change to the search shows here first. Refresh with
// `go test -run TestSolveGolden -update ./internal/ilp/`.
func TestSolveGolden(t *testing.T) {
	cases := goldenCases()
	lines := make([]string, len(cases))
	for i, c := range cases {
		lines[i] = goldenLine(c.label, c.m.Solve(c.opts))
	}
	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "solve.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	if string(want) == got {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i, line := range lines {
		if i >= len(wantLines) || wantLines[i] != line {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("solve drifted from golden at line %d (intentional changes: re-run with -update):\n--- golden ---\n%s\n--- got ---\n%s", i+1, w, line)
		}
	}
	t.Fatalf("golden has %d lines, the suite %d", len(wantLines), len(lines))
}
