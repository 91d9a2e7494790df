package constraint

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// GroupName identifies a node group: a logical, possibly overlapping,
// category of node sets registered by the cluster operator (§4.1). The
// simplest predefined groups are Node and Rack; fault/upgrade domains and
// service units are further examples. Node groups let constraints be
// expressed independently of the cluster's underlying organisation.
type GroupName string

// Predefined node groups.
const (
	// Node is the group whose sets each contain a single cluster node.
	Node GroupName = "node"
	// Rack is the group whose sets each contain all nodes of a physical rack.
	Rack GroupName = "rack"
	// UpgradeDomain groups machines scheduled to be upgraded together (§2.3).
	UpgradeDomain GroupName = "upgrade_domain"
	// FaultDomain groups machines with a higher likelihood of joint failure.
	FaultDomain GroupName = "fault_domain"
	// ServiceUnit is Microsoft's node group accounting for both upgrades
	// and failures (§2.3).
	ServiceUnit GroupName = "service_unit"
)

// Unbounded is the cmax value denoting "no upper bound" (the paper's ∞).
const Unbounded = math.MaxInt32

// Atom is the paper's single generic constraint type (§4.2):
//
//	C = {subject_tag, {c_tag, cmin, cmax}, node_group}
//
// Each container matching Subject must be placed on a node belonging to a
// node set 𝒮 of Group such that Min <= γ𝒮(Target) <= Max, where γ counts
// containers in 𝒮 matching Target, excluding the subject container itself
// (per Equations 6–7 of the ILP formulation).
type Atom struct {
	// Subject identifies the containers subject to the constraint.
	Subject Expr
	// Target is the c_tag conjunction whose cardinality is bounded.
	Target Expr
	// Min is cmin, the minimum required cardinality.
	Min int
	// Max is cmax, the maximum allowed cardinality (Unbounded for ∞).
	Max int
	// Group is the node group over whose sets the cardinality is taken.
	Group GroupName
}

// Affinity returns the constraint that each subject container be placed in
// a set of group already holding at least one target container
// (cmin=1, cmax=∞).
func Affinity(subject, target Expr, group GroupName) Atom {
	return Atom{Subject: subject, Target: target, Min: 1, Max: Unbounded, Group: group}
}

// AntiAffinity returns the constraint that each subject container be
// placed in a set of group holding no target containers (cmin=0, cmax=0).
func AntiAffinity(subject, target Expr, group GroupName) Atom {
	return Atom{Subject: subject, Target: target, Min: 0, Max: 0, Group: group}
}

// MaxCardinality bounds the number of target containers collocated with
// each subject container in a set of group (cmin=0, cmax=max).
func MaxCardinality(subject, target Expr, max int, group GroupName) Atom {
	return Atom{Subject: subject, Target: target, Min: 0, Max: max, Group: group}
}

// CardinalityRange returns the general form with both bounds.
func CardinalityRange(subject, target Expr, min, max int, group GroupName) Atom {
	return Atom{Subject: subject, Target: target, Min: min, Max: max, Group: group}
}

// Validate reports whether the atom is well formed.
func (a Atom) Validate() error {
	if len(a.Subject) == 0 {
		return errors.New("constraint: empty subject tag expression")
	}
	if len(a.Target) == 0 {
		return errors.New("constraint: empty target tag expression")
	}
	if a.Min < 0 {
		return fmt.Errorf("constraint: cmin %d < 0", a.Min)
	}
	if a.Max < 0 {
		return fmt.Errorf("constraint: cmax %d < 0", a.Max)
	}
	if a.Min > a.Max {
		return fmt.Errorf("constraint: cmin %d > cmax %d", a.Min, a.Max)
	}
	if a.Group == "" {
		return errors.New("constraint: empty node group")
	}
	return nil
}

// IsAffinity reports whether the atom has affinity form (cmin>=1, cmax=∞).
func (a Atom) IsAffinity() bool { return a.Min >= 1 && a.Max == Unbounded }

// IsAntiAffinity reports whether the atom has anti-affinity form (0,0).
func (a Atom) IsAntiAffinity() bool { return a.Min == 0 && a.Max == 0 }

// SelfTargeting reports whether the subject expression matches the target
// expression, i.e. the constraint relates a group of containers to itself
// (e.g. {spark, {spark, 3, 10}, rack}).
func (a Atom) SelfTargeting() bool { return a.Subject.Equal(a.Target) }

// ViolationExtent quantifies how far an observed γ is from the allowed
// interval, normalised per Equation 8 of the paper:
//
//	v = cviol_min/cmin + cviol_max/cmax
//
// Zero-valued bounds would divide by zero, so they are clamped to one;
// e.g. an anti-affinity (0,0) violated by 2 extra containers has extent 2.
func (a Atom) ViolationExtent(gamma int) float64 {
	var v float64
	if gamma < a.Min {
		v += float64(a.Min-gamma) / float64(max(1, a.Min))
	}
	if gamma > a.Max {
		v += float64(gamma-a.Max) / float64(max(1, a.Max))
	}
	return v
}

// String renders the paper's syntax: {storm, {hb&mem, 1, inf}, node}.
func (a Atom) String() string {
	maxStr := "inf"
	if a.Max != Unbounded {
		maxStr = strconv.Itoa(a.Max)
	}
	return "{" + a.Subject.String() + ", {" + a.Target.String() + ", " +
		strconv.Itoa(a.Min) + ", " + maxStr + "}, " + string(a.Group) + "}"
}

// Constraint is a (possibly compound) placement constraint with a soft
// weight. Compound constraints are in disjunctive normal form: the
// constraint is satisfied when every atom of at least one term is
// satisfied (§4.2 "Compound constraints"). All constraints in Medea are
// soft by default; Weight expresses relative importance, and hard
// constraints are emulated with large weights.
type Constraint struct {
	// Terms is the DNF: OR over terms, AND over the atoms within a term.
	Terms [][]Atom
	// Weight is the soft-constraint weight (1 when zero-valued inputs are
	// normalised through New / Weighted).
	Weight float64
}

// New wraps a single atom as a simple constraint with weight 1.
func New(a Atom) Constraint { return Constraint{Terms: [][]Atom{{a}}, Weight: 1} }

// Weighted wraps a single atom with an explicit weight.
func Weighted(a Atom, w float64) Constraint {
	return Constraint{Terms: [][]Atom{{a}}, Weight: w}
}

// Simple reports whether c consists of exactly one atom, and returns it.
func (c Constraint) Simple() (Atom, bool) {
	if len(c.Terms) == 1 && len(c.Terms[0]) == 1 {
		return c.Terms[0][0], true
	}
	return Atom{}, false
}

// Validate checks the whole DNF.
func (c Constraint) Validate() error {
	if len(c.Terms) == 0 {
		return errors.New("constraint: no terms")
	}
	// A non-finite weight has no order against the others, and the
	// journal cannot encode it.
	if math.IsNaN(c.Weight) || math.IsInf(c.Weight, 0) {
		return fmt.Errorf("constraint: weight %v is not finite", c.Weight)
	}
	if c.Weight < 0 {
		return fmt.Errorf("constraint: negative weight %v", c.Weight)
	}
	for i, term := range c.Terms {
		if len(term) == 0 {
			return fmt.Errorf("constraint: term %d is empty", i)
		}
		for _, a := range term {
			if err := a.Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// EffectiveWeight returns the weight used by schedulers (1 when unset).
func (c Constraint) EffectiveWeight() float64 {
	if c.Weight <= 0 {
		return 1
	}
	return c.Weight
}

// String renders terms joined by " | " with atoms joined by " & ", in
// the syntax Parse reads. It is for people and logs: the schedulers
// deduplicate constraints by structure, not by this text, which can
// render two different constraints alike (Expr{"a&b"} and
// Expr{"a", "b"}).
func (c Constraint) String() string {
	var b strings.Builder
	if c.Weight > 0 && c.Weight != 1 {
		b.WriteString(strconv.FormatFloat(c.Weight, 'g', -1, 64))
		b.WriteString(": ")
	}
	for i, term := range c.Terms {
		if i > 0 {
			b.WriteString(" | ")
		}
		for j, a := range term {
			if j > 0 {
				b.WriteString(" & ")
			}
			b.WriteString(a.String())
		}
	}
	return b.String()
}
