// Package resource models multi-dimensional cluster resources.
//
// Medea packages CPU and memory as containers (§1 of the paper). A Vector
// holds one value per tracked dimension; all scheduler code manipulates
// resources exclusively through this package so that adding dimensions
// (e.g. GPUs, disk bandwidth) is a local change, mirroring footnote 6 of
// the paper ("our model can be extended to use a vector of resources").
package resource

import "fmt"

// Vector is an immutable-by-convention resource amount. The zero value is
// an empty (zero) resource, ready to use.
type Vector struct {
	// MemoryMB is main memory in mebibytes.
	MemoryMB int64
	// VCores is the number of virtual cores.
	VCores int64
}

// New returns a Vector with the given memory (MB) and virtual cores.
func New(memoryMB, vcores int64) Vector {
	return Vector{MemoryMB: memoryMB, VCores: vcores}
}

// Add returns v + o.
func (v Vector) Add(o Vector) Vector {
	return Vector{MemoryMB: v.MemoryMB + o.MemoryMB, VCores: v.VCores + o.VCores}
}

// Sub returns v - o. Components may go negative; callers that need
// non-negativity should check Fits first.
func (v Vector) Sub(o Vector) Vector {
	return Vector{MemoryMB: v.MemoryMB - o.MemoryMB, VCores: v.VCores - o.VCores}
}

// Fits reports whether a demand v can be satisfied from capacity c,
// i.e. v <= c in every dimension.
func (v Vector) Fits(c Vector) bool {
	return v.MemoryMB <= c.MemoryMB && v.VCores <= c.VCores
}

// IsZero reports whether every component is zero.
func (v Vector) IsZero() bool { return v.MemoryMB == 0 && v.VCores == 0 }

// IsNonNegative reports whether every component is >= 0.
func (v Vector) IsNonNegative() bool { return v.MemoryMB >= 0 && v.VCores >= 0 }

// IsPositive reports whether every component is > 0.
func (v Vector) IsPositive() bool { return v.MemoryMB > 0 && v.VCores > 0 }

// DominantShare returns the dominant resource share of v relative to
// capacity c, following DRF semantics: max over dimensions of v_d / c_d.
// Dimensions with zero capacity are skipped. Used for load metrics.
func (v Vector) DominantShare(c Vector) float64 {
	var s float64
	if c.MemoryMB > 0 {
		s = float64(v.MemoryMB) / float64(c.MemoryMB)
	}
	if c.VCores > 0 {
		if cs := float64(v.VCores) / float64(c.VCores); cs > s {
			s = cs
		}
	}
	return s
}

// Scalar collapses the vector to a single comparable value (memory MB plus
// a weighted core term). The paper's ILP uses a single scalar per node
// (Table 2, footnote 6); this is the collapse it applies.
func (v Vector) Scalar() int64 {
	// Weight one core as 1024 MB, YARN's DominantResourceCalculator-style
	// normalisation, so neither dimension vanishes.
	return v.MemoryMB + v.VCores*1024
}

// String renders like "<2048MB,1c>".
func (v Vector) String() string {
	return fmt.Sprintf("<%dMB,%dc>", v.MemoryMB, v.VCores)
}

// Standard container profiles from §7.1 of the paper.
var (
	// WorkerProfile is the HBase / TensorFlow worker container: <2 GB, 1 CPU>.
	WorkerProfile = New(2048, 1)
	// ChiefProfile is the TensorFlow chief container: <4 GB, 1 CPU>.
	ChiefProfile = New(4096, 1)
	// DefaultProfile is every other container: <1 GB, 1 CPU>.
	DefaultProfile = New(1024, 1)
)
