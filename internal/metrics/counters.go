package metrics

import "sync/atomic"

// Counter is a per-layer counter enum — PipelineCounter, ServerCounter or
// FedCounter: consecutive values from 0, each named in its layer's name
// table.
type Counter interface {
	~int
	names() []string
}

// Counters is one layer's counts: an atomic slot per value of K. Every
// layer records from several goroutines at once (parallel sub-batch
// solves; HTTP handlers beside the scheduling loop; the balancer's submit
// path beside its probe loop). The zero value is ready. A Counters must
// not be copied after first use (the atomics pin it in place); hold it by
// pointer or inside a heap-allocated owner.
type Counters[K Counter] struct {
	v [maxCounters]atomic.Int64
}

// maxCounters is the widest layer's counter count.
const maxCounters = max(len(pipelineNames), len(serverNames), len(fedNames))

// Add counts n occurrences of k.
func (c *Counters[K]) Add(k K, n int) { c.v[k].Add(int64(n)) }

// Get returns k's count.
func (c *Counters[K]) Get(k K) int { return int(c.v[k].Load()) }

// Snapshot returns every counter of the layer by name.
func (c *Counters[K]) Snapshot() map[string]int {
	names := K(0).names()
	out := make(map[string]int, len(names))
	for i, name := range names {
		out[name] = c.Get(K(i))
	}
	return out
}

// Table renders every counter of the layer, in enum order, as a
// two-column summary table.
func (c *Counters[K]) Table(title string) *Table {
	t := NewTable(title, "metric", "value")
	for i, name := range K(0).names() {
		t.AddRow(name, c.Get(K(i)))
	}
	return t
}
