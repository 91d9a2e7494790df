package taskched

import (
	"runtime"
	"testing"

	"medea/internal/cluster"
	"medea/internal/resource"
)

// Caps of TestTaskPathAllocCap. A Submit of one request allocates
// nothing once its queue's array has room (0 measured): the queue holds
// one run per request, not one entry per task. A heartbeat that places k
// tasks allocates k+1 times: per task the container ID (one string,
// built in a stack buffer), and once the result, sized from the node's
// free room; the cluster's record of the container is a value in its
// container map, and the scheduler keeps no map of its own. The fixed
// part leaves room for the container map to rehash to reclaim deleted
// slots, at a point that moves with its random hash seed. One heap entry
// per task at Submit (46 for the 45-task request) fails the first cap; a
// heap record or an owner-map entry per task (2k+1 to 2k+5) fails the
// second. The counts do not depend on the host or on -race.
const (
	submitMaxAllocs        = 1
	heartbeatFixedMaxAlloc = 8
)

// TestTaskPathAllocCap submits a 45-task request and places it with
// heartbeats on three 16-task nodes, releasing everything, four times;
// the last round, with the maps and arrays at their size and sequence
// numbers past 100, is counted from runtime.MemStats.
func TestTaskPathAllocCap(t *testing.T) {
	c := cluster.Grid(32, 8, resource.New(16384, 16))
	s := New(c)
	req := TaskRequest{Count: 45, Demand: resource.DefaultProfile}
	var b, a runtime.MemStats
	for round := 0; round < 4; round++ {
		runtime.ReadMemStats(&b)
		if err := s.Submit("job-000123r45", "default", t0, req); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&a)
		if n := a.Mallocs - b.Mallocs; round == 3 {
			t.Logf("Submit of %d tasks: %d allocs", req.Count, n)
			if n > submitMaxAllocs {
				t.Errorf("Submit of %d tasks allocated %d times, cap %d", req.Count, n, submitMaxAllocs)
			}
		}
		var placed []Allocation
		for node := 0; node < 3; node++ {
			runtime.ReadMemStats(&b)
			allocs := s.NodeHeartbeat(cluster.NodeID(node), t0)
			runtime.ReadMemStats(&a)
			k := len(allocs)
			if n, limit := a.Mallocs-b.Mallocs, uint64(k+heartbeatFixedMaxAlloc); round == 3 {
				t.Logf("heartbeat placing %d tasks: %d allocs", k, n)
				if n > limit {
					t.Errorf("heartbeat placing %d tasks allocated %d times, cap %d", k, n, limit)
				}
			}
			placed = append(placed, allocs...)
		}
		if len(placed) != req.Count {
			t.Fatalf("placed %d tasks, want %d", len(placed), req.Count)
		}
		for _, x := range placed {
			if err := s.ReleaseTask(x.Container, x.Queue, x.Demand); err != nil {
				t.Fatal(err)
			}
		}
	}
}
