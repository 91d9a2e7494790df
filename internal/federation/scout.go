package federation

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"medea/internal/metrics"
	"medea/internal/resource"
	"medea/internal/server"
)

// ScoutConfig tunes the health/capacity prober.
type ScoutConfig struct {
	// ProbeInterval is read by nothing: whoever calls Fleet.Step sets
	// the probe cadence, and the detector learns the inter-arrival times
	// it actually sees. It remains only because the benchmark harness
	// still sets it.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (0 = 25ms). A probe slower
	// than this counts as a miss.
	ProbeTimeout time.Duration
}

func (c ScoutConfig) probeTimeout() time.Duration {
	if c.ProbeTimeout > 0 {
		return c.ProbeTimeout
	}
	return 25 * time.Millisecond
}

// Report is the scout's last knowledge of one member: the capacity
// self-report from GET /v1/stats plus backlog and drain signals.
type Report struct {
	At time.Time
	// Free is already debited server-side by outstanding PREPARE-phase
	// capacity holds on the member.
	Free        resource.Vector
	Total       resource.Vector
	QueueDepth  int
	CorePending int
	Draining    bool
}

// memberProbe is the scout's per-member record.
type memberProbe struct {
	m       *Member
	det     *Detector
	report  Report
	hasEver bool // at least one successful probe
}

// Scout maintains per-member health and capacity knowledge: each probe
// round hits every member's stats endpoint; a response feeds the failure
// detector as a heartbeat and refreshes the capacity report, a timeout
// or refusal counts as a miss. Rank turns that knowledge into a routing
// order. Detector and report state is mutex-guarded: the balancer's
// submit path ranks members concurrently with the probe loop. Probe
// requests themselves run outside the lock.
type Scout struct {
	cfg     ScoutConfig
	mu      sync.Mutex // guards every memberProbe's det/report/hasEver
	members []*memberProbe
	byID    map[string]*memberProbe
	stats   *metrics.FedStats
}

// NewScout builds a scout over the member set.
func NewScout(cfg ScoutConfig, members []*Member, stats *metrics.FedStats) *Scout {
	s := &Scout{cfg: cfg, byID: make(map[string]*memberProbe), stats: stats}
	for _, m := range members {
		p := &memberProbe{m: m, det: NewDetector()}
		s.members = append(s.members, p)
		s.byID[m.ID] = p
	}
	return s
}

// ProbeAll runs one synchronous probe round at now and returns the IDs
// of members whose death this round confirmed, in member order. It is
// the only caller of Detector.confirm: the readers between rounds (Rank,
// State) see a Dead verdict but never latch it, so none of them can
// swallow the confirmation.
func (s *Scout) ProbeAll(now time.Time) (newlyDead []string) {
	for _, p := range s.members {
		rep, err := s.probe(p.m) // network, outside the lock
		s.mu.Lock()
		if err != nil {
			p.det.Miss(now)
			s.stats.Add(metrics.ProbeMisses, 1)
		} else {
			rep.At = now
			p.report = rep
			p.hasEver = true
			p.det.Heartbeat(now)
			s.stats.Add(metrics.ProbeOK, 1)
		}
		died := p.det.confirm(now)
		s.mu.Unlock()
		if died {
			s.stats.Add(metrics.DeadConfirms, 1)
			newlyDead = append(newlyDead, p.m.ID)
		}
	}
	return newlyDead
}

// probe fetches one member's stats under the probe timeout.
func (s *Scout) probe(m *Member) (Report, error) {
	var st server.StatsResponse
	code, err := m.request(s.cfg.probeTimeout(), http.MethodGet, "/v1/stats", nil, &st)
	if err != nil {
		return Report{}, err
	}
	if code != http.StatusOK {
		return Report{}, fmt.Errorf("stats probe: status %d", code)
	}
	return Report{
		Free:        resource.New(st.FreeMemMB, st.FreeVCores),
		Total:       resource.New(st.TotalMemMB, st.TotalVCores),
		QueueDepth:  st.QueueDepth,
		CorePending: st.CorePending,
		Draining:    st.Draining,
	}, nil
}

// answered records piggybacked liveness: the balancer sent the member a
// request and got an answer, so its probe misses are not consecutive.
// However a member's traffic interleaves with the probes, one that
// answers half its requests is never confirmed dead.
func (s *Scout) answered(id string) {
	p := s.byID[id]
	if p == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p.det.answered()
}

// State returns a member's current liveness verdict.
func (s *Scout) State(id string, now time.Time) DetectorState {
	p := s.byID[id]
	if p == nil {
		return Dead
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return p.det.State(now)
}

// LastReport returns a member's most recent capacity report and whether
// one exists.
func (s *Scout) LastReport(id string) (Report, bool) {
	p := s.byID[id]
	if p == nil {
		return Report{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !p.hasEver {
		return Report{}, false
	}
	return p.report, true
}

// Member returns the member with the given ID (nil if unknown).
func (s *Scout) Member(id string) *Member {
	p := s.byID[id]
	if p == nil {
		return nil
	}
	return p.m
}

// MemberIDs returns every member ID in declaration order.
func (s *Scout) MemberIDs() []string {
	ids := make([]string, len(s.members))
	for i, p := range s.members {
		ids[i] = p.m.ID
	}
	return ids
}

// Rank orders members for a submission of the given total demand: Dead
// members are excluded; among the rest, members whose last-reported free
// capacity fits the demand come first, ordered by dominant free share
// (most headroom first) then backlog (lightest first) then ID; draining
// members always sort last. Suspect members stay routable — suspicion
// deprioritises in spirit by the staleness of their report, but only
// confirmed death removes a member.
func (s *Scout) Rank(demand resource.Vector, now time.Time) []string {
	type cand struct {
		id       string
		fits     bool
		draining bool
		headroom float64 // min over dimensions of free/total
		backlog  int
	}
	var cands []cand
	s.mu.Lock()
	for _, p := range s.members {
		if p.det.State(now) == Dead {
			continue
		}
		c := cand{id: p.m.ID}
		if p.hasEver {
			r := p.report
			c.fits = demand.Fits(r.Free)
			c.draining = r.Draining
			c.backlog = r.QueueDepth + r.CorePending
			if r.Total.MemoryMB > 0 && r.Total.VCores > 0 {
				memFrac := float64(r.Free.MemoryMB) / float64(r.Total.MemoryMB)
				cpuFrac := float64(r.Free.VCores) / float64(r.Total.VCores)
				if memFrac < cpuFrac {
					c.headroom = memFrac
				} else {
					c.headroom = cpuFrac
				}
			}
		}
		cands = append(cands, c)
	}
	s.mu.Unlock()
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.draining != b.draining {
			return !a.draining
		}
		if a.fits != b.fits {
			return a.fits
		}
		if a.headroom != b.headroom {
			return a.headroom > b.headroom
		}
		if a.backlog != b.backlog {
			return a.backlog < b.backlog
		}
		return a.id < b.id
	})
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.id
	}
	return out
}
