// Package plan defines the common representation of a cache-clustering
// decision: a set of clusters, each grouping applications and holding a
// number of LLC ways. Every policy (LFOC, Dunn, KPart, UCP, the optimal
// solver, stock Linux) produces a Plan; the contention model, the
// simulator and the metrics layer consume it.
//
// A Plan with Overlapping=false is a cache clustering in the strict sense
// of §2.2: clusters partition the application set and way counts sum to
// at most the LLC's associativity, laid out as disjoint contiguous masks.
// Overlapping=true reproduces Dunn's layout, where every cluster's mask
// starts at way 0 (§2.3.2 notes Dunn's partitions "may overlap").
package plan

import (
	"fmt"
	"sort"

	"github.com/faircache/lfoc/internal/cat"
)

// Cluster groups applications into one cache partition.
type Cluster struct {
	// Apps holds workload-relative application indices.
	Apps []int
	// Ways is the partition size in LLC ways.
	Ways int
}

// Plan is a complete clustering decision.
type Plan struct {
	Clusters []Cluster
	// Overlapping selects Dunn-style low-aligned overlapping masks
	// instead of disjoint sequential masks.
	Overlapping bool
}

// SingleCluster returns the stock-Linux plan: every application in one
// cluster covering the whole LLC.
func SingleCluster(nApps, ways int) Plan {
	apps := make([]int, nApps)
	for i := range apps {
		apps[i] = i
	}
	return Plan{Clusters: []Cluster{{Apps: apps, Ways: ways}}}
}

// Validate checks that the plan covers each of nApps applications exactly
// once, that every cluster has at least one way and one application, and
// that non-overlapping plans fit within totalWays.
func (p Plan) Validate(nApps, totalWays int) error {
	seen := make([]bool, nApps)
	waySum := 0
	for ci, c := range p.Clusters {
		if len(c.Apps) == 0 {
			return fmt.Errorf("plan: cluster %d has no applications", ci)
		}
		if c.Ways < 1 {
			return fmt.Errorf("plan: cluster %d has %d ways", ci, c.Ways)
		}
		if c.Ways > totalWays {
			return fmt.Errorf("plan: cluster %d has %d ways, LLC has %d", ci, c.Ways, totalWays)
		}
		for _, a := range c.Apps {
			if a < 0 || a >= nApps {
				return fmt.Errorf("plan: cluster %d references app %d outside [0,%d)", ci, a, nApps)
			}
			if seen[a] {
				return fmt.Errorf("plan: app %d appears in more than one cluster", a)
			}
			seen[a] = true
		}
		waySum += c.Ways
	}
	for a, ok := range seen {
		if !ok {
			return fmt.Errorf("plan: app %d not assigned to any cluster", a)
		}
	}
	if !p.Overlapping && waySum > totalWays {
		return fmt.Errorf("plan: clusters use %d ways, LLC has %d", waySum, totalWays)
	}
	return nil
}

// Masks lays the plan out as CAT capacity bitmasks, one per cluster.
func (p Plan) Masks(totalWays int) ([]cat.WayMask, error) {
	counts := make([]int, len(p.Clusters))
	for i, c := range p.Clusters {
		counts[i] = c.Ways
	}
	if p.Overlapping {
		return cat.OverlappingLowLayout(counts, totalWays)
	}
	return cat.SequentialLayout(counts, totalWays)
}

// MasksInto clears dst and maps every application the plan lists to
// its cluster's mask, laid out as Masks lays it out.
func (p Plan) MasksInto(dst map[int]cat.WayMask, totalWays int) error {
	clear(dst)
	l := cat.NewLayout(totalWays, p.Overlapping)
	for _, c := range p.Clusters {
		m, err := l.Next(c.Ways)
		if err != nil {
			return err
		}
		for _, a := range c.Apps {
			dst[a] = m
		}
	}
	return nil
}

// AppMasks returns the per-application mask implied by the plan, indexed
// by application index.
func (p Plan) AppMasks(nApps, totalWays int) ([]cat.WayMask, error) {
	masks, err := p.Masks(totalWays)
	if err != nil {
		return nil, err
	}
	out := make([]cat.WayMask, nApps)
	for ci, c := range p.Clusters {
		for _, a := range c.Apps {
			if a < 0 || a >= nApps {
				return nil, fmt.Errorf("plan: app index %d out of range", a)
			}
			out[a] = masks[ci]
		}
	}
	for a, m := range out {
		if m == 0 {
			return nil, fmt.Errorf("plan: app %d has no cluster", a)
		}
	}
	return out, nil
}

// ClusterOf returns the index of the cluster containing app, or -1.
func (p Plan) ClusterOf(app int) int {
	for ci, c := range p.Clusters {
		for _, a := range c.Apps {
			if a == app {
				return ci
			}
		}
	}
	return -1
}

// NumApps returns the number of application slots the plan covers.
func (p Plan) NumApps() int {
	n := 0
	for _, c := range p.Clusters {
		n += len(c.Apps)
	}
	return n
}

// Canonical returns a deterministic rendering such as
// "{0,3}:2 {1}:8 {2}:1" with apps sorted inside clusters and clusters
// sorted by their smallest app, for logging and test assertions.
func (p Plan) Canonical() string {
	type cl struct {
		apps []int
		ways int
	}
	cls := make([]cl, 0, len(p.Clusters))
	for _, c := range p.Clusters {
		apps := append([]int(nil), c.Apps...)
		sort.Ints(apps)
		cls = append(cls, cl{apps, c.Ways})
	}
	sort.Slice(cls, func(i, j int) bool {
		if len(cls[i].apps) == 0 || len(cls[j].apps) == 0 {
			return len(cls[i].apps) > len(cls[j].apps)
		}
		return cls[i].apps[0] < cls[j].apps[0]
	})
	s := ""
	for i, c := range cls {
		if i > 0 {
			s += " "
		}
		s += "{"
		for j, a := range c.apps {
			if j > 0 {
				s += ","
			}
			s += fmt.Sprint(a)
		}
		s += fmt.Sprintf("}:%d", c.ways)
	}
	return s
}
