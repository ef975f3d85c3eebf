package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	fp "github.com/faircache/lfoc/internal/fixedpoint"
	"github.com/faircache/lfoc/internal/lookahead"
	"github.com/faircache/lfoc/internal/plan"
)

// AppInfo is the partitioner's view of one application.
type AppInfo struct {
	// ID is the workload-relative application index.
	ID int
	// Class is the current runtime classification.
	Class Class
	// Profile is required for sensitive applications (their slowdown
	// curves drive lookahead); ignored for other classes.
	Profile *Profile
}

// Partitioner is a reusable Algorithm 1 session. It owns the working
// slices Partition needs (class buckets, sensitive groups, utility
// curves, the lookahead allocation, and the clusters with their app
// lists), so a caller that reruns the algorithm allocates nothing once
// the buffers have grown. The zero value is ready to use.
//
// A plan a Partitioner returns aliases its buffers and is valid until
// its next call. A Partitioner is not safe for concurrent use. Its
// plans equal Partition's: the arithmetic is the same, in the same
// order.
type Partitioner struct {
	st, cs, ls []AppInfo
	groups     [][]AppInfo
	curves     []int64 // NrWays+1 entries per sensitive group
	util       [][]int64
	alloc      []int
	// clusters keeps each position's app buffer across calls; out is
	// the returned plan's cluster list.
	clusters, out []plan.Cluster
}

// Partition runs Algorithm 1: LFOC's cache-clustering algorithm.
//
// Following the paper: streaming applications are confined to at most two
// 1-way clusters (ways_for_streaming = min(2, ⌈|ST|/max_streaming_way⌉);
// the paper's integer division would reserve zero ways for small
// streaming sets, so we round up — a nonempty ST always gets a cluster).
// The remaining ways are distributed among cache-sensitive applications
// with UCP's lookahead on their slowdown curves, one cluster each. Light
// (and still-unknown) applications first fill spare capacity in the
// streaming clusters — gaps_available = r − |C|·gaps_per_streaming,
// clamped at zero, implemented literally from Algorithm 1 — and the rest
// are spread round-robin over the sensitive clusters.
func Partition(apps []AppInfo, params *Params) (plan.Plan, error) {
	return new(Partitioner).Partition(apps, params)
}

// Partition is the package-level Partition on the session's buffers. It
// does not modify apps.
//
//lfoc:hotpath
func (p *Partitioner) Partition(apps []AppInfo, params *Params) (plan.Plan, error) {
	if params.NrWays < 1 || len(apps) == 0 {
		return plan.Plan{}, inputError(params.NrWays)
	}

	p.st, p.cs, p.ls = p.st[:0], p.cs[:0], p.ls[:0]
	for _, a := range apps {
		switch a.Class {
		case ClassStreaming:
			p.st = append(p.st, a)
		case ClassSensitive:
			if a.Profile == nil {
				return plan.Plan{}, noProfileError(a.ID)
			}
			p.cs = append(p.cs, a)
		default: // light and unknown share the light path
			p.ls = append(p.ls, a)
		}
	}
	st, ls := p.st, p.ls
	p.clusters = p.clusters[:0]

	// No sensitive applications: a single cluster spanning the LLC.
	if len(p.cs) == 0 {
		return p.singleCluster(apps, params.NrWays), nil
	}

	maxStreamingWay := params.MaxStreamingWay
	if maxStreamingWay < 1 {
		maxStreamingWay = 1
	}
	waysForStreaming := 0
	r := 0
	if len(st) > 0 {
		waysForStreaming = ceilDiv(len(st), maxStreamingWay)
		if waysForStreaming > 2 {
			waysForStreaming = 2
		}
		r = ceilDiv(len(st), waysForStreaming)
	}
	if waysForStreaming >= params.NrWays {
		// Degenerate LLC: everything shares one cluster.
		return p.singleCluster(apps, params.NrWays), nil
	}

	// Streaming clusters: waysForStreaming 1-way clusters, up to r apps
	// each.
	next := 0
	for i := 0; i < waysForStreaming; i++ {
		c := p.addCluster(1)
		for len(c.Apps) < r && next < len(st) {
			c.Apps = append(c.Apps, st[next].ID)
			next++
		}
	}

	// Sensitive clusters: lookahead over slowdown-reduction utilities.
	csForLookahead := p.fitSensitive(params.NrWays - waysForStreaming)
	row := params.NrWays + 1
	p.curves = slices.Grow(p.curves[:0], len(csForLookahead)*row)[:len(csForLookahead)*row]
	p.util = p.util[:0]
	for i, grp := range csForLookahead {
		curve := p.curves[i*row : (i+1)*row : (i+1)*row]
		groupSlowdown(curve, grp)
		p.util = append(p.util, lookahead.SlowdownUtilityInto(curve, curve))
	}
	alloc, err := lookahead.AllocateInto(p.alloc, p.util, params.NrWays-waysForStreaming)
	if err != nil {
		return plan.Plan{}, lookaheadError(err)
	}
	p.alloc = alloc
	firstSensitive := len(p.clusters)
	for i, grp := range csForLookahead {
		c := p.addCluster(alloc[i])
		for _, a := range grp {
			c.Apps = append(c.Apps, a.ID)
		}
		sort.Ints(c.Apps)
	}
	clusters := p.clusters

	// Light-sharing placement: streaming clusters first (Algorithm 1's
	// gaps), then round-robin over sensitive clusters. ls[q:] is the
	// queue of light apps still to place.
	q := 0
	for idx := 0; q < len(ls) && idx < waysForStreaming; idx++ {
		target := &clusters[idx]
		gaps := r - len(target.Apps)*params.GapsPerStreaming
		for gaps > 0 && q < len(ls) {
			target.Apps = append(target.Apps, ls[q].ID)
			q++
			gaps--
		}
	}
	for i := 0; q < len(ls); i++ {
		c := &clusters[firstSensitive+i%(len(clusters)-firstSensitive)]
		c.Apps = append(c.Apps, ls[q].ID)
		q++
	}

	// Drop empty streaming clusters (possible when r·waysForStreaming
	// overshoots |ST| and no light app landed there), returning their
	// ways to the first sensitive cluster.
	extraWays := 0
	p.out = p.out[:0]
	keptStreaming := 0
	for i, c := range clusters {
		if len(c.Apps) == 0 {
			extraWays += c.Ways
			continue
		}
		if i < firstSensitive {
			keptStreaming++
		}
		p.out = append(p.out, c)
	}
	if extraWays > 0 {
		p.out[keptStreaming].Ways += extraWays
	}

	return plan.Plan{Clusters: p.out}, nil
}

// addCluster appends an empty cluster of the given ways to the working
// list and returns it. The cluster reuses the app buffer its position
// held on earlier calls. The pointer is valid until the next
// addCluster.
//
//lfoc:hotpath
func (p *Partitioner) addCluster(ways int) *plan.Cluster {
	n := len(p.clusters)
	if n < cap(p.clusters) {
		p.clusters = p.clusters[:n+1]
	} else {
		p.clusters = append(p.clusters, plan.Cluster{})
	}
	c := &p.clusters[n]
	c.Apps, c.Ways = c.Apps[:0], ways
	return c
}

// singleCluster returns the plan holding every application, sorted by
// id, in one cluster of the given ways.
//
//lfoc:hotpath
func (p *Partitioner) singleCluster(apps []AppInfo, ways int) plan.Plan {
	c := p.addCluster(ways)
	for _, a := range apps {
		c.Apps = append(c.Apps, a.ID)
	}
	sort.Ints(c.Apps)
	return plan.Plan{Clusters: p.clusters}
}

func inputError(nrWays int) error {
	if nrWays < 1 {
		return fmt.Errorf("core: NrWays must be positive")
	}
	return fmt.Errorf("core: no applications")
}

func noProfileError(id int) error {
	return fmt.Errorf("core: sensitive app %d has no profile", id)
}

func lookaheadError(err error) error { return fmt.Errorf("core: lookahead: %w", err) }

// fitSensitive groups the sensitive apps so their cluster count does not
// exceed the available ways: normally one app per group; if there are
// more sensitive apps than ways, mergeSensitive merges the least
// sensitive ones.
//
//lfoc:hotpath
func (p *Partitioner) fitSensitive(availWays int) [][]AppInfo {
	p.groups = p.groups[:0]
	for i := range p.cs {
		p.groups = append(p.groups, p.cs[i:i+1:i+1])
	}
	if len(p.groups) <= availWays {
		return p.groups
	}
	return mergeSensitive(p.groups, availWays)
}

// mergeSensitive sorts the groups ascending by slowdown range (least
// sensitive first) and merges the two least sensitive groups until the
// count fits availWays. It allocates, but it only runs when there are
// more sensitive apps than ways.
func mergeSensitive(groups [][]AppInfo, availWays int) [][]AppInfo {
	slices.SortFunc(groups, byRange)
	for len(groups) > availWays {
		merged := append(groups[0], groups[1]...)
		groups = append([][]AppInfo{merged}, groups[2:]...)
		slices.SortFunc(groups, byRange)
	}
	return groups
}

// byRange orders groups ascending by groupRange.
func byRange(a, b []AppInfo) int { return cmp.Compare(groupRange(a), groupRange(b)) }

// groupRange returns the largest 1-way slowdown within the group.
func groupRange(grp []AppInfo) fp.Value {
	var m fp.Value
	for _, a := range grp {
		if sd := a.Profile.Slowdown(1); sd > m {
			m = sd
		}
	}
	return m
}

// groupSlowdown writes the element-wise maximum slowdown curve of a
// group (a shared cluster must satisfy its hungriest member) into out,
// which has NrWays+1 entries.
//
//lfoc:hotpath
func groupSlowdown(out []int64, grp []AppInfo) {
	clear(out)
	for _, a := range grp {
		for w := 1; w < len(out); w++ {
			if v := int64(a.Profile.Slowdown(w)); v > out[w] {
				out[w] = v
			}
		}
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
