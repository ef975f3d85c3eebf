package cat

import "fmt"

// SequentialLayout converts per-cluster way counts into disjoint
// contiguous masks laid out from way 0 upward. It is the layout LFOC,
// KPart and the optimal solver use: way counts must sum to at most the
// total way count and every count must be positive.
func SequentialLayout(counts []int, totalWays int) ([]WayMask, error) {
	return layoutAll(NewLayout(totalWays, false), counts)
}

// OverlappingLowLayout converts per-cluster way counts into masks that all
// start at way 0, so bigger clusters strictly contain smaller ones. This is
// the (deliberately) overlapping layout the Dunn policy produces: as §2.3.2
// of the paper notes, Dunn's partitions "may overlap with each other",
// which creates the unpredictable cross-cluster interactions the paper
// criticizes. Counts may exceed totalWays only in the sense that each
// individual count is clamped to totalWays.
func OverlappingLowLayout(counts []int, totalWays int) ([]WayMask, error) {
	return layoutAll(NewLayout(totalWays, true), counts)
}

// Layout lays out cluster masks one cluster at a time, in cluster order,
// under the rule of SequentialLayout or, when overlapping, of
// OverlappingLowLayout. It lets a caller place each mask as it is made,
// without a slice of counts or masks.
type Layout struct {
	totalWays   int
	overlapping bool
	cluster     int // index of the next cluster
	next        int // first free way of the sequential layout
}

// NewLayout starts a layout on a totalWays-way LLC.
func NewLayout(totalWays int, overlapping bool) Layout {
	return Layout{totalWays: totalWays, overlapping: overlapping}
}

// Next returns the mask of the next cluster, which has ways ways.
func (l *Layout) Next(ways int) (WayMask, error) {
	i := l.cluster
	l.cluster++
	if ways <= 0 {
		return 0, fmt.Errorf("cat: cluster %d has non-positive way count %d", i, ways)
	}
	if l.overlapping {
		return MaskRange(0, min(ways, l.totalWays)), nil
	}
	if l.next+ways > l.totalWays {
		return 0, fmt.Errorf("cat: layout needs %d ways, platform has %d", l.next+ways, l.totalWays)
	}
	m := MaskRange(l.next, ways)
	l.next += ways
	return m, nil
}

// layoutAll lays out every count in turn.
func layoutAll(l Layout, counts []int) ([]WayMask, error) {
	masks := make([]WayMask, len(counts))
	for i, w := range counts {
		m, err := l.Next(w)
		if err != nil {
			return nil, err
		}
		masks[i] = m
	}
	return masks, nil
}

// SamplingLayout returns the two complementary masks used during a
// sampling episode (§4.2): a sampling partition of sampleWays ways at the
// low end for the sampled application, and the complement for everyone
// else. sampleWays must leave at least one way for the complement.
func SamplingLayout(sampleWays, totalWays int) (sample, rest WayMask, err error) {
	if sampleWays < 1 || sampleWays >= totalWays {
		return 0, 0, fmt.Errorf("cat: sampling partition of %d ways invalid on %d-way LLC", sampleWays, totalWays)
	}
	return MaskRange(0, sampleWays), MaskRange(sampleWays, totalWays-sampleWays), nil
}

// SharingGroups partitions cluster indices into connected components of
// the mask-overlap graph: clusters in different groups are perfectly
// isolated from each other; clusters within a group compete for the ways
// their masks share. The contention model uses this to decide which
// applications interact.
func SharingGroups(masks []WayMask) [][]int {
	n := len(masks)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if masks[i].Overlaps(masks[j]) {
				union(i, j)
			}
		}
	}
	groups := map[int][]int{}
	order := []int{}
	for i := 0; i < n; i++ {
		r := find(i)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], i)
	}
	out := make([][]int, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}
