package plan

import (
	"fmt"
	"testing"

	"github.com/faircache/lfoc/internal/cat"
)

func TestSingleCluster(t *testing.T) {
	p := SingleCluster(4, 11)
	if err := p.Validate(4, 11); err != nil {
		t.Fatal(err)
	}
	if len(p.Clusters) != 1 || p.Clusters[0].Ways != 11 || len(p.Clusters[0].Apps) != 4 {
		t.Errorf("plan = %+v", p)
	}
	if p.NumApps() != 4 {
		t.Errorf("NumApps = %d", p.NumApps())
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		p    Plan
	}{
		{"empty cluster", Plan{Clusters: []Cluster{{Apps: nil, Ways: 1}, {Apps: []int{0, 1}, Ways: 1}}}},
		{"zero ways", Plan{Clusters: []Cluster{{Apps: []int{0, 1}, Ways: 0}}}},
		{"too many ways", Plan{Clusters: []Cluster{{Apps: []int{0, 1}, Ways: 12}}}},
		{"app out of range", Plan{Clusters: []Cluster{{Apps: []int{0, 5}, Ways: 2}}}},
		{"duplicate app", Plan{Clusters: []Cluster{{Apps: []int{0, 0}, Ways: 2}, {Apps: []int{1}, Ways: 1}}}},
		{"missing app", Plan{Clusters: []Cluster{{Apps: []int{0}, Ways: 2}}}},
		{"way overflow", Plan{Clusters: []Cluster{{Apps: []int{0}, Ways: 6}, {Apps: []int{1}, Ways: 6}}}},
	}
	for _, c := range cases {
		if err := c.p.Validate(2, 11); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestOverlappingWaySumAllowed(t *testing.T) {
	p := Plan{
		Overlapping: true,
		Clusters: []Cluster{
			{Apps: []int{0}, Ways: 8},
			{Apps: []int{1}, Ways: 8},
		},
	}
	if err := p.Validate(2, 11); err != nil {
		t.Errorf("overlapping plan rejected: %v", err)
	}
}

func TestMasksSequential(t *testing.T) {
	p := Plan{Clusters: []Cluster{
		{Apps: []int{0, 1}, Ways: 1},
		{Apps: []int{2}, Ways: 6},
		{Apps: []int{3}, Ways: 4},
	}}
	masks, err := p.Masks(11)
	if err != nil {
		t.Fatal(err)
	}
	if masks[0] != cat.MaskRange(0, 1) || masks[1] != cat.MaskRange(1, 6) || masks[2] != cat.MaskRange(7, 4) {
		t.Errorf("masks = %v", masks)
	}
}

func TestMasksOverlapping(t *testing.T) {
	p := Plan{
		Overlapping: true,
		Clusters: []Cluster{
			{Apps: []int{0}, Ways: 3},
			{Apps: []int{1}, Ways: 7},
		},
	}
	masks, err := p.Masks(11)
	if err != nil {
		t.Fatal(err)
	}
	if masks[0] != cat.MaskRange(0, 3) || masks[1] != cat.MaskRange(0, 7) {
		t.Errorf("masks = %v", masks)
	}
}

func TestAppMasks(t *testing.T) {
	p := Plan{Clusters: []Cluster{
		{Apps: []int{1, 2}, Ways: 2},
		{Apps: []int{0}, Ways: 9},
	}}
	am, err := p.AppMasks(3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if am[1] != cat.MaskRange(0, 2) || am[2] != cat.MaskRange(0, 2) {
		t.Errorf("cluster-0 app masks wrong: %v", am)
	}
	if am[0] != cat.MaskRange(2, 9) {
		t.Errorf("cluster-1 app mask wrong: %v", am)
	}
	// MasksInto keys the same masks by app id, and it first clears
	// the map it fills.
	mm := map[int]cat.WayMask{7: cat.FullMask(11)}
	if err := p.MasksInto(mm, 11); err != nil {
		t.Fatal(err)
	}
	if len(mm) != len(am) {
		t.Errorf("MasksInto wrote %d entries, want %d", len(mm), len(am))
	}
	for a, m := range am {
		if mm[a] != m {
			t.Errorf("MasksInto[%d] = %v, AppMasks gives %v", a, mm[a], m)
		}
	}
	if err := (Plan{}).MasksInto(mm, 11); err != nil || len(mm) != 0 {
		t.Errorf("empty plan: MasksInto = %v, %v; want an empty map", mm, err)
	}
	if err := (Plan{Clusters: []Cluster{{Apps: []int{0}, Ways: 12}}}).MasksInto(mm, 11); err == nil {
		t.Error("MasksInto accepted a plan wider than the LLC")
	}
	// MasksInto lays each cluster out as it fills the map; it must give
	// Masks' masks and Masks' errors.
	for _, c := range []struct {
		p       Plan
		wantErr string
	}{
		{p: Plan{Overlapping: true, Clusters: []Cluster{{Apps: []int{0, 3}, Ways: 3}, {Apps: []int{1}, Ways: 7}, {Apps: []int{2}, Ways: 13}}}},
		{p: Plan{Clusters: []Cluster{{Apps: []int{0}, Ways: 2}, {Apps: []int{1}, Ways: 0}}},
			wantErr: "cat: cluster 1 has non-positive way count 0"},
		{p: Plan{Overlapping: true, Clusters: []Cluster{{Apps: []int{0}, Ways: 0}}},
			wantErr: "cat: cluster 0 has non-positive way count 0"},
		{p: Plan{Clusters: []Cluster{{Apps: []int{0}, Ways: 6}, {Apps: []int{1}, Ways: 6}}},
			wantErr: "cat: layout needs 12 ways, platform has 11"},
	} {
		masks, err := c.p.Masks(11)
		mm := map[int]cat.WayMask{}
		mmErr := c.p.MasksInto(mm, 11)
		if fmt.Sprint(err) != fmt.Sprint(mmErr) || (c.wantErr != "" && fmt.Sprint(err) != c.wantErr) {
			t.Errorf("%s: Masks error %v, MasksInto error %v, want %q", c.p.Canonical(), err, mmErr, c.wantErr)
			continue
		}
		if err != nil {
			if masks != nil {
				t.Errorf("%s: failed layout returned %v", c.p.Canonical(), masks)
			}
			continue
		}
		if len(mm) != c.p.NumApps() {
			t.Errorf("%s: MasksInto wrote %d entries, want %d", c.p.Canonical(), len(mm), c.p.NumApps())
		}
		for ci, cl := range c.p.Clusters {
			for _, a := range cl.Apps {
				if mm[a] != masks[ci] {
					t.Errorf("%s: MasksInto[%d] = %v, Masks gives %v", c.p.Canonical(), a, mm[a], masks[ci])
				}
			}
		}
	}
	// Missing app detection.
	bad := Plan{Clusters: []Cluster{{Apps: []int{0}, Ways: 2}}}
	if _, err := bad.AppMasks(2, 11); err == nil {
		t.Error("missing app not detected")
	}
}

func TestClusterOf(t *testing.T) {
	p := Plan{Clusters: []Cluster{
		{Apps: []int{1, 2}, Ways: 2},
		{Apps: []int{0}, Ways: 9},
	}}
	if p.ClusterOf(2) != 0 || p.ClusterOf(0) != 1 || p.ClusterOf(7) != -1 {
		t.Error("ClusterOf wrong")
	}
}

func TestCanonical(t *testing.T) {
	a := Plan{Clusters: []Cluster{
		{Apps: []int{3, 0}, Ways: 2},
		{Apps: []int{2, 1}, Ways: 9},
	}}
	b := Plan{Clusters: []Cluster{
		{Apps: []int{1, 2}, Ways: 9},
		{Apps: []int{0, 3}, Ways: 2},
	}}
	if a.Canonical() != b.Canonical() {
		t.Errorf("canonical forms differ: %q vs %q", a.Canonical(), b.Canonical())
	}
	if a.Canonical() != "{0,3}:2 {1,2}:9" {
		t.Errorf("canonical = %q", a.Canonical())
	}
}
