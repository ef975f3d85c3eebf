package cat

import (
	"testing"
	"testing/quick"
)

func TestMaskRange(t *testing.T) {
	cases := []struct {
		lo, count int
		want      WayMask
	}{
		{0, 1, 0b1},
		{0, 3, 0b111},
		{2, 2, 0b1100},
		{10, 1, 1 << 10},
		{0, 0, 0},
		{-1, 2, 0},
	}
	for _, c := range cases {
		if got := MaskRange(c.lo, c.count); got != c.want {
			t.Errorf("MaskRange(%d,%d) = %b, want %b", c.lo, c.count, got, c.want)
		}
	}
}

func TestContiguous(t *testing.T) {
	cases := []struct {
		m    WayMask
		want bool
	}{
		{0b1, true}, {0b11, true}, {0b1100, true}, {0b101, false},
		{0, false}, {0b1110, true}, {0b10010, false},
	}
	for _, c := range cases {
		if got := c.m.Contiguous(); got != c.want {
			t.Errorf("Contiguous(%b) = %v", c.m, got)
		}
	}
}

func TestMaskAccessors(t *testing.T) {
	m := MaskRange(2, 3) // ways 2,3,4
	if m.Count() != 3 {
		t.Errorf("Count = %d", m.Count())
	}
	if m.Lowest() != 2 {
		t.Errorf("Lowest = %d", m.Lowest())
	}
	if WayMask(0).Lowest() != -1 {
		t.Error("Lowest of empty mask should be -1")
	}
	if !m.Contains(3) || m.Contains(1) || m.Contains(5) {
		t.Error("Contains wrong")
	}
	ws := m.Ways()
	if len(ws) != 3 || ws[0] != 2 || ws[2] != 4 {
		t.Errorf("Ways = %v", ws)
	}
	if !m.Overlaps(MaskRange(4, 2)) || m.Overlaps(MaskRange(5, 2)) {
		t.Error("Overlaps wrong")
	}
}

func TestMaskString(t *testing.T) {
	if got := MaskRange(0, 5).StringWidth(11); got != "00000011111" {
		t.Errorf("StringWidth = %q", got)
	}
	if got := MaskRange(1, 2).String(); got != "110" {
		t.Errorf("String = %q", got)
	}
}

func TestControllerLifecycle(t *testing.T) {
	c, err := NewController(11, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Ways() != 11 || c.NumCOS() != 16 {
		t.Fatal("dimension accessors wrong")
	}
	// COS 0 defaults to full mask.
	m, err := c.COSMask(0)
	if err != nil || m != FullMask(11) {
		t.Fatalf("COS0 = %v, %v", m, err)
	}
	// Unassigned tasks land in COS 0.
	if c.COSOf(7) != 0 || c.MaskOf(7) != FullMask(11) {
		t.Fatal("default association wrong")
	}
	if err := c.SetCOS(1, MaskRange(0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Assign(7, 1); err != nil {
		t.Fatal(err)
	}
	if c.COSOf(7) != 1 || c.MaskOf(7) != MaskRange(0, 2) {
		t.Fatal("association not applied")
	}
	c.Remove(7)
	if c.COSOf(7) != 0 {
		t.Fatal("Remove did not reset association")
	}
}

func TestControllerValidation(t *testing.T) {
	c, _ := NewController(11, 4, 2)
	if err := c.SetCOS(1, 0); err == nil {
		t.Error("empty CBM accepted")
	}
	if err := c.SetCOS(1, 0b101); err == nil {
		t.Error("non-contiguous CBM accepted")
	}
	if err := c.SetCOS(1, 0b1); err == nil {
		t.Error("CBM narrower than MinCBMBits accepted")
	}
	if err := c.SetCOS(1, MaskRange(10, 2)); err == nil {
		t.Error("CBM beyond LLC accepted")
	}
	if err := c.SetCOS(9, MaskRange(0, 2)); err == nil {
		t.Error("out-of-range COS accepted")
	}
	if err := c.Assign(1, 3); err == nil {
		t.Error("assignment to undefined COS accepted")
	}
	if _, err := c.COSMask(3); err == nil {
		t.Error("reading undefined COS succeeded")
	}
}

func TestNewControllerErrors(t *testing.T) {
	if _, err := NewController(0, 4, 1); err == nil {
		t.Error("0 ways accepted")
	}
	if _, err := NewController(40, 4, 1); err == nil {
		t.Error("40 ways accepted")
	}
	if _, err := NewController(11, 0, 1); err == nil {
		t.Error("0 COS accepted")
	}
	if _, err := NewController(11, 4, 0); err == nil {
		t.Error("MinCBMBits 0 accepted")
	}
	if _, err := NewController(11, 4, 12); err == nil {
		t.Error("MinCBMBits > ways accepted")
	}
}

func TestControllerReset(t *testing.T) {
	c, _ := NewController(11, 4, 1)
	_ = c.SetCOS(1, MaskRange(0, 3))
	_ = c.Assign(5, 1)
	c.Reset()
	if c.COSOf(5) != 0 {
		t.Error("association survived reset")
	}
	if _, err := c.COSMask(1); err == nil {
		t.Error("COS 1 survived reset")
	}
	if m, _ := c.COSMask(0); m != FullMask(11) {
		t.Error("COS 0 not restored")
	}
}

func TestSequentialLayout(t *testing.T) {
	masks, err := SequentialLayout([]int{2, 1, 5}, 11)
	if err != nil {
		t.Fatal(err)
	}
	want := []WayMask{MaskRange(0, 2), MaskRange(2, 1), MaskRange(3, 5)}
	for i := range want {
		if masks[i] != want[i] {
			t.Errorf("mask %d = %s, want %s", i, masks[i], want[i])
		}
	}
	// Disjointness.
	for i := range masks {
		for j := i + 1; j < len(masks); j++ {
			if masks[i].Overlaps(masks[j]) {
				t.Errorf("masks %d and %d overlap", i, j)
			}
		}
	}
	if _, err := SequentialLayout([]int{6, 6}, 11); err == nil {
		t.Error("overcommitted layout accepted")
	}
	if _, err := SequentialLayout([]int{0, 2}, 11); err == nil {
		t.Error("zero way count accepted")
	}
}

func TestOverlappingLowLayout(t *testing.T) {
	masks, err := OverlappingLowLayout([]int{1, 4, 11, 13}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if masks[0] != MaskRange(0, 1) || masks[1] != MaskRange(0, 4) {
		t.Error("low masks wrong")
	}
	if masks[2] != FullMask(11) || masks[3] != FullMask(11) {
		t.Error("clamping wrong")
	}
	if !masks[0].Overlaps(masks[1]) {
		t.Error("expected overlap")
	}
	if _, err := OverlappingLowLayout([]int{0}, 11); err == nil {
		t.Error("zero count accepted")
	}
}

func TestSamplingLayout(t *testing.T) {
	s, r, err := SamplingLayout(3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if s != MaskRange(0, 3) || r != MaskRange(3, 8) {
		t.Errorf("layout = %s / %s", s, r)
	}
	if s.Overlaps(r) {
		t.Error("sampling partitions overlap")
	}
	if (s | r) != FullMask(11) {
		t.Error("sampling partitions do not cover the LLC")
	}
	if _, _, err := SamplingLayout(0, 11); err == nil {
		t.Error("0-way sampling partition accepted")
	}
	if _, _, err := SamplingLayout(11, 11); err == nil {
		t.Error("full-LLC sampling partition accepted")
	}
}

func TestSharingGroups(t *testing.T) {
	masks := []WayMask{
		MaskRange(0, 2),  // 0: overlaps 1
		MaskRange(1, 3),  // 1
		MaskRange(5, 2),  // 2: isolated
		MaskRange(8, 3),  // 3: overlaps 4
		MaskRange(10, 1), // 4
	}
	groups := SharingGroups(masks)
	if len(groups) != 3 {
		t.Fatalf("groups = %v", groups)
	}
	sizes := map[int]int{}
	for _, g := range groups {
		sizes[len(g)]++
	}
	if sizes[2] != 2 || sizes[1] != 1 {
		t.Errorf("group sizes wrong: %v", groups)
	}
}

// Property: SequentialLayout masks are disjoint, contiguous, and their
// union has exactly sum(counts) ways.
func TestQuickSequentialLayout(t *testing.T) {
	f := func(raw []uint8) bool {
		counts := make([]int, 0, len(raw))
		total := 0
		for _, r := range raw {
			c := int(r%4) + 1
			if total+c > 20 {
				break
			}
			counts = append(counts, c)
			total += c
		}
		if len(counts) == 0 {
			return true
		}
		masks, err := SequentialLayout(counts, 20)
		if err != nil {
			return false
		}
		var union WayMask
		for i, m := range masks {
			if !m.Contiguous() || m.Count() != counts[i] {
				return false
			}
			if union.Overlaps(m) {
				return false
			}
			union |= m
		}
		return union.Count() == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MaskRange(lo,c) has count c and lowest bit lo when in range.
func TestQuickMaskRange(t *testing.T) {
	f := func(lo8, c8 uint8) bool {
		lo, c := int(lo8%20), int(c8%10)+1
		m := MaskRange(lo, c)
		return m.Count() == c && m.Lowest() == lo && m.Contiguous()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
