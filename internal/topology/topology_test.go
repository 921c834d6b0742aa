package topology

import (
	"testing"
	"testing/quick"
)

func TestNewRejectsBadShapes(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty shape should fail")
	}
	if _, err := New([]int{4, 0, 4}); err == nil {
		t.Error("zero-size cluster should fail")
	}
	if _, err := Uniform(0, 8); err == nil {
		t.Error("zero clusters should fail")
	}
}

func TestDASShape(t *testing.T) {
	d := DAS()
	if d.Clusters() != 4 || d.Procs() != 32 {
		t.Fatalf("DAS = %d clusters, %d procs", d.Clusters(), d.Procs())
	}
	if d.String() != "4x8" {
		t.Errorf("String = %q", d.String())
	}
	if d.WANLinks() != 12 {
		t.Errorf("WANLinks = %d, want 12 (paper: 12 wide-area links)", d.WANLinks())
	}
}

func TestRankMapping(t *testing.T) {
	tp, err := New([]int{3, 5, 2})
	if err != nil {
		t.Fatal(err)
	}
	if tp.Procs() != 10 {
		t.Fatalf("procs = %d", tp.Procs())
	}
	wantCluster := []int{0, 0, 0, 1, 1, 1, 1, 1, 2, 2}
	for r, want := range wantCluster {
		if got := tp.ClusterOf(r); got != want {
			t.Errorf("ClusterOf(%d) = %d, want %d", r, got, want)
		}
	}
	if tp.FirstRank(1) != 3 || tp.FirstRank(2) != 8 {
		t.Errorf("FirstRank wrong: %d %d", tp.FirstRank(1), tp.FirstRank(2))
	}
	if tp.RankInCluster(6) != 3 {
		t.Errorf("RankInCluster(6) = %d", tp.RankInCluster(6))
	}
	got := tp.RanksIn(2)
	if len(got) != 2 || got[0] != 8 || got[1] != 9 {
		t.Errorf("RanksIn(2) = %v", got)
	}
	if !tp.SameCluster(3, 7) || tp.SameCluster(2, 3) {
		t.Error("SameCluster wrong")
	}
	if tp.String() != "3,5,2" {
		t.Errorf("String = %q", tp.String())
	}
}

// Property: for any valid shape, the rank maps are mutually consistent.
func TestRankMappingProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		var sizes []int
		for _, v := range raw {
			sizes = append(sizes, int(v%7)+1)
			if len(sizes) == 6 {
				break
			}
		}
		if len(sizes) == 0 {
			return true
		}
		tp, err := New(sizes)
		if err != nil {
			return false
		}
		for c := 0; c < tp.Clusters(); c++ {
			for i, r := range tp.RanksIn(c) {
				if tp.ClusterOf(r) != c || tp.RankInCluster(r) != i {
					return false
				}
				if tp.FirstRank(c)+i != r {
					return false
				}
			}
		}
		total := 0
		for c := 0; c < tp.Clusters(); c++ {
			total += tp.ClusterSize(c)
		}
		return total == tp.Procs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSingleCluster(t *testing.T) {
	s := SingleCluster(32)
	if s.Clusters() != 1 || s.Procs() != 32 || s.WANLinks() != 0 {
		t.Errorf("SingleCluster wrong: %v", s)
	}
}
