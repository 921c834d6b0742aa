package cliutil

import "testing"

func TestApplyWorkers(t *testing.T) {
	for _, ok := range []int{-1, 0} {
		if err := ApplyWorkers(ok); err != nil {
			t.Errorf("ApplyWorkers(%d): %v", ok, err)
		}
	}
	for _, bad := range []int{-7, -2, 1, 4} {
		if err := ApplyWorkers(bad); err == nil {
			t.Errorf("ApplyWorkers(%d) accepted", bad)
		}
	}
}
