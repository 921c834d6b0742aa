package asp

// Differential tests pinning the relaxation kernel and the block-copy
// graph constructor against their naive forms. relaxRows is pure int32
// arithmetic, so "identical" here means exactly identical matrices.

import (
	"math/rand"
	"testing"
)

// naiveRelaxRows is the textbook Floyd-Warshall inner update, with no
// hoisting and no guard reordering.
func naiveRelaxRows(rows [][]int32, rowk []int32, k int) {
	for i := range rows {
		if rows[i][k] >= inf {
			continue
		}
		for j := range rowk {
			if v := rows[i][k] + rowk[j]; v < rows[i][j] {
				rows[i][j] = v
			}
		}
	}
}

func randomMatrix(rng *rand.Rand, n int) [][]int32 {
	m := make([][]int32, n)
	for i := range m {
		m[i] = make([]int32, n)
		for j := range m[i] {
			switch {
			case i == j:
				m[i][j] = 0
			case rng.Intn(4) == 0:
				m[i][j] = inf
			default:
				m[i][j] = int32(1 + rng.Intn(1000))
			}
		}
	}
	return m
}

func TestRelaxRowsIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(129) // up to 130: whole 8-lane blocks and a tail
		got := randomMatrix(rng, n)
		want := make([][]int32, n)
		for i := range got {
			want[i] = append([]int32(nil), got[i]...)
		}
		for k := 0; k < n; k++ {
			relaxRows(got, got[k], k)
			naiveRelaxRows(want, want[k], k)
		}
		for i := range got {
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("n=%d: d[%d][%d] = %d, naive = %d", n, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestRandomGraphRowsMatchesFullCopy checks the block constructor returns
// exactly the rows the full-matrix constructor would.
func TestRandomGraphRowsMatchesFullCopy(t *testing.T) {
	const n, seed = 48, 4
	full := randomGraph(n, seed)
	for _, span := range [][2]int{{0, n}, {0, 1}, {n - 1, n}, {13, 29}} {
		lo, hi := span[0], span[1]
		rows := randomGraphRows(n, seed, lo, hi)
		if len(rows) != hi-lo {
			t.Fatalf("[%d,%d): got %d rows", lo, hi, len(rows))
		}
		for i := range rows {
			for j := range rows[i] {
				if rows[i][j] != full[lo+i][j] {
					t.Fatalf("[%d,%d): row %d col %d = %d, full = %d",
						lo, hi, i, j, rows[i][j], full[lo+i][j])
				}
			}
		}
	}
}

// TestRandomGraphRowsAreWritable checks the block rows are private copies
// with capped capacity: writing one row can touch neither the pristine
// shared matrix nor a neighbouring row.
func TestRandomGraphRowsAreWritable(t *testing.T) {
	const n, seed = 48, 4
	a := randomGraphRows(n, seed, 10, 12)
	b := randomGraphRows(n, seed, 10, 12)
	a[0][0] = -99
	a[1][n-1] = -98
	if b[0][0] == -99 || b[1][n-1] == -98 {
		t.Fatal("block copies alias the pristine matrix")
	}
	if cap(a[0]) != n {
		t.Fatalf("row capacity %d; want %d (full slice expressions prevent cross-row append bleed)", cap(a[0]), n)
	}
}
