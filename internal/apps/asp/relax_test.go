package asp

import (
	"math/rand"
	"testing"
)

// edgeValues are the distances the row primitive must get right: small
// weights, and the band around inf where a sum is still far from int32
// overflow (inf+100 + inf-1 < 1<<31).
var edgeValues = []int32{0, 1, 57, 1000, inf - 1, inf, inf + 100}

func fillEdge(rng *rand.Rand, s []int32) {
	for i := range s {
		s[i] = edgeValues[rng.Intn(len(edgeValues))]
	}
}

// TestRelaxRowMatchesFormula pins relaxRow — whichever body the build and
// the CPU selected — to dst[j] = min(dst[j], d+src[j]) element by element:
// every length that mixes 8-lane blocks with a tail, sub-slices at every
// element offset (the vector loads are unaligned), and no write outside
// dst.
func TestRelaxRowMatchesFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	lengths := []int{512}
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	const pad = 8
	for _, n := range lengths {
		for dstOff := 0; dstOff < 8; dstOff++ {
			srcOff := (dstOff*3 + 1) % 8
			for _, d := range []int32{0, 1, inf - 1} {
				dstBack := make([]int32, dstOff+n+pad)
				srcBack := make([]int32, srcOff+n+pad)
				fillEdge(rng, dstBack)
				fillEdge(rng, srcBack)
				want := append([]int32(nil), dstBack...)
				for j := 0; j < n; j++ {
					want[dstOff+j] = min(dstBack[dstOff+j], d+srcBack[srcOff+j])
				}
				relaxRow(dstBack[dstOff:dstOff+n], srcBack[srcOff:], d)
				for j := range want {
					if dstBack[j] != want[j] {
						t.Fatalf("n=%d dstOff=%d srcOff=%d d=%d: backing[%d] = %d, want %d",
							n, dstOff, srcOff, d, j, dstBack[j], want[j])
					}
				}
			}
		}
	}
}

// TestRelaxRowAliased covers dst and src being the same row, which is what
// sequentialASP passes when the pivot row relaxes itself.
func TestRelaxRowAliased(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 7, 8, 9, 31, 32, 33, 70, 512} {
		for _, d := range []int32{0, 1, inf - 1} {
			row := make([]int32, n)
			fillEdge(rng, row)
			want := make([]int32, n)
			for j, v := range row {
				want[j] = min(v, d+v)
			}
			relaxRow(row, row, d)
			for j := range want {
				if row[j] != want[j] {
					t.Fatalf("n=%d d=%d: row[%d] = %d, want %d", n, d, j, row[j], want[j])
				}
			}
		}
	}
}

// BenchmarkRelaxRows prices one pivot applied to a 16-row block of the
// Paper-scale matrix: what one of 32 ranks does per pivot. Bytes are the
// cells relaxed (read-modify-write of the block).
func BenchmarkRelaxRows(b *testing.B) {
	const n, block = 512, 16
	d := randomGraph(n, 4)
	sequentialASP(d) // stable distances: the steady state of a run
	rows, rowk := d[:block], d[n-1]
	b.SetBytes(block * n * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relaxRows(rows, rowk, n-1)
	}
}
