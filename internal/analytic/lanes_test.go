package analytic

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"twolayer/internal/sim"
)

// laneFixture is one set of rows every lane kernel can run on: the rank,
// NIC, pipe and gateway rows, the transmission rows, the parameter columns
// and a few delivery rows.
type laneFixture struct {
	re, nic, wan, gw, tx, wtx laneRow
	cols                      laneCols
	delivered                 [4]laneRow
}

// laneValue draws one lane value: mostly small times, with negatives and
// values within a few thousand of MaxInt64 and MinInt64, so that sums
// wrap and max has to compare across the sign.
func laneValue(r *rand.Rand) sim.Time {
	switch r.Intn(6) {
	case 0:
		return sim.Time(-r.Int63n(1 << 40))
	case 1:
		return sim.Time(math.MaxInt64 - r.Int63n(5000))
	case 2:
		return sim.Time(math.MinInt64 + r.Int63n(5000))
	case 3:
		return sim.Time(r.Uint64())
	default:
		return sim.Time(r.Int63n(1 << 30))
	}
}

func (f *laneFixture) rows() []*laneRow {
	rows := []*laneRow{&f.re, &f.nic, &f.wan, &f.gw, &f.tx, &f.wtx,
		&f.cols.sendOv, &f.cols.ilRecv, &f.cols.ilWanPer, &f.cols.wanLat}
	for i := range f.delivered {
		rows = append(rows, &f.delivered[i])
	}
	return rows
}

func randomFixture(r *rand.Rand) *laneFixture {
	f := new(laneFixture)
	for _, row := range f.rows() {
		for lane := range row {
			row[lane] = laneValue(r)
		}
	}
	return f
}

// laneCase is one kernel call on a fixture. alias picks the receive row of
// a send: 0 is the rank row itself (an unfused send), 1 is the send's own
// delivery row (a fused receive whose slot the send took over), 2 another
// delivery row.
type laneCase struct {
	kind  uint8 // 0 span, 1 receive run, 2 local send, 3 wide-area send
	alias uint8
	d     sim.Time
	slots []int32
}

func (c laneCase) run(f *laneFixture, vector bool) {
	dr := &f.re
	switch c.alias % 3 {
	case 1:
		dr = &f.delivered[0]
	case 2:
		dr = &f.delivered[1]
	}
	switch k := c.kind % 4; {
	case k == 0 && vector:
		spanAddAVX2(&f.re, c.d)
	case k == 0:
		spanAddGo(&f.re, c.d)
	case k == 1 && vector:
		recvMergeAVX2(&f.re, f.delivered[:], c.slots)
	case k == 1:
		recvMergeGo(&f.re, f.delivered[:], c.slots)
	case k == 2 && vector:
		sendLocalAVX2(&f.re, dr, &f.delivered[0], &f.nic, &f.tx, &f.cols)
	case k == 2:
		sendLocalGo(&f.re, dr, &f.delivered[0], &f.nic, &f.tx, &f.cols)
	case vector:
		sendWANAVX2(&f.re, dr, &f.delivered[0], &f.nic, &f.wan, &f.gw, &f.tx, &f.wtx, &f.cols)
	default:
		sendWANGo(&f.re, dr, &f.delivered[0], &f.nic, &f.wan, &f.gw, &f.tx, &f.wtx, &f.cols)
	}
}

// checkLaneCase runs c through the vector kernel and through the Go body on
// copies of f and requires every row to come out identical.
func checkLaneCase(t *testing.T, f *laneFixture, c laneCase) {
	t.Helper()
	vec, ref := *f, *f
	c.run(&vec, true)
	c.run(&ref, false)
	if vec != ref {
		vr, rr := vec.rows(), ref.rows()
		for i := range vr {
			for lane := range vr[i] {
				if vr[i][lane] != rr[i][lane] {
					t.Fatalf("kernel %d (alias %d): row %d lane %d: vector %d, Go %d",
						c.kind%4, c.alias%3, i, lane, vr[i][lane], rr[i][lane])
				}
			}
		}
	}
}

// TestLaneKernelsMatchGo is the differential test of the vector lane
// kernels against their Go bodies: random rows with wrapping sums and
// mixed signs, every aliasing the walk allows, receive runs of every
// length up to and past the fixture's row count (slots repeat).
func TestLaneKernelsMatchGo(t *testing.T) {
	if !vectorLanes() {
		t.Skip("no vector lane kernels in this build or on this CPU")
	}
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 2000; i++ {
		f := randomFixture(r)
		slots := make([]int32, r.Intn(7))
		for j := range slots {
			slots[j] = int32(r.Intn(len(f.delivered)))
		}
		checkLaneCase(t, f, laneCase{kind: uint8(i), alias: uint8(i / 4), d: laneValue(r), slots: slots})
	}
}

// FuzzLaneKernels drives the same differential from fuzzer bytes: the row
// values, the kernel, the aliasing and the receive run.
func FuzzLaneKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3), uint8(1), []byte{0, 1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1}, uint8(2), uint8(0), []byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80}, uint8(1), uint8(2), []byte{3, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte, kind, alias uint8, slotBytes []byte) {
		if !vectorLanes() {
			t.Skip("no vector lane kernels in this build or on this CPU")
		}
		if len(data) == 0 {
			data = []byte{0}
		}
		fx := new(laneFixture)
		var word [8]byte
		pos := 0
		next := func() sim.Time {
			for k := range word {
				word[k] = data[(pos+k)%len(data)]
			}
			pos++
			return sim.Time(binary.LittleEndian.Uint64(word[:]))
		}
		for _, row := range fx.rows() {
			for lane := range row {
				row[lane] = next()
			}
		}
		slots := make([]int32, len(slotBytes))
		for j, s := range slotBytes {
			slots[j] = int32(s) % int32(len(fx.delivered))
		}
		checkLaneCase(t, fx, laneCase{kind: kind, alias: alias, d: next(), slots: slots})
	})
}
