// Package fft implements the paper's 1-D Fast Fourier Transform using the
// transpose (six-step) algorithm: three all-to-all matrix transposes
// interspersed with independent row FFTs and a twiddle multiplication.
//
// Communication pattern (Table 2): "Pers All to All" — personalized
// all-to-all exchanges with very little computation between them. The paper
// found no cluster-aware optimization for this pattern; FFT is the
// reminder that some programs are unsuited for highly non-uniform
// interconnects, so Job(optimized) runs the identical program.
package fft

import (
	"fmt"
	"math"
	"math/cmplx"

	"twolayer/internal/apps"
	"twolayer/internal/par"
	"twolayer/internal/sim"
)

// Config sizes an FFT run and sets its cost model.
type Config struct {
	// N is the number of complex points; must be an even power of two so
	// the matrix is square (side = sqrt(N)).
	N int
	// Seed makes the input deterministic.
	Seed int64
	// OpCost is the virtual time charged per butterfly operation.
	OpCost sim.Time
	// TwiddleCost is the virtual time charged per twiddle multiplication.
	TwiddleCost sim.Time
	// BytesPerElem is the simulated wire size of one complex element;
	// inflated above the physical 16 bytes so the reduced point count
	// carries the paper's 2^20-point communication volume.
	BytesPerElem int64
}

// Info is the registry entry (Table 2 row).
var Info = apps.Info{
	Name:         "FFT",
	Pattern:      "Pers All to All",
	Optimization: "(none found)",
	HasOptimized: false,
	New:          func(s apps.Scale, procs int) apps.Instance { return New(ConfigFor(s), procs) },
}

// ConfigFor returns the configuration for a scale. Paper scale is
// calibrated against Table 1: speedup 32.9 (superlinear from cache effects,
// which the model cannot reproduce; we approach 32), 128 MByte/s traffic,
// 0.26 s runtime on 32 processors.
func ConfigFor(s apps.Scale) Config {
	switch s {
	case apps.Tiny:
		return Config{N: 256, Seed: 2, OpCost: sim.Microsecond,
			TwiddleCost: 200 * sim.Nanosecond, BytesPerElem: 16}
	case apps.Small:
		return Config{N: 4096, Seed: 2, OpCost: 2 * sim.Microsecond,
			TwiddleCost: 400 * sim.Nanosecond, BytesPerElem: 64}
	default:
		return Config{N: 1 << 16, Seed: 2, OpCost: 14 * sim.Microsecond,
			TwiddleCost: 3 * sim.Microsecond, BytesPerElem: 180}
	}
}

// FFT is one configured instance.
type FFT struct {
	cfg    Config
	procs  int
	side   int
	result []complex128
}

// New builds an instance for the given processor count.
func New(cfg Config, procs int) *FFT {
	side := 1
	for side*side < cfg.N {
		side <<= 1
	}
	if side*side != cfg.N {
		panic(fmt.Sprintf("fft: N=%d is not an even power of two", cfg.N))
	}
	return &FFT{cfg: cfg, procs: procs, side: side, result: make([]complex128, cfg.N)}
}

// rowsOf returns the matrix row range [lo, hi) owned by rank r.
func (f *FFT) rowsOf(r int) (lo, hi int) {
	return r * f.side / f.procs, (r + 1) * f.side / f.procs
}

// Job returns the SPMD body; the optimized flag is ignored (no optimization
// exists for the transpose pattern).
func (f *FFT) Job(bool) par.Job {
	return func(e *par.Env) { f.run(e) }
}

// blockMsg is a transpose's message: the sender's whole row set, sent as
// *blockMsg, one per phase to every peer. rows[i][j] is the element at
// global (rowLo+i, j) before transposing; a receiver reads its own columns
// of it. Every row set is written before it is sent and never after (the
// input rows are the memoized vector itself), so no buffer needs a proof
// that its receivers are done with it.
type blockMsg struct {
	rowLo int // sender's first global row
	rows  [][]complex128
}

// transpose performs one distributed matrix transpose (phase selects the
// tag block). mat holds this rank's rows; out receives this rank's rows of
// the transposed matrix.
func (f *FFT) transpose(e *par.Env, phase int, mat, out [][]complex128) {
	p := e.Size()
	r := e.Rank()
	myLo, myHi := f.rowsOf(r)
	tag := par.Tag(100 + phase)

	// Send each peer the row set; the bytes are the sub-block that lands
	// in its rows.
	msg := &blockMsg{myLo, mat}
	for s := 0; s < p; s++ {
		if s == r {
			continue
		}
		sLo, sHi := f.rowsOf(s)
		elems := len(mat) * (sHi - sLo)
		e.Send(s, tag, msg, 32+int64(elems)*f.cfg.BytesPerElem)
	}

	// Assemble my rows of the transposed matrix: element (srcLo+i, myLo+j)
	// lands at (myLo+j, srcLo+i).
	place := func(srcLo int, rows [][]complex128) {
		for i, row := range rows {
			for j, v := range row[myLo:myHi] {
				out[j][srcLo+i] = v
			}
		}
	}
	place(myLo, mat)
	e.RecvN(par.AnySender, tag, p-1, func(m par.Msg) {
		bm := m.Data.(*blockMsg)
		place(bm.rowLo, bm.rows)
	})
}

// rowsIn returns n row headers of length side over one backing array.
func rowsIn(flat []complex128, n, side int) [][]complex128 {
	rows := make([][]complex128, n)
	for i := range rows {
		rows[i] = flat[i*side : (i+1)*side : (i+1)*side]
	}
	return rows
}

func (f *FFT) run(e *par.Env) {
	cfg := f.cfg
	r := e.Rank()
	lo, hi := f.rowsOf(r)
	side := f.side
	n := hi - lo

	// Each transpose writes into a row set that the next phase works on in
	// place and the next transpose sends: the input rows are views of the
	// memoized vector A[i][j] = x[i*side+j] (zero virtual cost, never
	// written), A and B get one backing array each, and the last transpose
	// places straight into this rank's rows of the result.
	x := randomInput(cfg.N, cfg.Seed)
	in := rowsIn(x[lo*side:hi*side], n, side)
	a := rowsIn(make([]complex128, n*side), n, side)
	b := rowsIn(make([]complex128, n*side), n, side)
	res := rowsIn(f.result[lo*side:hi*side], n, side)

	// Step 1: transpose.
	f.transpose(e, 0, in, a)
	// Step 2: FFT each row.
	var ops int64
	for _, row := range a {
		ops += iterFFT(row)
	}
	e.ComputeUnits(ops, cfg.OpCost)
	// Step 3: twiddle — element at global (j, i') gains w_n^{j*i'}, from
	// the memoized factor matrix.
	tw := step3Twiddles(cfg.N, side)
	for i, row := range a {
		twRow := tw[(lo+i)*side : (lo+i+1)*side]
		for ip := range row {
			row[ip] *= twRow[ip]
		}
	}
	e.ComputeUnits(int64(n*side), cfg.TwiddleCost)
	// Step 4: transpose.
	f.transpose(e, 1, a, b)
	// Step 5: FFT each row.
	ops = 0
	for _, row := range b {
		ops += iterFFT(row)
	}
	e.ComputeUnits(ops, cfg.OpCost)
	// Step 6: transpose; rows of the result, read row-major, are the DFT.
	f.transpose(e, 2, b, res)
}

// Check verifies the distributed transform against the sequential FFT.
func (f *FFT) Check() error {
	want := seqFFT(randomInput(f.cfg.N, f.cfg.Seed))
	scale := math.Sqrt(float64(f.cfg.N)) // typical output magnitude
	for i := range want {
		if cmplx.Abs(f.result[i]-want[i]) > 1e-8*scale {
			return fmt.Errorf("fft: element %d = %v, want %v", i, f.result[i], want[i])
		}
	}
	return nil
}
