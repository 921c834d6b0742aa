package core

import (
	"encoding/json"
	"hash/fnv"
	"testing"

	"twolayer/internal/trace"
)

// TestStreamAggregatesPinned is the end-to-end check of the trace sink:
// every application variant of the golden configuration runs with a
// trace.Stream attached, and its aggregate views (Summary, CommMatrix,
// per-proc utilization, transport counters) serialize to JSON whose
// FNV-64a digest is pinned. The digests were taken when a second,
// retain-every-event sink still existed and agreed with the Stream byte for
// byte, so they pin the numbers that -trace reports.
func TestStreamAggregatesPinned(t *testing.T) {
	want := map[string]uint64{
		"Water/unopt":      0x4057ba2e0494aa5f,
		"Water/opt":        0x3cdb6a3aabe7ec7d,
		"Barnes-Hut/unopt": 0x1494b40619a5e128,
		"Barnes-Hut/opt":   0x08b6600ede63ced6,
		"TSP/unopt":        0x0a001311f46edf38,
		"TSP/opt":          0xc0b038881e526706,
		"ASP/unopt":        0xc8b011def71d1287,
		"ASP/opt":          0x81b34d23b59fcee4,
		"Awari/unopt":      0x52857fc5e6a13b7b,
		"Awari/opt":        0x7f76f5f654e070dc,
		"FFT/unopt":        0x308ed743ca713a8e,
	}
	for _, g := range GoldenRuns {
		g := g
		name := g.App + "/unopt"
		if g.Optimized {
			name = g.App + "/opt"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			x := goldenExperiment(t, g)
			st := trace.NewStream(x.Topo.Procs())
			x.Trace = st
			res, err := x.Run()
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(struct {
				Summary     trace.Summary        `json:"summary"`
				CommMatrix  [][]int64            `json:"comm_matrix"`
				Utilization []float64            `json:"utilization"`
				Transport   trace.TransportStats `json:"transport"`
			}{st.Summarize(), st.CommMatrix(), st.Utilization(res.Elapsed), st.TransportCounters()})
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(b)
			if got := h.Sum64(); got != want[name] {
				t.Errorf("aggregate digest %#016x, want %#016x\n%s", got, want[name], b)
			}
		})
	}
}
