package cliutil

import (
	"flag"
	"fmt"

	"twolayer/internal/regime"
)

// RegimeFlags holds the parsed shared -regime/-regime-seed flag values.
type RegimeFlags struct {
	Spec *string
	Seed *int64
}

// RegisterRegime installs the shared -regime and -regime-seed flags: a
// deterministic time-varying network regime applied to the wide-area layer
// (see package regime). Parse flags, then resolve with Params.
func RegisterRegime() RegimeFlags {
	return RegimeFlags{
		Spec: flag.String("regime", "",
			"dynamic network regime: '+'-joined clauses from "+regime.Grammar+
				" (e.g. 'diurnal:1s:8+churn:2s:500ms'); empty keeps the network stationary"),
		Seed: flag.Int64("regime-seed", 0,
			"seed for the regime's phases and churn victims (requires -regime)"),
	}
}

// Params validates the parsed flag values and returns the regime parameters.
// A bad spec (or a seed without a spec) is flag misuse — the caller maps the
// error to ExitUsage. The zero spec keeps the cache identity (and byte
// output) of runs that never mention a regime.
func (f RegimeFlags) Params() (regime.Params, error) {
	p := regime.Params{Spec: *f.Spec, Seed: *f.Seed}
	if err := p.Validate(); err != nil {
		return regime.Params{}, fmt.Errorf("-regime: %w", err)
	}
	return p, nil
}
