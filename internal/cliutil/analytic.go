package cliutil

import (
	"flag"
	"fmt"

	"twolayer/internal/core"
)

// Analytic collects the shared analytic-mode flag values after parsing.
type Analytic struct {
	Enabled   bool
	Tolerance float64
}

// RegisterAnalytic installs the shared analytic-mode flags on the process
// flag set: -analytic switches a sweep from simulating every grid cell to
// recording one dependency graph per variant at the reference network point
// and solving the rest analytically; -analytic-tolerance bounds the matched
// replay's self-check error at the reference. Parse flags, then call
// Validate.
func RegisterAnalytic() *Analytic {
	a := &Analytic{}
	flag.BoolVar(&a.Enabled, "analytic", false,
		"answer the sweep from one recorded dependency graph per variant "+
			"(simulate once at the reference point, re-cost wide-area edges "+
			"everywhere else) instead of simulating every cell")
	flag.Float64Var(&a.Tolerance, "analytic-tolerance", core.DefaultAnalyticTolerance,
		"abort if the analytic replay's self-check error at the reference "+
			"point exceeds this fraction (must be in (0,1))")
	return a
}

// Options maps the parsed flags to the core solver options.
func (a *Analytic) Options() core.AnalyticOptions {
	return core.AnalyticOptions{Tolerance: a.Tolerance}
}

// Validate checks the parsed values; the caller maps an error to ExitUsage.
func (a *Analytic) Validate() error {
	if a.Tolerance <= 0 || a.Tolerance >= 1 {
		return fmt.Errorf("-analytic-tolerance must be in (0,1), got %g", a.Tolerance)
	}
	return nil
}
