package main

import (
	"reflect"
	"testing"

	"twolayer/internal/sim"
)

func TestParseDrops(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []float64
		ok   bool
	}{
		{"", nil, true},
		{"0", []float64{0}, true},
		{"0, 0.01,1", []float64{0, 0.01, 1}, true},
		{"1e-3", []float64{0.001}, true},
		{"-0.1", nil, false},
		{"2", nil, false},
		{"NaN", nil, false},
		{"nan", nil, false},
		{"0,NaN", nil, false},
		{"Inf", nil, false},
		{"+Inf", nil, false},
		{"-Inf", nil, false},
		{"x", nil, false},
		{"0,,1", nil, false},
	} {
		got, err := parseDrops(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("parseDrops(%q): err = %v, want ok = %v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseDrops(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseOutages(t *testing.T) {
	const period = sim.Second
	ms := sim.Millisecond
	for _, tc := range []struct {
		in     string
		period sim.Time
		want   []sim.Time
		ok     bool
	}{
		{"", period, nil, true},
		{"", 300 * ms, nil, false}, // the default grid's 300ms does not fit
		{"0", period, []sim.Time{0}, true},
		{"0, 100ms,300ms", period, []sim.Time{0, 100 * ms, 300 * ms}, true},
		{"999ms", period, []sim.Time{999 * ms}, true},
		{"1s", period, nil, false},
		{"-1ms", period, nil, false},
		{"100", period, nil, false}, // no unit
		{"NaN", period, nil, false},
		{"Inf", period, nil, false},
		{"0,,1ms", period, nil, false},
	} {
		got, err := parseOutages(tc.in, tc.period)
		if (err == nil) != tc.ok {
			t.Errorf("parseOutages(%q, %v): err = %v, want ok = %v", tc.in, tc.period, err, tc.ok)
			continue
		}
		if tc.ok && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseOutages(%q, %v) = %v, want %v", tc.in, tc.period, got, tc.want)
		}
	}
}
