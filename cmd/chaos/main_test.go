package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"twolayer/internal/sim"
)

// runEnv marks a re-executed test binary that should run main() on its
// arguments instead of the tests.
const runEnv = "CHAOS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// chaos runs the command in a child process and returns its exit code,
// stdout and stderr.
func chaos(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), runEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	code := 0
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return code, stdout.String(), stderr.String()
}

// TestFlagMisuseExitsTwo: out-of-range flags are refused as usage errors
// before any cell runs or the CSV is written.
func TestFlagMisuseExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-outages", "0", "-period", "-1s"},
		{"-outages", "0", "-period", "0"},
		{"-outages", "0s", "-period", "0"},
		{"-drops", "NaN"},
		{"-latency", "-1ms"},
		{"-drops", "0,0.0"},
		{"-drops", "0.02,0,2e-2"},
		{"-outages", "0,0s"},
		{"-outages", "100ms,0.1s"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "chaos.csv")
			code, stdout, stderr := chaos(t, append([]string{"-scale", "tiny", "-drops", "0", "-outages", "0", "-no-cache", "-o", out}, args...)...)
			if code != 2 || stdout != "" {
				t.Errorf("exit %d, want 2 with empty stdout; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
			if strings.Contains(stderr, "panic:") {
				t.Errorf("panicked:\n%s", stderr)
			}
			if _, err := os.Stat(out); err == nil {
				t.Error("wrote the CSV")
			}
		})
	}
}

// TestTotalLossExitsThree: at 100% loss every reliable channel exhausts
// its retry cap. Under supervision the sweep keeps going, writes those
// cells as FAILED(retry-cap) rows beside the healthy ones, and exits 3.
func TestTotalLossExitsThree(t *testing.T) {
	out := filepath.Join(t.TempDir(), "chaos.csv")
	code, _, stderr := chaos(t, "-scale", "tiny", "-drops", "0,1", "-outages", "0", "-deadline", "120s", "-no-cache", "-o", out)
	if code != 3 {
		t.Fatalf("exit %d, want 3; stderr:\n%s", code, stderr)
	}
	if strings.Contains(stderr, "panic:") {
		t.Errorf("panicked:\n%s", stderr)
	}
	csv, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"FAILED(retry-cap)", ",ok,"} {
		if !strings.Contains(string(csv), want) {
			t.Errorf("CSV has no %q row:\n%s", want, csv)
		}
	}
}

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
		{"0,0", nil, false},
		{"0,0.0", nil, false},
		{"0.01,1,1e-2", nil, false},
		{"-0,0", nil, false},
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
		{"0", -period, nil, false},
		{"0", 0, nil, false},
		{"0s", 0, nil, false},
		{"", 0, nil, false},
		{"", -period, nil, false},
		{"0,0s", period, nil, false},
		{"100ms,0.1s", period, nil, false},
		{"0, 100ms,300ms,100000us", period, nil, false},
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

// FuzzParseDrops: no input panics, and every accepted rate is in [0,1]
// and given once.
func FuzzParseDrops(f *testing.F) {
	for _, s := range []string{"", "0", "0, 0.01,1", "1e-3", "-0.1", "NaN", "+Inf", "0,,1", "0x1p-2"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		rates, err := parseDrops(s)
		if err != nil {
			return
		}
		for i, v := range rates {
			if !(v >= 0 && v <= 1) || slices.Contains(rates[:i], v) {
				t.Fatalf("parseDrops(%q) accepted rate %v", s, v)
			}
		}
	})
}

// FuzzParseOutages: no input panics, every accepted duration is in
// [0, period) and given once, and a bare "0" gets the same verdict as "0s" wherever it
// appears in the list.
func FuzzParseOutages(f *testing.F) {
	for _, s := range []string{"", "0", "0s", "0, 100ms,300ms", "999ms", "1s", "-1ms", "100", "0,,1ms"} {
		f.Add(s, int64(sim.Second))
		f.Add(s, int64(0))
		f.Add(s, int64(-sim.Second))
	}
	f.Add("1ns", int64(1))
	f.Add("0", int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, s string, p int64) {
		period := sim.Time(p)
		durs, err := parseOutages(s, period)
		if err == nil {
			for i, d := range durs {
				if d < 0 || d >= period || slices.Contains(durs[:i], d) {
					t.Fatalf("parseOutages(%q, %v) accepted %v", s, period, d)
				}
			}
		}
		parts := strings.Split(s, ",")
		for i, part := range parts {
			if strings.TrimSpace(part) == "0" {
				parts[i] = "0s"
			}
		}
		if s2 := strings.Join(parts, ","); s2 != s {
			if _, err2 := parseOutages(s2, period); (err == nil) != (err2 == nil) {
				t.Fatalf("period %v: %q err %v, %q err %v", period, s, err, s2, err2)
			}
		}
	})
}
