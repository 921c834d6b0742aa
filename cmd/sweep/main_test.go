package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runEnv marks a re-executed test binary that should run main() on its
// arguments instead of the tests.
const runEnv = "SWEEP_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// sweep runs the command in a child process and returns its exit code,
// stdout and stderr.
func sweep(t *testing.T, args ...string) (int, string, string) {
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

// TestFlagMisuseExitsTwo: contradictory or out-of-range flags are refused
// as usage errors before anything runs, never as a panic.
func TestFlagMisuseExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "-analytic"},
		{"-trace", "-wan-topology", "torus2"},
		{"-trace-full"},
		{"-latency", "-1ms"},
		{"-bandwidth", "NaN"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			code, _, stderr := sweep(t, append([]string{"-scale", "tiny", "-no-cache"}, args...)...)
			if code != 2 {
				t.Errorf("exit %d, want 2; stderr:\n%s", code, stderr)
			}
			if strings.Contains(stderr, "panic:") {
				t.Errorf("panicked:\n%s", stderr)
			}
		})
	}
}

// TestTraceReport: -trace prints every section, timeline and busiest pairs
// included, and two runs print byte-identical reports.
func TestTraceReport(t *testing.T) {
	args := []string{"-scale", "tiny", "-trace", "-no-cache"}
	code, first, stderr := sweep(t, args...)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	for _, section := range []string{
		"\ntrace: ", "communication matrix (32 ranks", "compute utilization over",
		"wide-area traffic over time (", "\nbusiest pairs:\n",
	} {
		if !strings.Contains(first, section) {
			t.Errorf("report lacks %q:\n%s", section, first)
		}
	}
	if _, second, _ := sweep(t, args...); second != first {
		t.Errorf("reruns differ:\n%s\n---\n%s", first, second)
	}
}
