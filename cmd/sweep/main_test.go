package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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
		{"-trace-full"},
		{"-latency", "-1ms"},
		{"-bandwidth", "NaN"},
		{"-adaptive"},
		{"-analytic", "-regime", "diurnal"},
		{"-clusters", "3", "-percluster", "2", "-wan-topology", "ring", "-trace", "-analytic"},
		{"-scale", "huge"},
		{"-percluster", "0"},
		{"-tcp", "-1"},
		{"-analytic", "-verify"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			code, stdout, stderr := sweep(t, append([]string{"-scale", "tiny", "-no-cache"}, args...)...)
			if code != 2 || stdout != "" {
				t.Errorf("exit %d, want 2 with empty stdout; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
			if strings.Contains(stderr, "panic:") {
				t.Errorf("panicked:\n%s", stderr)
			}
		})
	}
}

// TestRefusedRunWritesProfiles: a run the capability table refuses after
// the profiles have started still exits through run's deferred writes, so
// it exits 2 with a non-empty CPU profile and a written heap profile.
func TestRefusedRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	code, stdout, stderr := sweep(t, "-app", "ASP", "-scale", "tiny", "-adaptive",
		"-cpuprofile", cpu, "-memprofile", mem, "-no-cache")
	if code != 2 || stdout != "" {
		t.Errorf("exit %d, want 2 with empty stdout; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	for _, f := range []string{cpu, mem} {
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s is missing or empty (stat error: %v)", filepath.Base(f), err)
		}
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

// TestTraceOnSingleHopRing: a ring on three clusters is not the clique but
// routes every pair in one hop; its trace is the pinned run.
func TestTraceOnSingleHopRing(t *testing.T) {
	code, stdout, stderr := sweep(t, "-scale", "tiny", "-no-cache", "-app", "TSP",
		"-clusters", "3", "-percluster", "2", "-wan-topology", "ring", "-trace")
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "runtime:            4.260ms") || !strings.Contains(stdout, "\nbusiest pairs:\n") {
		t.Errorf("report lacks the traced ring run:\n%s", stdout)
	}
}

// TestTraceOnMultiHop: a trace of a run on an eight-cluster torus counts
// one wide-area message per send (672), while the links count one per hop
// (1152), and a rerun prints the same bytes.
func TestTraceOnMultiHop(t *testing.T) {
	args := []string{"-scale", "tiny", "-no-cache", "-trace", "-wan-topology", "torus2", "-clusters", "8", "-percluster", "2"}
	code, first, stderr := sweep(t, args...)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"wide-area traffic:  1152 messages", "(672 wide-area)", "\nbusiest pairs:\n"} {
		if !strings.Contains(first, want) {
			t.Errorf("report lacks %q:\n%s", want, first)
		}
	}
	if _, second, _ := sweep(t, args...); second != first {
		t.Errorf("reruns differ:\n%s\n---\n%s", first, second)
	}
}

// TestSupervisedKillExitsThree: a run killed by its event budget exits 3
// with nothing on stdout and the shared failure report, diagnostics
// included, on stderr.
func TestSupervisedKillExitsThree(t *testing.T) {
	code, stdout, stderr := sweep(t, "-scale", "tiny", "-no-cache", "-verify=false", "-max-events", "1000")
	if code != 3 || stdout != "" {
		t.Fatalf("exit %d, want 3 with empty stdout; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	for _, want := range []string{"FAILED(event-budget)\n", "diagnostics of the first failure", "kind:            event-budget"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
}
