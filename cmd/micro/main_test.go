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
const runEnv = "MICRO_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runMicro runs the command in a child process and returns its exit code,
// stdout and stderr.
func runMicro(t *testing.T, args ...string) (int, string, string) {
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

// TestFlagMisuseExitsTwo: out-of-range speeds, an empty machine, no
// repetitions, a negative payload and an unknown flag are refused as usage
// errors, never as a panic.
func TestFlagMisuseExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-latency", "-1ms"},
		{"-bandwidth", "-3"},
		{"-bandwidth", "NaN"},
		{"-clusters", "0"},
		{"-percluster", "0"},
		{"-reps", "0"},
		{"-bytes", "-1"},
		{"-no-such-flag"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			code, stdout, stderr := runMicro(t, args...)
			if code != 2 || stdout != "" {
				t.Errorf("exit %d, want 2 with empty stdout; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
			if strings.Contains(stderr, "panic:") || strings.Contains(stderr, "fatal error:") {
				t.Errorf("crashed:\n%s", stderr)
			}
		})
	}
}

// TestSmallRunRepeats: a small run of every pattern prints the same bytes
// twice.
func TestSmallRunRepeats(t *testing.T) {
	args := []string{"-clusters", "2", "-percluster", "2", "-reps", "2"}
	code, first, stderr := runMicro(t, args...)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"interconnect microbenchmarks on 2x2", "null-rpc", "stream", "all-to-all", "hot-spot"} {
		if !strings.Contains(first, want) {
			t.Errorf("output lacks %q:\n%s", want, first)
		}
	}
	if _, second, _ := runMicro(t, args...); second != first {
		t.Errorf("reruns differ:\n%s\n---\n%s", first, second)
	}
}

// TestCommittedOutputReproduces: the committed microbenchmark table,
// results/micro.txt, regenerates byte for byte from the default flags.
func TestCommittedOutputReproduces(t *testing.T) {
	want, err := os.ReadFile("../../results/micro.txt")
	if err != nil {
		t.Fatal(err)
	}
	code, got, stderr := runMicro(t)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	if got != string(want) {
		t.Errorf("output differs from results/micro.txt:\n%s", got)
	}
}
