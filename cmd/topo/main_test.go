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
const runEnv = "TOPO_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// topo runs the command in a child process and returns its exit code,
// stdout and stderr.
func topo(t *testing.T, args ...string) (int, string, string) {
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

// TestFlagMisuseExitsTwo: a machine past the route-table caps, an empty
// machine and an unknown graph are refused as usage errors, never as a
// panic or an out-of-memory crash.
func TestFlagMisuseExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-clusters", "100000"},
		{"-wan-topology", "ring", "-clusters", "2048"},
		{"-clusters", "0"},
		{"-wan-topology", "hypercube"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			code, stdout, stderr := topo(t, args...)
			if code != 2 || stdout != "" {
				t.Errorf("exit %d, want 2 with empty stdout; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
			if strings.Contains(stderr, "panic:") || strings.Contains(stderr, "fatal error:") {
				t.Errorf("crashed:\n%s", stderr)
			}
		})
	}
}

// TestRoutesByteIdentical: the route listing of a torus is the same bytes
// on every run.
func TestRoutesByteIdentical(t *testing.T) {
	args := []string{"-routes", "-wan-topology", "torus2", "-clusters", "16"}
	code, first, stderr := topo(t, args...)
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(first, "wide-area graph:            torus:4x4") || !strings.Contains(first, "\nroutes (cluster -> cluster: node path):\n") {
		t.Errorf("output lacks the torus and its routes:\n%s", first)
	}
	if _, second, _ := topo(t, args...); second != first {
		t.Errorf("reruns differ:\n%s\n---\n%s", first, second)
	}
}
