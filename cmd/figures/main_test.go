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
const runEnv = "FIGURES_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// figures runs the command in a child process and returns its exit code,
// stdout and stderr.
func figures(t *testing.T, args ...string) (int, string, string) {
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

// TestRefusalsBeforeOutput: a combination no selected study can answer —
// one the capability table refuses, or a -wan-topology a study does not
// read — exits 2 before the first study prints, and never panics.
func TestRefusalsBeforeOutput(t *testing.T) {
	for _, args := range [][]string{
		{"-table2", "-topology", "-analytic"},
		{"-heatmap", "-heatmap-size", "2", "-apps", "TSP", "-wan-topology", "ring"},
		{"-shapes", "-wan-topology", "ring"},
		{"-variability", "-analytic"},
		{"-regimes", "-analytic"},
		{"-table2", "-fig3", "-analytic", "-wan-topology", "ring"},
		{"-table2", "-scale", "huge"},
		{"-table2", "-heatmap", "-heatmap-size", "1"},
		{"-table2", "-heatmap", "-heatmap-size", "0"},
		{"-table2", "-topology", "-topology-clusters", "3"},
		{"-table2", "-topology", "-topology-specs", "bogus"},
		{"-table2", "-topology", "-topology-specs", "ring,"},
		{"-table2", "-topology", "-topology-specs", ","},
		{"-topology", "-topology-procs", "-5"},
		{"-table2", "-topology", "-topology-clusters", "4,4"},
		{"-table2", "-topology", "-topology-specs", "clique,clique"},
		{"-table2", "-topology", "-apps", "ASP,ASP"},
		{"-table2", "-regimes", "-apps", "TSP,TSP"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			code, stdout, stderr := figures(t, append([]string{"-scale", "tiny", "-no-cache"}, args...)...)
			if code != 2 || stdout != "" {
				t.Errorf("exit %d, want 2 with empty stdout; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
			if strings.Contains(stderr, "panic:") {
				t.Errorf("panicked:\n%s", stderr)
			}
		})
	}
}

// TestFigure3ReadsWANTopology: the simulated Figure 3 reads
// -wan-topology, multi-hop ring included.
func TestFigure3ReadsWANTopology(t *testing.T) {
	code, stdout, stderr := figures(t, "-scale", "tiny", "-no-cache", "-fig3", "-csv", "-apps", "TSP", "-wan-topology", "ring")
	if code != 0 || !strings.HasPrefix(stdout, "Figure 3: ") {
		t.Errorf("exit %d; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

// TestTable1Figure1ReplayFromCache: Table 1 and Figure 1 run through the
// run cache, so a second run with the same -cache-dir replays all 24 runs
// (18 Table 1 runs, 6 Figure 1 runs) from disk and prints the same tables.
func TestTable1Figure1ReplayFromCache(t *testing.T) {
	args := []string{"-table1", "-fig1", "-scale", "tiny", "-cache-dir", t.TempDir()}
	code, cold, stderr := figures(t, args...)
	if code != 0 || !strings.Contains(stderr, "0 disk hits, 24 simulated") {
		t.Fatalf("cold run: exit %d, stderr:\n%s", code, stderr)
	}
	code, warm, stderr := figures(t, args...)
	if code != 0 || !strings.Contains(stderr, "24 disk hits, 0 simulated") {
		t.Fatalf("warm run: exit %d, stderr:\n%s", code, stderr)
	}
	if warm != cold {
		t.Errorf("warm stdout differs from cold:\n%s\nvs\n%s", warm, cold)
	}
}
