package cliutil

import (
	"fmt"

	"twolayer/internal/apps"
	"twolayer/internal/topology"
)

// Scale resolves the shared -scale flag: tiny, small or paper. A bad name
// is flag misuse — the caller maps the error to ExitUsage.
func Scale(name string) (apps.Scale, error) {
	for _, s := range []apps.Scale{apps.Tiny, apps.Small, apps.Paper} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("-scale: unknown scale %q (want tiny, small or paper)", name)
}

// Machine builds the uniform machine of the shared -clusters and
// -percluster flags; topology.Uniform validates them. A bad value is flag
// misuse — the caller maps the error to ExitUsage.
func Machine(clusters, perCluster int) (*topology.Topology, error) {
	t, err := topology.Uniform(clusters, perCluster)
	if err != nil {
		return nil, fmt.Errorf("-clusters %d -percluster %d: %w", clusters, perCluster, err)
	}
	return t, nil
}
