package cliutil

import "fmt"

// ApplyWorkers validates an in-run worker count. Every run is one
// sequential kernel, so only -1 and 0, the two values that asked for it,
// are accepted.
func ApplyWorkers(n int) error {
	if n != -1 && n != 0 {
		return fmt.Errorf("in-run workers must be -1 or 0 (the sequential kernel), got %d", n)
	}
	return nil
}
