//go:build !amd64 || purego

package cpufeat

// AVX2 is false wherever the probe is not built: other architectures, and
// purego builds, which carry no assembly at all.
var AVX2 = false
