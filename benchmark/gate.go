package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"twolayer/internal/core"
)

// Reference verdicts.
const (
	gateMatch     = "match"
	gateStale     = "stale_reference"
	gateUnchecked = "unchecked"
)

// stampPrefix opens a reference the benchmark owns: the hash of the golden
// table the file was rendered under. A sanctioned golden update changes
// simulation outputs, so a reference stamped with another table is stale,
// not wrong.
const stampPrefix = "# goldens-sha256: "

// goldenHash identifies the tree's golden-determinism table.
func goldenHash() string {
	b, err := json.Marshal(core.GoldenRuns)
	if err != nil {
		panic(err) // a table of strings and integers always encodes
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkReference compares rendered output with a committed reference. A
// stamped reference whose stamp is not hash is stale; otherwise the bytes
// after the stamp line must equal out.
func checkReference(ref []byte, stamped bool, hash string, out []byte) (string, error) {
	if stamped {
		line, rest, ok := bytes.Cut(ref, []byte("\n"))
		stamp, isStamp := bytes.CutPrefix(line, []byte(stampPrefix))
		if !ok || !isStamp {
			return "", fmt.Errorf("reference has no %q line", stampPrefix)
		}
		if string(stamp) != hash {
			return gateStale, nil
		}
		ref = rest
	}
	if !bytes.Equal(ref, out) {
		return "", fmt.Errorf("output differs from the committed reference (%d vs %d bytes)", len(out), len(ref))
	}
	return gateMatch, nil
}

// referenceGate holds a pass's output to the workload's committed
// reference. Only the default seed at full scale renders what was
// committed; everything else relies on the gates every run gets (no FAILED
// cell, passes identical to each other).
func referenceGate(w *workload, in inputs, out []byte) (string, error) {
	if w.Reference == "" || !in.reference {
		return gateUnchecked, nil
	}
	ref, err := os.ReadFile(filepath.Join(repoRoot(), w.Reference))
	if err != nil {
		return "", err
	}
	verdict, err := checkReference(ref, w.Stamped, goldenHash(), out)
	if err != nil {
		return "", fmt.Errorf("%s: %w", w.Reference, err)
	}
	return verdict, nil
}

// writeReference stores out as the workload's stamped reference.
func writeReference(w *workload, out []byte) error {
	if !w.Stamped {
		return fmt.Errorf("%s has no reference of the benchmark's own", w.Name)
	}
	data := append([]byte(stampPrefix+goldenHash()+"\n"), out...)
	return os.WriteFile(filepath.Join(repoRoot(), w.Reference), data, 0o644)
}
