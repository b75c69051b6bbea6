package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"
)

// refsJSON holds the recorded reference outputs of every generator table
// entry. They were recorded by --record at a commit whose outputs the
// repository's own golden tests pin; a change meant only to speed the
// program up must reproduce them exactly.
//
//go:embed refs.json
var refsJSON []byte

// refs maps each table entry to the digest of its output.
type refs struct {
	// Campaign: campaign base seed → digest of campaign.SortedBytes of
	// the finished store.
	Campaign map[string]string `json:"campaign"`
	// Algorithm1: pipeline seed → digest of the profile series each
	// analysis read and of every per-group and roll analysis.
	Algorithm1 map[string]string `json:"algorithm1"`
	// Daemon: table index → digest of the served result (ID + summary).
	Daemon map[string]string `json:"daemon"`
}

func loadRefs() (*refs, error) {
	var r refs
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return &r, nil
}

// digest is the first 64 bits of the SHA-256 of b, in hex.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func key(v int64) string { return strconv.FormatInt(v, 10) }

// check compares an output digest with its reference. A missing
// reference is an error of the benchmark, not of the program.
func check(table map[string]string, k, got string) (bool, error) {
	want, ok := table[k]
	if !ok {
		return false, fmt.Errorf("no recorded reference for table entry %s", k)
	}
	return got == want, nil
}

// recordRefs runs every table entry of every workload and writes the
// digests of their outputs to path.
func recordRefs(path, dir string, log io.Writer) error {
	r := refs{
		Campaign:   make(map[string]string),
		Algorithm1: make(map[string]string),
		Daemon:     make(map[string]string),
	}
	start := time.Now()
	if err := recordCampaign(&r, dir, log); err != nil {
		return err
	}
	fmt.Fprintf(log, "record: campaign done in %s\n", time.Since(start).Round(time.Second))
	if err := recordAlgorithm1(&r, log); err != nil {
		return err
	}
	fmt.Fprintf(log, "record: algorithm1 done in %s\n", time.Since(start).Round(time.Second))
	if err := recordDaemon(&r, dir, log); err != nil {
		return err
	}
	fmt.Fprintf(log, "record: daemon done in %s\n", time.Since(start).Round(time.Second))
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
