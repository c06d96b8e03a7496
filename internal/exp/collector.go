package exp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// recordLine is one checkpointed unit in the JSONL stream (DESIGN.md
// §10). The resume key is the (Key, FP, Unit, Seed) quadruple: a line is
// only reused for a plan unit when all four match, so edited specs (new
// fingerprint), renamed experiments (new key), or reseeded sweeps (new
// unit seed) re-run instead of silently reusing stale data.
type recordLine struct {
	// Key is the plan key of the spec ("fig8/nectar/t=3").
	Key string `json:"spec"`
	// FP is the short hash of the runner's fingerprint.
	FP string `json:"fp"`
	// Unit is the unit index within the spec.
	Unit int `json:"unit"`
	// Seed is the unit's derived seed.
	Seed int64 `json:"seed"`
	// Data is the unit's record (a harness.Trial, DynamicTrial, or
	// red-team search outcome), exactly as the adapter marshals it.
	Data json.RawMessage `json:"data"`
}

type resumeKey struct {
	key  string
	fp   string
	unit int
	seed int64
}

// Collector streams per-unit records to a JSONL checkpoint file as units
// complete and, when resuming, serves previously completed units back to
// the scheduler so they are not re-run. Safe for concurrent Append.
type Collector struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	seen map[resumeKey]json.RawMessage
}

// OpenCollector opens (or creates) the JSONL checkpoint at path. With
// resume=true, existing records are loaded and appended to; otherwise the
// file is truncated and the sweep starts clean. Unparseable lines are
// skipped, and a last line without its newline — a write cut short by the
// crash being resumed from — is cut off, so the first record appended
// starts a line of its own rather than extending the torn one.
func OpenCollector(path string, resume bool) (*Collector, error) {
	c := &Collector{seen: make(map[resumeKey]json.RawMessage)}
	flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if resume {
		flags = os.O_CREATE | os.O_RDWR
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("exp: open %s: %w", path, err)
	}
	if resume {
		if err := c.resume(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("exp: resume %s: %w", path, err)
		}
	}
	c.f = f
	c.w = bufio.NewWriter(f)
	return c, nil
}

// resume loads the checkpoint's whole lines, truncates f after the last
// of them and leaves the offset there.
func (c *Collector) resume(f *os.File) error {
	data, err := io.ReadAll(f)
	if err != nil {
		return err
	}
	whole := bytes.LastIndexByte(data, '\n') + 1
	c.load(data[:whole])
	if whole < len(data) {
		if err := f.Truncate(int64(whole)); err != nil {
			return err
		}
	}
	_, err = f.Seek(int64(whole), io.SeekStart)
	return err
}

// load indexes the parseable lines of data, which ends in a newline.
func (c *Collector) load(data []byte) {
	for len(data) > 0 {
		end := bytes.IndexByte(data, '\n')
		line := data[:end]
		data = data[end+1:]
		var rec recordLine
		if err := json.Unmarshal(line, &rec); err != nil || rec.Data == nil {
			continue // a line the interrupted run left damaged
		}
		c.seen[resumeKey{rec.Key, rec.FP, rec.Unit, rec.Seed}] = rec.Data
	}
}

// Resumed counts the checkpointed records loaded at open: the distinct
// units among the file's whole lines that parse.
func (c *Collector) Resumed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.seen)
}

// Lookup returns the checkpointed record for a unit, if present.
func (c *Collector) Lookup(key, fp string, unit int, seed int64) (json.RawMessage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, ok := c.seen[resumeKey{key, fp, unit, seed}]
	return data, ok
}

// Append checkpoints one completed unit. Each record is flushed to the OS
// immediately — a killed sweep loses at most the units still in flight.
func (c *Collector) Append(key, fp string, unit int, seed int64, data json.RawMessage) error {
	line, err := json.Marshal(recordLine{Key: key, FP: fp, Unit: unit, Seed: seed, Data: data})
	if err != nil {
		return fmt.Errorf("exp: marshal record %s/%d: %w", key, unit, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("exp: append %s/%d: %w", key, unit, err)
	}
	return c.w.Flush()
}

// Close flushes and closes the checkpoint file.
func (c *Collector) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.w.Flush()
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	c.f = nil
	return err
}
