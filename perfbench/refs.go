package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"zeiot"
)

// jobSpec is one experiment configuration the benchmark runs or submits:
// the knobs a workload varies, on top of zeiotbench's defaults.
type jobSpec struct {
	Experiment  string
	Seed        uint64
	SampleScale float64 // 0 keeps the default scale (1)
}

func (j jobSpec) String() string {
	s := fmt.Sprintf("%s seed=%d", j.Experiment, j.Seed)
	if j.SampleScale != 0 {
		s += " samples=" + strconv.FormatFloat(j.SampleScale, 'g', -1, 64)
	}
	return s
}

// runConfig is the config `zeiotbench -e <id> -seed <s> [-samples <x>]`
// runs for this spec.
func (j jobSpec) runConfig() *zeiot.RunConfig {
	rc := zeiot.DefaultRunConfig()
	rc.Seed = j.Seed
	if j.SampleScale != 0 {
		rc.SampleScale = j.SampleScale
	}
	return rc
}

// body is the POST /jobs request for this spec.
func (j jobSpec) body() []byte {
	cfg := map[string]any{"Seed": j.Seed}
	if j.SampleScale != 0 {
		cfg["SampleScale"] = j.SampleScale
	}
	b, _ := json.Marshal(map[string]any{"experiment": j.Experiment, "config": cfg}) // maps of plain values always marshal
	return b
}

// reference is the expected outcome of a jobSpec: the bytes
// `zeiotbench -e <id> -json` prints for it, or the error its run fails with.
type reference struct {
	Bytes []byte
	Err   string
}

// encodeResult renders one result the way `zeiotbench -e <id> -json` does:
// a one-element array, two-space indent, trailing newline, with the
// wall-time Timings and the Metrics block stripped.
func encodeResult(res *zeiot.Result) ([]byte, error) {
	r := *res
	r.Timings, r.Metrics = nil, nil
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode([]*zeiot.Result{&r}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// diffBytes reports the first difference between got and want, or nil when
// they are identical.
func diffBytes(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	ctx := func(b []byte) string {
		lo, hi := max(0, i-24), min(len(b), i+24)
		return strconv.Quote(string(b[lo:hi]))
	}
	return fmt.Errorf("output differs from reference at byte %d (got %d bytes, want %d): got …%s… want …%s…",
		i, len(got), len(want), ctx(got), ctx(want))
}

// refStore resolves references. Seed-1 default-config references are
// checked in under storedDir (they equal the repository's goldens where
// one exists). Any other reference is computed in-process, untimed, and
// cached under cacheDir, which is keyed by the benchmark binary so a
// rebuilt program never reads a stale reference.
type refStore struct {
	storedDir string
	cacheDir  string
}

func newRefStore(storedDir, cacheRoot string) (*refStore, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil, fmt.Errorf("hash %s: %w", exe, err)
	}
	dir := filepath.Join(cacheRoot, hex.EncodeToString(h.Sum(nil))[:16])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &refStore{storedDir: storedDir, cacheDir: dir}, nil
}

func (s *refStore) cachePath(j jobSpec) string {
	sum := sha256.Sum256(j.body())
	return filepath.Join(s.cacheDir, hex.EncodeToString(sum[:12]))
}

// stored returns the checked-in reference of j, ok=false when there is
// none: only seed-1 default-config runs are stored.
func (s *refStore) stored(j jobSpec) (reference, bool, error) {
	if j.Seed != 1 || j.SampleScale != 0 {
		return reference{}, false, nil
	}
	b, err := os.ReadFile(filepath.Join(s.storedDir, j.Experiment+".json"))
	if errors.Is(err, os.ErrNotExist) {
		return reference{}, false, nil
	}
	return reference{Bytes: b}, err == nil, err
}

// load returns a stored or cached reference, ok=false when there is none.
func (s *refStore) load(j jobSpec) (reference, bool, error) {
	if r, ok, err := s.stored(j); ok || err != nil {
		return r, ok, err
	}
	p := s.cachePath(j)
	if b, err := os.ReadFile(p + ".json"); err == nil {
		return reference{Bytes: b}, true, nil
	}
	if b, err := os.ReadFile(p + ".err"); err == nil {
		return reference{Err: string(b)}, true, nil
	}
	return reference{}, false, nil
}

// get returns the reference of every spec: stored, cached from an earlier
// run, or computed now with up to workers experiments in flight.
func (s *refStore) get(ctx context.Context, specs []jobSpec, workers int) (map[jobSpec]reference, error) {
	out := make(map[jobSpec]reference, len(specs))
	var todo []jobSpec
	for _, j := range specs {
		if _, dup := out[j]; dup {
			continue
		}
		r, ok, err := s.load(j)
		if err != nil {
			return nil, err
		}
		out[j] = r
		if !ok {
			todo = append(todo, j)
		}
	}
	computed, err := computeRefs(ctx, todo, workers)
	if err != nil {
		return nil, err
	}
	for j, r := range computed {
		out[j] = r
		if err := s.save(j, r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// computeRefs runs every spec in-process, as zeiotbench would, with up to
// workers experiments in flight. A run that fails yields a reference too:
// the program must fail the same way wherever it is asked for that config.
func computeRefs(ctx context.Context, specs []jobSpec, workers int) (map[jobSpec]reference, error) {
	out := make(map[jobSpec]reference, len(specs))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		next     = make(chan jobSpec)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				r, err := computeRef(ctx, j)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference %s: %w", j, err)
				}
				out[j] = r
				mu.Unlock()
			}
		}()
	}
	for _, j := range specs {
		next <- j
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

func computeRef(ctx context.Context, j jobSpec) (reference, error) {
	e, err := zeiot.FindExperiment(j.Experiment)
	if err != nil {
		return reference{}, err
	}
	res, err := e.Run(ctx, j.runConfig())
	if err != nil {
		if ctx.Err() != nil {
			return reference{}, ctx.Err()
		}
		return reference{Err: err.Error()}, nil
	}
	b, err := encodeResult(res)
	return reference{Bytes: b}, err
}

// save caches a computed reference.
func (s *refStore) save(j jobSpec, r reference) error {
	if r.Bytes == nil {
		return writeAtomic(s.cachePath(j)+".err", []byte(r.Err))
	}
	return writeAtomic(s.cachePath(j)+".json", r.Bytes)
}

// writeAtomic writes b to path through a rename, so an interrupted run
// never leaves a truncated reference behind.
func writeAtomic(path string, b []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
