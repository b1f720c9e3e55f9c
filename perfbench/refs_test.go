package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"zeiot"
)

const refDir = "refs/seed1"

func TestStoredRefsMatchGoldens(t *testing.T) {
	goldens, _ := filepath.Glob("../testdata/*_seed1.golden.json")
	if len(goldens) == 0 {
		t.Fatal("no goldens found")
	}
	for _, g := range goldens {
		id := strings.TrimSuffix(filepath.Base(g), "_seed1.golden.json")
		want, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(refDir, id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := diffBytes(got, want); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
	for _, e := range zeiot.Experiments() {
		if _, err := os.Stat(filepath.Join(refDir, e.ID+".json")); err != nil {
			t.Errorf("no stored reference for %s: %v", e.ID, err)
		}
	}
}

func TestDiffBytesFiresOnOneByteChange(t *testing.T) {
	ref, err := os.ReadFile(filepath.Join(refDir, "e7.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := diffBytes(ref, ref); err != nil {
		t.Fatalf("identical bytes differ: %v", err)
	}
	for _, i := range []int{0, len(ref) / 2, len(ref) - 1} {
		mut := append([]byte(nil), ref...)
		mut[i] ^= 1
		if diffBytes(mut, ref) == nil {
			t.Errorf("flipping byte %d went unnoticed", i)
		}
	}
	if diffBytes(ref[:len(ref)-1], ref) == nil {
		t.Error("a truncated output went unnoticed")
	}
}

// cliOutput builds what `zeiotbench -json -timings` prints for the stored
// references of ids, with made-up timings.
func cliOutput(t *testing.T, ids ...string) []byte {
	t.Helper()
	var all []*zeiot.Result
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join(refDir, id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var rs []*zeiot.Result
		if err := json.Unmarshal(b, &rs); err != nil {
			t.Fatal(err)
		}
		rs[0].Timings = zeiot.Timings{zeiot.StageTotal: 42 * time.Millisecond}
		all = append(all, rs[0])
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(all); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckCLIOutputStripsTimingsAndFindsChanges(t *testing.T) {
	dir, err := filepath.Abs(refDir)
	if err != nil {
		t.Fatal(err)
	}
	store := &refStore{storedDir: dir, cacheDir: t.TempDir()}
	ids := []string{"e6", "e7", "e9"}
	refs := map[jobSpec]reference{}
	for _, id := range ids {
		r, ok, err := store.load(jobSpec{Experiment: id, Seed: 1})
		if err != nil || !ok {
			t.Fatalf("load %s: %v %v", id, ok, err)
		}
		refs[jobSpec{Experiment: id, Seed: 1}] = r
	}
	out := cliOutput(t, ids...)
	totals, errs := checkCLIOutput(out, ids, 1, refs)
	if len(errs) != 0 {
		t.Fatalf("matching output flagged: %v", errs)
	}
	if totals["e7"] != 42*time.Millisecond {
		t.Errorf("e7 timing %v, want 42ms", totals["e7"])
	}

	// One digit changed inside e7's table.
	i := bytes.Index(out, []byte(`"id": "e7"`))
	j := i + bytes.IndexAny(out[i:], "0123456789")
	j += bytes.IndexAny(out[j+4:], "0123456789") + 4
	mut := append([]byte(nil), out...)
	if mut[j] == '9' {
		mut[j] = '8'
	} else {
		mut[j]++
	}
	_, errs = checkCLIOutput(mut, ids, 1, refs)
	if len(errs) != 1 || !strings.HasPrefix(errs[0].Error(), "e7:") {
		t.Errorf("one-byte change in e7 gave %v", errs)
	}

	_, errs = checkCLIOutput(cliOutput(t, "e6", "e9"), ids, 1, refs)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "missing") {
		t.Errorf("missing e7 gave %v", errs)
	}
}

func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
