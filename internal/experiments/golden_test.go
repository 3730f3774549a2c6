package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// TestMatchingTablesGolden pins the paper's numbers: every registered
// experiment except table5 (prediction only, no online algorithm, and most
// of the runtime) runs sequentially at Scale 0.01, and what it computes —
// each Matching-size table, and the whole block of the Custom-shaped ratio
// experiment — must equal testdata/matching_golden.txt byte for byte. The
// Time and Memory tables are measurements of this machine and are left out.
// A change meant to move a number regenerates the file with
// `go test -run TestMatchingTablesGolden ./internal/experiments/ -update`,
// and the diff shows which cells moved.
func TestMatchingTablesGolden(t *testing.T) {
	opts := Options{Scale: 0.01}.withDefaults()
	var b strings.Builder
	for _, id := range IDs() {
		if id == "table5" {
			continue
		}
		res, err := registry[id](opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var out strings.Builder
		res.Print(&out)
		matching, _, _ := strings.Cut(out.String(), "-- Time (s) --\n")
		b.WriteString(matching)
	}
	got := b.String()

	const path = "testdata/matching_golden.txt"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
	t.Fatalf("matching tables differ from %s (rerun with -update if the change is meant to move them)", path)
}

// TestPredictionTableGolden pins Table 5, the one experiment the matching
// golden leaves out: the seven predictors' RMSLE and ER on both city
// traces at the unit tests' scale must equal testdata/table5_golden.txt
// byte for byte. It covers the trace-to-Series conversion every forecast
// in the repository reads.
func TestPredictionTableGolden(t *testing.T) {
	res, err := PredictionTable(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	const path = "testdata/table5_golden.txt"
	if *update {
		if err := os.WriteFile(path, []byte(res.Custom), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Custom != string(want) {
		t.Fatalf("Table 5 differs from %s (rerun with -update if the change is meant to move it):\n got:\n%s\nwant:\n%s", path, res.Custom, want)
	}
}
