package workload

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// loadCountsCSVOracle is the encoding/csv implementation LoadCountsCSV
// replaced, kept as the reference the fuzzer compares against. Its one
// change is the row-count check, which divides instead of multiplying so
// that the oracle does not itself index out of range on wrapped products.
func loadCountsCSVOracle(r io.Reader) (days, slots, areas int, workers, tasks []int, weather []float64, err error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 6
	header, err := cr.Read()
	if err != nil {
		return 0, 0, 0, nil, nil, nil, fmt.Errorf("workload: reading CSV header: %w", err)
	}
	if header[0] != "day" {
		return 0, 0, 0, nil, nil, nil, fmt.Errorf("workload: unexpected CSV header %v", header)
	}
	type rec struct {
		day, slot, area, w, t int
		wx                    float64
	}
	var recs []rec
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, 0, nil, nil, nil, fmt.Errorf("workload: reading CSV: %w", err)
		}
		var rr rec
		for i, dst := range []*int{&rr.day, &rr.slot, &rr.area, &rr.w, &rr.t} {
			v, err := strconv.Atoi(row[i])
			if err != nil {
				return 0, 0, 0, nil, nil, nil, fmt.Errorf("workload: bad integer %q", row[i])
			}
			*dst = v
		}
		wx, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			return 0, 0, 0, nil, nil, nil, fmt.Errorf("workload: bad weather %q", row[5])
		}
		rr.wx = wx
		if rr.day < 0 || rr.slot < 0 || rr.area < 0 || rr.w < 0 || rr.t < 0 {
			return 0, 0, 0, nil, nil, nil, fmt.Errorf("workload: negative field in %v", row)
		}
		if rr.day >= days {
			days = rr.day + 1
		}
		if rr.slot >= slots {
			slots = rr.slot + 1
		}
		if rr.area >= areas {
			areas = rr.area + 1
		}
		recs = append(recs, rr)
	}
	if n := len(recs); n > 0 && (days <= 0 || slots <= 0 || areas <= 0 ||
		n%days != 0 || n/days%slots != 0 || n/days/slots != areas) {
		return 0, 0, 0, nil, nil, nil,
			fmt.Errorf("workload: %d rows for %d×%d×%d cells", len(recs), days, slots, areas)
	}
	workers = make([]int, days*slots*areas)
	tasks = make([]int, days*slots*areas)
	weather = make([]float64, days*slots)
	seen := make([]bool, days*slots*areas)
	for _, rr := range recs {
		flat := (rr.day*slots+rr.slot)*areas + rr.area
		if seen[flat] {
			return 0, 0, 0, nil, nil, nil,
				fmt.Errorf("workload: duplicate cell (%d,%d,%d)", rr.day, rr.slot, rr.area)
		}
		seen[flat] = true
		workers[flat] = rr.w
		tasks[flat] = rr.t
		weather[rr.day*slots+rr.slot] = rr.wx
	}
	return days, slots, areas, workers, tasks, weather, nil
}

// sameFloats compares bit patterns, so NaN weather equals itself.
func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return x == y || x != x && y != y
	})
}

// FuzzLoadCountsCSV: the hand-written parser and the encoding/csv one
// accept exactly the same inputs and return the same tensors. Seed corpus
// in testdata/fuzz/FuzzLoadCountsCSV.
func FuzzLoadCountsCSV(f *testing.F) {
	f.Add([]byte("day,slot,area,workers,tasks,weather\n0,0,0,3,4,0.1\n0,0,1,1,0,0.1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// ReadSlice hands out the reader's own buffer and csvRows folds
		// \r\n in place; the copy keeps the oracle's input pristine.
		d1, s1, a1, w1, t1, x1, err1 := LoadCountsCSV(bytes.NewReader(bytes.Clone(data)))
		d2, s2, a2, w2, t2, x2, err2 := loadCountsCSVOracle(bytes.NewReader(data))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("new parser: %v\noracle:     %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if d1 != d2 || s1 != s2 || a1 != a2 {
			t.Fatalf("dims %d×%d×%d, oracle %d×%d×%d", d1, s1, a1, d2, s2, a2)
		}
		if !slices.Equal(w1, w2) || !slices.Equal(t1, t2) || !sameFloats(x1, x2) {
			t.Fatalf("tensors differ from the oracle's")
		}
	})
}

// countsHistory renders a days×slots×areas history in ftoa-gen -counts
// format.
func countsHistory(days, slots, areas int) string {
	var sb strings.Builder
	sb.WriteString("day,slot,area,workers,tasks,weather\n")
	for d := 0; d < days; d++ {
		for s := 0; s < slots; s++ {
			for a := 0; a < areas; a++ {
				fmt.Fprintf(&sb, "%d,%d,%d,%d,%d,0.5\n", d, s, a, (d+s+a)%9, (d*s+a)%7)
			}
		}
	}
	return sb.String()
}

// TestLoadCountsCSVAllocations: parsing a row allocates nothing, so the
// allocation count of a load does not depend on how many rows it reads —
// only the staged chunks (one per 1024 rows) and the outputs scale.
func TestLoadCountsCSVAllocations(t *testing.T) {
	load := func(data string) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, _, _, _, _, _, err := LoadCountsCSV(strings.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := load(countsHistory(2, 4, 16)), load(countsHistory(6, 32, 100))
	const rows, chunks = 6 * 32 * 100, 6 * 32 * 100 / countsChunk
	t.Logf("%v allocations for 128 rows, %v for %d rows", small, large, rows)
	if large > small+2*chunks+8 {
		t.Errorf("%v allocations for %d rows vs %v for 128: parsing allocates per row", large, rows, small)
	}
}

func BenchmarkLoadCountsCSV(b *testing.B) {
	data := countsHistory(6, 32, 400) // the committed benchmark's history
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, _, _, _, _, _, err := LoadCountsCSV(strings.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
