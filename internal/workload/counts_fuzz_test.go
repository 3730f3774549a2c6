package workload

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
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

// FuzzLoadCountsCSV: the loader (its one-pass row scanner, with
// encoding/csv reading every row the scanner refuses) and the plain
// encoding/csv oracle accept exactly the same inputs and return the same
// tensors. Seed corpus in testdata/fuzz/FuzzLoadCountsCSV.
func FuzzLoadCountsCSV(f *testing.F) {
	f.Add([]byte("day,slot,area,workers,tasks,weather\n0,0,0,3,4,0.1\n0,0,1,1,0,0.1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// ReadSlice hands out the reader's own buffer and encoding/csv folds
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

// TestLoadCountsCSVMatchesOracleAtScale: histories larger than the
// reader's 64 KiB buffer, so rows straddle its refills, agree with the
// oracle whether the reader tells its length or not and whatever it
// hands over per read — in ftoa-gen's order, with a quoted row of its
// own weather, a changed weather and a signed count in the middle, with
// CRLF endings, and in reverse order.
func TestLoadCountsCSVMatchesOracleAtScale(t *testing.T) {
	history := countsHistory(6, 32, 100)
	lines := strings.SplitAfter(history, "\n")
	mixed := slices.Clone(lines)
	f := strings.Split(mixed[5000], ",")
	f[0], f[2], f[5] = `"`+f[0]+`"`, `"`+f[2]+`"`, "\"0.75\"\n"
	mixed[5000] = strings.Join(f, ",")
	mixed[7000] = strings.Replace(mixed[7000], ",0.5", ",0.25", 1)
	f = strings.Split(mixed[9000], ",")
	f[3] = "+" + f[3]
	mixed[9000] = strings.Join(f, ",")
	reversed := slices.Clone(lines[1 : len(lines)-1])
	slices.Reverse(reversed)
	for _, tc := range []struct{ name, data string }{
		{"in order", history},
		{"mixed", strings.Join(mixed, "")},
		{"crlf", strings.ReplaceAll(history, "\n", "\r\n")},
		{"reversed", lines[0] + strings.Join(reversed, "")},
	} {
		d2, s2, a2, w2, t2, x2, err := loadCountsCSVOracle(strings.NewReader(tc.data))
		if err != nil {
			t.Fatalf("%s: oracle: %v", tc.name, err)
		}
		for _, r := range []struct {
			name string
			r    io.Reader
		}{
			{"strings.Reader", strings.NewReader(tc.data)},
			{"no length", iotest.HalfReader(strings.NewReader(tc.data))},
			{"one byte a read", iotest.OneByteReader(strings.NewReader(tc.data))},
		} {
			d1, s1, a1, w1, t1, x1, err := LoadCountsCSV(r.r)
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.name, r.name, err)
			}
			if d1 != d2 || s1 != s2 || a1 != a2 || !slices.Equal(w1, w2) || !slices.Equal(t1, t2) || !sameFloats(x1, x2) {
				t.Errorf("%s, %s: differs from the oracle", tc.name, r.name)
			}
		}
	}
}

// TestLoadCountsCSVErrorLine: rows read straight from the buffer count
// their lines, so an error after thousands of them names its own line,
// also when a row in the middle is read another way: a blank line, CRLF
// endings, a quoted field. The numbers are encoding/csv's.
func TestLoadCountsCSVErrorLine(t *testing.T) {
	const rows = 6 * 32 * 100
	history := countsHistory(6, 32, 100)
	lines := strings.SplitAfter(history, "\n")
	blank := slices.Insert(slices.Clone(lines), 5000, "\n")
	quoted := slices.Clone(lines)
	quoted[5000] = strings.Replace(quoted[5000], ",0.5\n", ",\"0.5\"\n", 1)
	for _, tc := range []struct {
		name, data string
		line       int
	}{
		{"plain", history + "6,0,0,1,1\n", rows + 2},
		{"blank line", strings.Join(blank, "") + "6,0,0,1,1\n", rows + 3},
		{"crlf", strings.ReplaceAll(history+"6,0,0,1,1\n", "\n", "\r\n"), rows + 2},
		{"quoted", strings.Join(quoted, "") + "6,0,0,1,1\n", rows + 2},
	} {
		_, _, _, _, _, _, err := LoadCountsCSV(strings.NewReader(tc.data))
		if want := fmt.Sprintf("record on line %d:", tc.line); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, want)
		}
	}
}

// TestLoadCountsCSVReadError: a read error fails the load, as it fails
// the oracle, even from a reader that would hand over more bytes after it.
func TestLoadCountsCSVReadError(t *testing.T) {
	history := countsHistory(6, 32, 100)
	_, _, _, _, _, _, err := LoadCountsCSV(iotest.TimeoutReader(iotest.HalfReader(strings.NewReader(history))))
	if !errors.Is(err, iotest.ErrTimeout) {
		t.Errorf("error %v, want %v", err, iotest.ErrTimeout)
	}
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

// TestLoadCountsCSVAllocations: parsing a row allocates nothing and the
// tensors are sized from the reader's length once, so the allocation
// count of a load does not depend on how many rows it reads. (The slack
// of 4 is the runtime's own: a GC cycle during the larger load counts.)
func TestLoadCountsCSVAllocations(t *testing.T) {
	load := func(data string) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, _, _, _, _, _, err := LoadCountsCSV(strings.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	crlf := func(s string) string { return strings.ReplaceAll(s, "\n", "\r\n") }
	const rows = 6 * 32 * 100
	for _, tc := range []struct {
		name  string
		ended func(string) string
	}{
		{"lf", func(s string) string { return s }},
		{"crlf", crlf},
	} {
		small, large := load(tc.ended(countsHistory(2, 4, 16))), load(tc.ended(countsHistory(6, 32, 100)))
		t.Logf("%s: %v allocations for 128 rows, %v for %d rows", tc.name, small, large, rows)
		if large > small+4 {
			t.Errorf("%s: %v allocations for %d rows vs %v for 128: parsing allocates per row", tc.name, large, rows, small)
		}
	}
}

// BenchmarkLoadCountsCSV loads the committed benchmark's history as
// written (lf) and with CRLF endings (crlf).
func BenchmarkLoadCountsCSV(b *testing.B) {
	history := countsHistory(6, 32, 400)
	for _, bc := range []struct{ name, data string }{
		{"lf", history},
		{"crlf", strings.ReplaceAll(history, "\n", "\r\n")},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.data)))
			b.ReportAllocs()
			for b.Loop() {
				if _, _, _, _, _, _, err := LoadCountsCSV(strings.NewReader(bc.data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
