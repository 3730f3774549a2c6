package workload

import (
	"bufio"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"slices"
	"strconv"

	"ftoa/internal/geo"
	"ftoa/internal/model"
)

// LoadInstanceCSV reads an instance from the CSV format ftoa-gen emits
// (and that users can produce from their own platform logs):
//
//	kind,id,x,y,time,window
//	worker,0,13.2,7.8,21.3,2.0
//	task,0,24.4,23.2,42.5,1.5
//
// kind is "worker" or "task"; time is the arrival/release time; window is
// the worker's patience Dw or the task's expiry Dr. velocity is the shared
// worker speed in space units per time unit. Bounds and horizon are
// derived from the data with a small margin unless every point is needed
// exactly; callers may adjust the returned instance before use.
func LoadInstanceCSV(r io.Reader, velocity float64) (*model.Instance, error) {
	if velocity <= 0 {
		return nil, fmt.Errorf("workload: non-positive velocity %v", velocity)
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 6
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("workload: reading CSV header: %w", err)
	}
	if header[0] != "kind" {
		return nil, fmt.Errorf("workload: unexpected CSV header %v", header)
	}
	in := &model.Instance{Velocity: velocity}
	var minX, minY, maxX, maxY, maxTime float64
	first := true
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: reading CSV: %w", err)
		}
		line++
		id, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: bad id %q", line, rec[1])
		}
		var x, y, tm, win float64
		for i, dst := range []*float64{&x, &y, &tm, &win} {
			v, err := strconv.ParseFloat(rec[2+i], 64)
			// ParseFloat accepts "NaN" and "Inf"; neither is a place or a time.
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("workload: line %d: bad number %q", line, rec[2+i])
			}
			*dst = v
		}
		if win < 0 {
			return nil, fmt.Errorf("workload: line %d: negative window %v", line, win)
		}
		if math.IsInf(tm+win, 0) {
			return nil, fmt.Errorf("workload: line %d: deadline %v+%v overflows", line, tm, win)
		}
		switch rec[0] {
		case "worker":
			in.Workers = append(in.Workers, model.Worker{
				ID: id, Loc: geo.Pt(x, y), Arrive: tm, Patience: win,
			})
		case "task":
			in.Tasks = append(in.Tasks, model.Task{
				ID: id, Loc: geo.Pt(x, y), Release: tm, Expiry: win,
			})
		default:
			return nil, fmt.Errorf("workload: line %d: unknown kind %q", line, rec[0])
		}
		if first {
			minX, maxX, minY, maxY = x, x, y, y
			first = false
		} else {
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
			if y < minY {
				minY = y
			}
			if y > maxY {
				maxY = y
			}
		}
		if end := tm + win; end > maxTime {
			maxTime = end
		}
	}
	if first {
		return nil, fmt.Errorf("workload: CSV contains no objects")
	}
	// A touch of margin keeps boundary points inside the half-open bounds.
	margin := (maxX - minX + maxY - minY) * 0.005
	if margin <= 0 {
		margin = 1
	}
	in.Bounds = geo.NewRect(minX-margin, minY-margin, maxX+margin, maxY+margin)
	if b := in.Bounds; math.IsInf(b.Width(), 0) || math.IsInf(b.Height(), 0) {
		return nil, fmt.Errorf("workload: coordinates span [%v,%v]×[%v,%v], too wide for finite bounds", minX, maxX, minY, maxY)
	}
	in.Horizon = maxTime
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// csvRows reads a history's rows in two ways from one 64 KiB buffer:
// countsRow scans a plain row (LF or CRLF ended) in place in one pass, and
// read hands any other row — the header, a quoted or signed field, a blank
// line, a row longer than countsRow takes — to an encoding/csv reader on
// the same buffer, which reads exactly that record. A history has one row
// per (day, slot, area) cell; a string and a []string per row is what made
// loading it cost more memory than the guide built from it.
type csvRows struct {
	br   *bufio.Reader
	cr   *csv.Reader // reads from br: csv.NewReader shares a *bufio.Reader
	line int         // lines countsRow has read
	err  error       // a read error a refill met, for read to return
	win  []byte      // the reader's buffered bytes countsRow reads from
	off  int         // how many of them it has read

	// The day and slot fields countsRow last scanned.
	prefix                 int    // their length with both commas, 0 if none
	prefixWord, prefixMask uint64 // their bytes, as a little-endian word
	day, slot              int    // their values
	weatherKey             uint64 // the last weather field it returned, or 0
}

func newCSVRows(r io.Reader, fields int) *csvRows {
	br := bufio.NewReaderSize(r, 64<<10)
	cr := csv.NewReader(br)
	cr.FieldsPerRecord = fields
	cr.ReuseRecord = true
	return &csvRows{br: br, cr: cr}
}

// read reads the next record with encoding/csv, after the rows countsRow
// took, and numbers its error lines in the whole file. It returns io.EOF
// after the last record; the record is valid until the next read.
func (s *csvRows) read() ([]string, error) {
	s.br.Discard(s.off)
	s.win, s.off = nil, 0
	if s.err != nil {
		return nil, s.err
	}
	rec, err := s.cr.Read()
	if e, ok := err.(*csv.ParseError); ok {
		e.StartLine += s.line
		e.Line += s.line
	}
	return rec, err
}

// maxRow is the most bytes a row countsRow takes can span: five fields of
// at most 9, 9, 9, 18 and 18 digits with their commas, 7 weather bytes and
// \r\n. Its window is refilled when it holds fewer, so no such row is ever
// cut by the buffer's end.
const maxRow = 80

// countsRow parses the next history row straight out of the reader's
// buffer, in one pass, when it is plain: five integers, each ended by a
// comma, then a weather field of at most 7 bytes with no comma, quote or
// \r, then \n or \r\n. The three cell indices have 1 to 9 digits (which
// fit 32 bits) and the two counts 1 to 18 (which fit an int64). It reports
// false, and reads nothing, for any other row — a sign, a longer number, a
// stray byte, a quote, a blank line — and the caller reads that one with
// read.
//
// A row that starts with the bytes of the day and slot fields countsRow
// last scanned takes their values without scanning them again: in
// ftoa-gen's order that is every row but the first of each slot. weather
// is nil when its bytes are those of the last weather countsRow returned
// and no forgetWeather came since; otherwise it is valid until the next
// read.
func (s *csvRows) countsRow() (day, slot, area, workers, tasks int, weather []byte, ok bool) {
	if len(s.win)-s.off < maxRow {
		// Fill the whole buffer only when the rest of it could cut a row:
		// each fill slides the unread bytes to its front.
		s.br.Discard(s.off)
		n := s.br.Buffered()
		if n < maxRow {
			n = s.br.Size()
		}
		var err error
		if s.win, err = s.br.Peek(n); err != nil && err != io.EOF {
			s.err = err // Peek has taken it from the reader
		}
		s.off = 0
	}
	buf := s.win[s.off:]
	p := 0
	if s.prefix > 0 && len(buf) >= 8 && binary.LittleEndian.Uint64(buf)&s.prefixMask == s.prefixWord {
		day, slot, p = s.day, s.slot, s.prefix
	} else {
		var ok1, ok2 bool
		day, p, ok1 = scanInt(buf, 0, 9)
		slot, p, ok2 = scanInt(buf, p, 9)
		if !ok1 || !ok2 {
			return 0, 0, 0, 0, 0, nil, false
		}
		s.prefix = 0
		if p <= 8 && len(buf) >= 8 {
			s.prefix, s.day, s.slot = p, day, slot
			s.prefixMask = ^uint64(0) >> (64 - 8*p)
			s.prefixWord = binary.LittleEndian.Uint64(buf) & s.prefixMask
		}
	}
	var ok3, ok4, ok5 bool
	area, p, ok3 = scanInt(buf, p, 9)
	workers, p, ok4 = scanInt(buf, p, 18)
	tasks, p, ok5 = scanInt(buf, p, 18)
	if !ok3 || !ok4 || !ok5 || p+8 > len(buf) {
		return 0, 0, 0, 0, 0, nil, false
	}
	// The weather field is read as one 8-byte word: its first \n, comma,
	// quote or \r must be a \n or the \r of \r\n.
	x := binary.LittleEndian.Uint64(buf[p:])
	stop := zeroByte(x^'\n'*ones) | zeroByte(x^','*ones) | zeroByte(x^'"'*ones) | zeroByte(x^'\r'*ones)
	n := bits.TrailingZeros64(stop) / 8
	end := p + n // the row's last byte
	switch {
	case n == 8:
		return 0, 0, 0, 0, 0, nil, false
	case buf[end] == '\r':
		if end++; end == len(buf) || buf[end] != '\n' {
			return 0, 0, 0, 0, 0, nil, false
		}
	case buf[end] != '\n':
		return 0, 0, 0, 0, 0, nil, false
	}
	s.off += end + 1
	s.line++
	// The field's bytes and its length make a key that is never 0.
	if key := x&(1<<(8*n)-1) | uint64(n+1)<<56; key != s.weatherKey {
		s.weatherKey = key
		weather = buf[p : p+n]
	}
	return day, slot, area, workers, tasks, weather, true
}

// scanInt sums the 1 to most digits at buf[p:] and steps over the comma
// that must end them.
func scanInt(buf []byte, p, most int) (v, next int, ok bool) {
	start := p
	for ; p < len(buf); p++ {
		c := buf[p] - '0'
		if c > 9 {
			break
		}
		v = v*10 + int(c)
	}
	ok = p > start && p-start <= most && p < len(buf) && buf[p] == ','
	return v, p + 1, ok
}

// forgetWeather makes the next countsRow return its weather field: the
// caller has parsed another one since.
func (s *csvRows) forgetWeather() { s.weatherKey = 0 }

const ones = 0x0101010101010101 // 1 in every byte of a word

// zeroByte sets the high bit of the lowest zero byte of x. Bits above it
// may be set too, so only the lowest set bit is exact.
func zeroByte(x uint64) uint64 { return (x - ones) &^ x & (0x80 * ones) }

// remaining is how many bytes r has left to read, or 0 when r cannot tell.
func remaining(r io.Reader) int64 {
	switch r := r.(type) {
	case interface{ Len() int }: // strings.Reader, bytes.Reader, bytes.Buffer
		return int64(r.Len())
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return 0
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0
		}
		return max(fi.Size()-off, 0)
	}
	return 0
}

// left is how many bytes of r the rows have not consumed yet: what r has
// left plus what the rows hold in their buffer.
func (s *csvRows) left(r io.Reader) int64 { return remaining(r) + int64(s.br.Buffered()-s.off) }

// cellOrder follows the order ftoa-gen writes a history in: every (day,
// slot, area) cell once, row-major from (0, 0, 0), so that row i is the
// cell at flat index i. The area and slot counts are learned at the first
// slot and day change.
type cellOrder struct {
	d, s, a      int // the last row's cell
	slots, areas int // 0 until learned
	areaEnd      int // 0 before the first row, then areas, or MaxInt until learned
}

// next reports whether (d, s, a) is the cell after the last one.
func (o *cellOrder) next(d, s, a int) bool {
	if a == o.a+1 && a < o.areaEnd && d == o.d && s == o.s {
		o.a = a
		return true
	}
	return o.wrap(d, s, a)
}

// wrap is next for the first row, a new slot or a new day.
func (o *cellOrder) wrap(d, s, a int) bool {
	ok := false
	switch {
	case o.areaEnd == 0:
		if ok = d == 0 && s == 0 && a == 0; ok {
			o.areaEnd = math.MaxInt
		}
	case a == 0 && (o.areas == 0 || o.a+1 == o.areas):
		switch {
		case d == o.d && s == o.s+1:
			ok = o.slots == 0 || s < o.slots
		case d == o.d+1 && s == 0:
			ok = o.slots == 0 || o.s+1 == o.slots
			if ok && o.slots == 0 {
				o.slots = o.s + 1
			}
		}
		if ok && o.areas == 0 {
			o.areas, o.areaEnd = o.a+1, o.a+1
		}
	}
	if ok {
		o.d, o.s, o.a = d, s, a
	}
	return ok
}

// cell returns the cell of in-order row i.
func (o *cellOrder) cell(i int) (d, s, a int) {
	switch {
	case o.areas == 0:
		return 0, 0, i
	case o.slots == 0:
		return 0, i / o.areas, i % o.areas
	}
	return i / (o.slots * o.areas), i / o.areas % o.slots, i % o.areas
}

// movedRow is the cell and weather of a row that came out of order.
type movedRow struct {
	d, s, a int
	wx      float64
}

// LoadCountsCSV reads a per-(day, slot, area) count history from the CSV
// format ftoa-gen -counts emits:
//
//	day,slot,area,workers,tasks,weather
//
// Dimensions are inferred from the maxima present; every (day, slot, area)
// triple must appear exactly once. It returns the flattened worker and task
// count tensors plus the per-(day, slot) weather series, ready for
// predict.NewSeries.
//
// A plain row, LF or CRLF ended, is scanned once in place; encoding/csv
// reads every other row from the same buffer, so the loader accepts what
// encoding/csv accepts and names the same lines in its errors. Rows in
// ftoa-gen's order land straight in the returned tensors, whose capacity
// r's size bounds when r can tell it; a weather field is parsed only when
// its bytes differ from the row before's. A history in any other order is
// placed cell by cell once every row is read.
func LoadCountsCSV(r io.Reader) (days, slots, areas int, workers, tasks []int, weather []float64, err error) {
	fail := func(format string, args ...any) (int, int, int, []int, []int, []float64, error) {
		return 0, 0, 0, nil, nil, nil, fmt.Errorf("workload: "+format, args...)
	}
	// A valid row takes at least 12 bytes ("0,0,0,0,0,0\n"); the bound caps
	// what a size is trusted for.
	hint := int(min(remaining(r)/12+1, 1<<20))
	rows := newCSVRows(r, 6)
	header, err := rows.read()
	if err != nil {
		return fail("reading CSV header: %w", err)
	}
	if header[0] != "day" {
		return fail("unexpected CSV header %v", header)
	}
	// ftoa-gen writes about 16.6 bytes a row: the tensors get room for a
	// first slot now and are sized for the rest once its rows tell their
	// length.
	body := rows.left(r)
	workers, tasks = make([]int, 0, min(hint, 1<<10)), make([]int, 0, min(hint, 1<<10))
	var (
		order cellOrder
		moved []movedRow // from the first row out of order on
		wx    float64    // the weather of the last row
	)
	for {
		d, s, a, w, t, wxField, plain := rows.countsRow()
		if plain {
			// wxField is nil when countsRow saw the last row's weather again.
			if wxField != nil {
				if wx, err = strconv.ParseFloat(string(wxField), 64); err != nil {
					return fail("bad weather %q", wxField)
				}
			}
		} else {
			rec, err := rows.read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return fail("reading CSV: %w", err)
			}
			var ints [5]int // day, slot, area, workers, tasks
			for i := range ints {
				if ints[i], err = strconv.Atoi(rec[i]); err != nil {
					return fail("bad integer %q", rec[i])
				}
			}
			d, s, a, w, t = ints[0], ints[1], ints[2], ints[3], ints[4]
			if wx, err = strconv.ParseFloat(rec[5], 64); err != nil {
				return fail("bad weather %q", rec[5])
			}
			rows.forgetWeather()
			if d < 0 || s < 0 || a < 0 || w < 0 || t < 0 {
				return fail("negative field in %v", rec)
			}
			// A valid file has as many rows as cells, so an index that does
			// not fit 32 bits could only belong to a file of billions of rows.
			if d > math.MaxInt32 || s > math.MaxInt32 || a > math.MaxInt32 {
				return fail("cell index out of range in %v", rec)
			}
		}
		days, slots, areas = max(days, d+1), max(slots, s+1), max(areas, a+1)
		workers, tasks = append(workers, w), append(tasks, t)
		switch {
		case moved == nil && order.next(d, s, a):
			// In order, a slot starts with area 0, and the first slot's
			// rows tell how many rows and slots are left.
			if a == 0 {
				if len(weather) == 1 {
					// At the bytes per row read so far, plus an eighth for
					// later rows' longer slot and day fields.
					want := hint
					if rest := rows.left(r); body > rest {
						want = min(hint, len(workers)+int(float64(rest)*float64(len(workers))/float64(body-rest)*9/8)+1)
					}
					want = max(want, len(workers))
					workers = slices.Grow(workers, want-len(workers))
					tasks = slices.Grow(tasks, want-len(tasks))
					weather = slices.Grow(weather, want/(len(workers)-1))
				}
				weather = append(weather, wx)
			} else {
				weather[len(weather)-1] = wx
			}
		default:
			moved = append(moved, movedRow{d, s, a, wx})
		}
	}
	n := len(workers)
	// days×slots×areas must equal the row count. The indices come from the
	// file, so their product can wrap around to it; divide instead. (Rows
	// imply non-zero dimensions; a header-only file is an empty history.)
	if n > 0 && (n%days != 0 || n/days%slots != 0 || n/days/slots != areas) {
		return fail("%d rows for %d×%d×%d cells", n, days, slots, areas)
	}
	if moved == nil {
		// Every row came in order and there are as many as cells: row i
		// is cell i.
		return days, slots, areas, workers, tasks, weather, nil
	}
	return placeCells(days, slots, areas, &order, moved, workers, tasks, weather)
}

// placeCells lays out a history whose rows came out of order: the rows
// before the first such one are order's cells 0, 1, …, with one
// weather value per slot in weather; the rest are moved's cells, in file
// order. A later row's weather overwrites an earlier one's for the same
// slot, as in a file read top to bottom.
func placeCells(days, slots, areas int, order *cellOrder, moved []movedRow, rowW, rowT []int, rowWx []float64) (int, int, int, []int, []int, []float64, error) {
	n := len(rowW)
	workers, tasks := make([]int, n), make([]int, n)
	weather := make([]float64, days*slots)
	seen := make([]bool, n)
	inOrder := n - len(moved)
	perSlot := order.areas // in-order rows per weather value
	if perSlot == 0 {
		perSlot = max(inOrder, 1) // all in slot (0, 0)
	}
	for i := range inOrder {
		d, s, a := order.cell(i)
		flat := (d*slots+s)*areas + a
		seen[flat] = true
		workers[flat], tasks[flat] = rowW[i], rowT[i]
		weather[d*slots+s] = rowWx[i/perSlot]
	}
	for j, m := range moved {
		i := inOrder + j
		flat := (m.d*slots+m.s)*areas + m.a
		if seen[flat] {
			return 0, 0, 0, nil, nil, nil, fmt.Errorf("workload: duplicate cell (%d,%d,%d)", m.d, m.s, m.a)
		}
		seen[flat] = true
		workers[flat], tasks[flat] = rowW[i], rowT[i]
		weather[m.d*slots+m.s] = m.wx
	}
	return days, slots, areas, workers, tasks, weather, nil
}
