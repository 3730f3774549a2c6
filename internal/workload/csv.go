package workload

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
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

// csvRows splits a CSV stream into records exactly as encoding/csv does in
// its default configuration — RFC 4180 quoting with "" escapes, quoted
// fields spanning lines, \r\n endings, blank lines skipped, a fixed field
// count — but hands the fields out as slices of one reused buffer, so
// reading a record allocates nothing. A history has one row per (day,
// slot, area) cell; a string and a []string per row is what made loading
// it cost more memory than the guide built from it.
type csvRows struct {
	br     *bufio.Reader
	fields int    // every record must have this many
	raw    []byte // a line longer than br's buffer
	rec    []byte // the current record's unescaped fields, one byte apart
	buf    []byte // rec's storage when a quote forces a copy
	ends   []int  // field i is rec[ends[i-1]+1:ends[i]] (field 0 starts at 0)
	line   int    // lines read so far
}

func newCSVRows(r io.Reader, fields int) *csvRows {
	return &csvRows{br: bufio.NewReaderSize(r, 64<<10), fields: fields}
}

// field returns field i of the current record; it is valid until next.
func (s *csvRows) field(i int) []byte {
	start := 0
	if i > 0 {
		start = s.ends[i-1] + 1
	}
	return s.rec[start:s.ends[i]]
}

// strings copies the current record out, for error messages.
func (s *csvRows) strings() []string {
	out := make([]string, len(s.ends))
	for i := range out {
		out[i] = string(s.field(i))
	}
	return out
}

// readLine returns the next line including its \n, with \r\n folded to
// \n and a final \r before EOF dropped.
func (s *csvRows) readLine() ([]byte, error) {
	line, err := s.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		s.raw = append(s.raw[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = s.br.ReadSlice('\n')
			s.raw = append(s.raw, line...)
		}
		line = s.raw
	}
	if len(line) > 0 && err == io.EOF {
		err = nil
		if line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
	}
	s.line++
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// isEOL reports whether b is an end of line: empty or a lone \n.
func isEOL(b []byte) bool { return len(b) == 0 || len(b) == 1 && b[0] == '\n' }

// next reads one record. It returns io.EOF after the last one, and an
// error wrapping csv.ErrBareQuote, csv.ErrQuote or csv.ErrFieldCount for
// the inputs encoding/csv rejects with those.
func (s *csvRows) next() error {
	var line []byte
	var errRead error
	for errRead == nil {
		line, errRead = s.readLine()
		if errRead == nil && isEOL(line) {
			continue // blank line
		}
		break
	}
	if errRead == io.EOF {
		return errRead
	}
	start := s.line
	s.ends = s.ends[:0]
	if bytes.IndexByte(line, '"') < 0 {
		// No quotes: the fields are the line itself, split at the commas.
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		s.rec = line
		for i, c := range line {
			if c == ',' {
				s.ends = append(s.ends, i)
			}
		}
		s.ends = append(s.ends, len(line))
		if errRead != nil {
			return errRead
		}
		if len(s.ends) != s.fields {
			return fmt.Errorf("record on line %d: %w", start, csv.ErrFieldCount)
		}
		return nil
	}
	s.rec = s.buf[:0] // never the line: that is the reader's buffer
	syntax := func(err error) error {
		if s.line != start {
			return fmt.Errorf("record on line %d, line %d: %w", start, s.line, err)
		}
		return fmt.Errorf("line %d: %w", s.line, err)
	}
fields:
	for {
		if len(line) == 0 || line[0] != '"' {
			// Unquoted field: up to the next comma or the end of the line.
			i := bytes.IndexByte(line, ',')
			field := line
			if i >= 0 {
				field = field[:i]
			} else if n := len(field); n > 0 && field[n-1] == '\n' {
				field = field[:n-1]
			}
			if bytes.IndexByte(field, '"') >= 0 {
				return syntax(csv.ErrBareQuote)
			}
			s.rec = append(s.rec, field...)
			s.ends = append(s.ends, len(s.rec))
			s.rec = append(s.rec, ',')
			if i < 0 {
				break fields
			}
			line = line[i+1:]
			continue
		}
		// Quoted field: "" is an escaped quote, and the field may run over
		// several lines.
		line = line[1:]
		for {
			i := bytes.IndexByte(line, '"')
			switch {
			case i >= 0:
				s.rec = append(s.rec, line[:i]...)
				line = line[i+1:]
				switch {
				case len(line) > 0 && line[0] == '"':
					s.rec = append(s.rec, '"')
					line = line[1:]
				case len(line) > 0 && line[0] == ',':
					line = line[1:]
					s.ends = append(s.ends, len(s.rec))
					s.rec = append(s.rec, ',')
					continue fields
				case isEOL(line):
					s.ends = append(s.ends, len(s.rec))
					s.rec = append(s.rec, ',')
					break fields
				default:
					return syntax(csv.ErrQuote) // text after the closing quote
				}
			case len(line) > 0:
				// The line ended inside the quotes: keep it and read on.
				s.rec = append(s.rec, line...)
				if errRead != nil {
					break fields
				}
				line, errRead = s.readLine()
				if errRead == io.EOF {
					errRead = nil
				}
			default:
				if errRead == nil {
					return syntax(csv.ErrQuote) // EOF inside the quotes
				}
				s.ends = append(s.ends, len(s.rec))
				s.rec = append(s.rec, ',')
				break fields
			}
		}
	}
	s.buf = s.rec
	if errRead != nil {
		return errRead
	}
	if len(s.ends) != s.fields {
		return fmt.Errorf("record on line %d: %w", start, csv.ErrFieldCount)
	}
	return nil
}

// atoi is strconv.Atoi over bytes. Up to 9 plain digits cannot overflow
// even a 32-bit int and are summed in place; anything else (a sign, a
// longer number, a stray byte) goes to strconv.Atoi, which accepts and
// rejects exactly what it always did.
func atoi(b []byte) (int, error) {
	if len(b) == 0 || len(b) > 9 {
		return strconv.Atoi(string(b))
	}
	v := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return strconv.Atoi(string(b))
		}
		v = v*10 + int(c-'0')
	}
	return v, nil
}

// countsRow is one parsed history row awaiting the dimensions, which are
// only known once every row has been seen.
type countsRow struct {
	w, t            int
	wx              float64
	day, slot, area uint32
}

// countsChunk is the allocation unit of the staged rows. Chunks never
// move, so staging a long history leaves no outgrown arrays behind.
const countsChunk = 1024

// LoadCountsCSV reads a per-(day, slot, area) count history from the CSV
// format ftoa-gen -counts emits:
//
//	day,slot,area,workers,tasks,weather
//
// Dimensions are inferred from the maxima present; every (day, slot, area)
// triple must appear exactly once. It returns the flattened worker and task
// count tensors plus the per-(day, slot) weather series, ready for
// predict.NewSeries.
func LoadCountsCSV(r io.Reader) (days, slots, areas int, workers, tasks []int, weather []float64, err error) {
	fail := func(format string, args ...any) (int, int, int, []int, []int, []float64, error) {
		return 0, 0, 0, nil, nil, nil, fmt.Errorf("workload: "+format, args...)
	}
	rows := newCSVRows(r, 6)
	if err := rows.next(); err != nil {
		return fail("reading CSV header: %w", err)
	}
	if string(rows.field(0)) != "day" {
		return fail("unexpected CSV header %v", rows.strings())
	}
	var staged [][]countsRow
	n := 0
	for {
		err := rows.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail("reading CSV: %w", err)
		}
		var ints [5]int // day, slot, area, workers, tasks
		for i := range ints {
			v, err := atoi(rows.field(i))
			if err != nil {
				return fail("bad integer %q", rows.field(i))
			}
			ints[i] = v
		}
		wx, err := strconv.ParseFloat(string(rows.field(5)), 64)
		if err != nil {
			return fail("bad weather %q", rows.field(5))
		}
		for _, v := range ints {
			if v < 0 {
				return fail("negative field in %v", rows.strings())
			}
		}
		// A valid file has as many rows as cells, so an index that does
		// not fit 32 bits could only belong to a file of billions of rows.
		if ints[0] > math.MaxInt32 || ints[1] > math.MaxInt32 || ints[2] > math.MaxInt32 {
			return fail("cell index out of range in %v", rows.strings())
		}
		days, slots, areas = max(days, ints[0]+1), max(slots, ints[1]+1), max(areas, ints[2]+1)
		if n%countsChunk == 0 {
			staged = append(staged, make([]countsRow, 0, countsChunk))
		}
		last := &staged[len(staged)-1]
		*last = append(*last, countsRow{
			day: uint32(ints[0]), slot: uint32(ints[1]), area: uint32(ints[2]),
			w: ints[3], t: ints[4], wx: wx,
		})
		n++
	}
	// days×slots×areas must equal the row count. The indices come from the
	// file, so their product can wrap around to it; divide instead. (Rows
	// imply non-zero dimensions; a header-only file is an empty history.)
	if n > 0 && (n%days != 0 || n/days%slots != 0 || n/days/slots != areas) {
		return fail("%d rows for %d×%d×%d cells", n, days, slots, areas)
	}
	workers = make([]int, n)
	tasks = make([]int, n)
	weather = make([]float64, days*slots)
	seen := make([]bool, n)
	for _, chunk := range staged {
		for _, rr := range chunk {
			day, slot, area := int(rr.day), int(rr.slot), int(rr.area)
			flat := (day*slots+slot)*areas + area
			if seen[flat] {
				return fail("duplicate cell (%d,%d,%d)", day, slot, area)
			}
			seen[flat] = true
			workers[flat] = rr.w
			tasks[flat] = rr.t
			weather[day*slots+slot] = rr.wx
		}
	}
	return days, slots, areas, workers, tasks, weather, nil
}
