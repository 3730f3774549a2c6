package workload

import (
	"strconv"
	"strings"
	"testing"
)

func TestLoadInstanceCSVRoundTrip(t *testing.T) {
	csvData := `kind,id,x,y,time,window
worker,0,1.5,2.5,0.0,2.0
worker,1,10.0,10.0,1.0,3.0
task,0,2.0,2.0,0.5,1.0
task,1,9.5,10.5,2.0,1.5
`
	in, err := LoadInstanceCSV(strings.NewReader(csvData), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Workers) != 2 || len(in.Tasks) != 2 {
		t.Fatalf("loaded %d workers, %d tasks", len(in.Workers), len(in.Tasks))
	}
	if in.Workers[1].Loc.X != 10 || in.Workers[1].Patience != 3 {
		t.Errorf("worker 1 = %+v", in.Workers[1])
	}
	if in.Tasks[0].Release != 0.5 || in.Tasks[0].Expiry != 1 {
		t.Errorf("task 0 = %+v", in.Tasks[0])
	}
	if in.Velocity != 5 {
		t.Errorf("velocity = %v", in.Velocity)
	}
	// Bounds must contain every point.
	for i := range in.Workers {
		if !in.Bounds.Contains(in.Workers[i].Loc) {
			t.Errorf("worker %d outside bounds", i)
		}
	}
	for i := range in.Tasks {
		if !in.Bounds.Contains(in.Tasks[i].Loc) {
			t.Errorf("task %d outside bounds", i)
		}
	}
	// Horizon covers the latest deadline.
	if in.Horizon < 4 {
		t.Errorf("horizon = %v, want ≥ 4", in.Horizon)
	}
}

func TestLoadInstanceCSVRejectsGarbage(t *testing.T) {
	cases := []string{
		"",                          // empty
		"nope,id,x,y,time,window\n", // wrong header
		"kind,id,x,y,time,window\nfrog,0,1,1,1,1",    // unknown kind
		"kind,id,x,y,time,window\nworker,x,1,1,1,1",  // bad id
		"kind,id,x,y,time,window\nworker,0,?,1,1,1",  // bad number
		"kind,id,x,y,time,window\nworker,0,1,1,1,-2", // negative window
		"kind,id,x,y,time,window\n",                  // no objects
		"kind,id,x,y,time,window\nworker,0,1,1,1",    // wrong field count
		// Non-finite numbers, which strconv.ParseFloat accepts.
		"kind,id,x,y,time,window\nworker,0,NaN,1,0,5", // NaN coordinate
		"kind,id,x,y,time,window\ntask,0,Inf,1,1,5",   // infinite coordinate
		"kind,id,x,y,time,window\nworker,0,1,1,NaN,5", // NaN time
		"kind,id,x,y,time,window\ntask,0,1,1,1,Inf",   // infinite window
	}
	for i, c := range cases {
		if _, err := LoadInstanceCSV(strings.NewReader(c), 1); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	good := "kind,id,x,y,time,window\nworker,0,1,1,1,1\n"
	if _, err := LoadInstanceCSV(strings.NewReader(good), 0); err == nil {
		t.Error("zero velocity accepted")
	}
}

func TestLoadCountsCSVRoundTrip(t *testing.T) {
	csvData := `day,slot,area,workers,tasks,weather
0,0,0,3,4,0.1
0,0,1,1,0,0.1
0,1,0,2,2,0.5
0,1,1,0,1,0.5
1,0,0,5,6,0.0
1,0,1,2,3,0.0
1,1,0,1,1,0.2
1,1,1,4,4,0.2
`
	days, slots, areas, workers, tasks, weather, err := LoadCountsCSV(strings.NewReader(csvData))
	if err != nil {
		t.Fatal(err)
	}
	if days != 2 || slots != 2 || areas != 2 {
		t.Fatalf("dims %d×%d×%d", days, slots, areas)
	}
	if workers[0] != 3 || tasks[0] != 4 {
		t.Errorf("cell (0,0,0) = %d/%d", workers[0], tasks[0])
	}
	if workers[(1*2+1)*2+1] != 4 {
		t.Errorf("cell (1,1,1) worker = %d", workers[(1*2+1)*2+1])
	}
	if weather[1*2+1] != 0.2 {
		t.Errorf("weather (1,1) = %v", weather[3])
	}
}

func TestLoadCountsCSVRejectsGarbage(t *testing.T) {
	cases := []string{
		"day,slot,area,workers,tasks,weather\n0,0,0,1,1,0.1\n0,0,0,2,2,0.1\n", // duplicate
		"day,slot,area,workers,tasks,weather\n0,0,1,1,1,0.1\n",                // missing cell (0,0,0)
		"day,slot,area,workers,tasks,weather\n0,0,0,-1,1,0.1\n",               // negative
		"day,slot,area,workers,tasks,weather\nx,0,0,1,1,0.1\n",                // bad int
		"nope\n", // header
		// Dimensions whose product wraps around to the row count (1): the
		// first mod 2^64 with a 63-bit index, the second (2^65+1) with
		// indices that each fit 32 bits.
		"day,slot,area,workers,tasks,weather\n32,130,8534232742868170,1,1,0.1\n",
		"day,slot,area,workers,tasks,weather\n11806112,409890,7623850,1,1,0.1\n",
	}
	for i, c := range cases {
		if _, _, _, _, _, _, err := LoadCountsCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestGenLoadRoundTrip: counts emitted by a trace survive the round trip
// through the CSV format into predict-ready tensors.
func TestGenLoadRoundTrip(t *testing.T) {
	c := Beijing()
	c.Days = 2
	c.Cols, c.Rows = 3, 3
	c.SlotsPerDay = 4
	c.WorkersPerDay = 200
	c.TasksPerDay = 200
	tr, err := c.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("day,slot,area,workers,tasks,weather\n")
	areas := tr.Grid.NumCells()
	for d := 0; d < c.Days; d++ {
		for s := 0; s < c.SlotsPerDay; s++ {
			for a := 0; a < areas; a++ {
				sb.WriteString(
					intStr(d) + "," + intStr(s) + "," + intStr(a) + "," +
						intStr(tr.WorkerCounts[d][s*areas+a]) + "," +
						intStr(tr.TaskCounts[d][s*areas+a]) + ",0.0\n")
			}
		}
	}
	days, slots, gotAreas, workers, _, _, err := LoadCountsCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if days != c.Days || slots != c.SlotsPerDay || gotAreas != areas {
		t.Fatalf("dims %d×%d×%d", days, slots, gotAreas)
	}
	for d := 0; d < days; d++ {
		for i, v := range tr.WorkerCounts[d] {
			if workers[d*slots*areas+i] != v {
				t.Fatalf("day %d cell %d: %d != %d", d, i, workers[d*slots*areas+i], v)
			}
		}
	}
}

func intStr(v int) string { return strconv.Itoa(v) }
