package workload

import (
	"bytes"
	"math"
	"testing"
)

// FuzzLoadInstanceCSV: the replay door (ftoa-loadgen -trace, the public
// ftoa.LoadInstanceCSV) never panics, and whatever it accepts is an
// instance the rest of the stack can trust — finite bounds and horizon,
// Validate-clean, one arrival event per object.
func FuzzLoadInstanceCSV(f *testing.F) {
	// What ftoa-gen's writeInstance emits: six-decimal fixed-point rows.
	f.Add([]byte("kind,id,x,y,time,window\nworker,0,13.200000,7.800000,21.300000,2.000000\ntask,0,24.400000,23.200000,42.500000,1.500000\n"))
	for _, row := range []string{"worker,0,NaN,1,0,5", "task,0,Inf,1,1,5", "worker,0,1,1,NaN,5", "task,0,1,1,1,Inf"} {
		f.Add([]byte("kind,id,x,y,time,window\n" + row + "\n"))
	}
	f.Add([]byte("kind,id,x,y,time,window\nworker,0,-1e308,0,1e308,1e308\ntask,0,1e308,0,0,1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := LoadInstanceCSV(bytes.NewReader(data), 1)
		if err != nil {
			return
		}
		for _, v := range []float64{in.Bounds.MinX, in.Bounds.MinY, in.Bounds.MaxX, in.Bounds.MaxY, in.Horizon} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted with bounds %+v horizon %v", in.Bounds, in.Horizon)
			}
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("accepted but invalid: %v", err)
		}
		if got, want := len(in.Events()), len(in.Workers)+len(in.Tasks); got != want {
			t.Fatalf("%d events for %d objects", got, want)
		}
	})
}
