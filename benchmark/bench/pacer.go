package bench

import (
	"syscall"
	"time"
)

// Clock abstracts wall time so the open-loop scheduler is testable with
// a virtual clock; realClock is what runs use.
type Clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

// realClock sleeps in nanosleep(2) rather than on a runtime timer: an
// idle Go process parks in epoll_wait, whose timeout rounds sub-ms
// delays up to 1 ms — coarser than the lateness the benchmark tolerates.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

// OpenLoop fires n sends on a fixed schedule: send i is due at
// start+i*interval regardless of how long earlier sends took. fire gets
// the DUE time, so whatever it measures counts the wait a stall imposes
// on later sends; the returned slice is how late each send left, in
// seconds (the generator's own health figure). A slow fire never skips
// or reschedules later sends — they go out late, back to back.
func OpenLoop(clk Clock, start time.Time, interval time.Duration, n int, fire func(i int, due time.Time)) []float64 {
	late := make([]float64, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		clk.SleepUntil(due)
		late[i] = clk.Now().Sub(due).Seconds()
		fire(i, due)
	}
	return late
}

// Probe is one clock-calibration round trip: client send and receive
// instants (seconds on the client clock) around the server clock value
// the reply carried.
type Probe struct {
	Send, Recv, Server float64
}

// ClockOffset estimates server-minus-client clock offset from the probe
// with the smallest round trip, assuming the server stamped its answer
// midway; rtt is that probe's round trip. client = server - offset.
func ClockOffset(probes []Probe) (offset, rtt float64) {
	best := -1
	for i, p := range probes {
		if best < 0 || p.Recv-p.Send < probes[best].Recv-probes[best].Send {
			best = i
		}
	}
	if best < 0 {
		return 0, 0
	}
	p := probes[best]
	return p.Server - (p.Send+p.Recv)/2, p.Recv - p.Send
}
