package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Server is one ftoa-serve child process under measurement.
type Server struct {
	cmd      *exec.Cmd
	logPath  string
	Started  time.Time // just before exec
	HTTPAddr string
	WireAddr string
	client   *http.Client
	exited   chan struct{} // closed once the child has been reaped
	waitErr  error
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// StartServer execs bin with GOMAXPROCS=1 on two fresh loopback ports;
// the child's stderr goes to logPath (appended).
func StartServer(bin string, flags []string, logPath string) (*Server, error) {
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	wireAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", httpAddr, "-listen-wire", wireAddr}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stdout, cmd.Stderr = logf, logf
	// Stop is deferred on every return path; this covers the paths that are
	// not returns (a panic, a signal to the driver): the child never
	// outlives the benchmark.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &Server{
		cmd: cmd, logPath: logPath, HTTPAddr: httpAddr, WireAddr: wireAddr,
		client:  &http.Client{Timeout: 2 * time.Second},
		exited:  make(chan struct{}),
		Started: time.Now(),
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		s.waitErr = cmd.Wait()
		logf.Close()
		close(s.exited)
	}()
	return s, nil
}

// WaitHealthy polls /healthz until it answers 200 — the boot gate opens
// only after guide construction / WAL recovery — and returns the time
// since exec.
func (s *Server) WaitHealthy(timeout time.Duration) (time.Duration, error) {
	deadline := s.Started.Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := s.client.Get("http://" + s.HTTPAddr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(s.Started), nil
			}
		}
		select {
		case <-s.exited:
			return 0, fmt.Errorf("server exited during boot: %v (see %s)", s.waitErr, s.logPath)
		case <-time.After(time.Millisecond):
		}
	}
	return 0, fmt.Errorf("server not healthy after %v (see %s)", timeout, s.logPath)
}

// ServerStats is the slice of GET /stats the benchmark checks against.
type ServerStats struct {
	Workers       int `json:"workers"`
	Tasks         int `json:"tasks"`
	LiveWorkers   int `json:"live_workers"`
	LiveTasks     int `json:"live_tasks"`
	Matches       int `json:"matches"`
	Attempted     int `json:"attempted"`
	GhostWorkers  int `json:"ghost_workers"`
	GhostTasks    int `json:"ghost_tasks"`
	ClaimsLost    int `json:"claims_lost"`
	BorderMatches int `json:"border_matches"`
	Wire          struct {
		Requests    uint64 `json:"requests"`
		Busy        uint64 `json:"busy"`
		Deduped     uint64 `json:"deduped"`
		ProtoErrors uint64 `json:"protocol_errors"`
	} `json:"wire"`
	Events struct {
		Subscribers int    `json:"subscribers"`
		Fallbacks   uint64 `json:"fallbacks"`
		Wakeups     uint64 `json:"wakeups"`
		EvictedSubs uint64 `json:"evicted_subs"`
	} `json:"events"`
	WAL struct {
		RecoveredEvents int `json:"recovered_events"`
	} `json:"wal"`
}

// Owned is the lifetime admissions excluding halo ghost copies — the
// figure that must equal what clients were acknowledged.
func (st *ServerStats) Owned() int {
	return st.Workers + st.Tasks - st.GhostWorkers - st.GhostTasks
}

// Stats fetches GET /stats.
func (s *Server) Stats() (*ServerStats, error) {
	resp, err := s.client.Get("http://" + s.HTTPAddr + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/stats: %s", resp.Status)
	}
	var st ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// CPU returns the CPU time the child's threads have run, user and
// system, summed over /proc/<pid>/task/*/schedstat. That counter has
// nanosecond resolution; utime+stime in /proc/<pid>/stat count 10 ms
// ticks, too coarse once a request costs microseconds. Go's runtime
// threads do not exit, so the sum never loses a thread's share.
func (s *Server) CPU() (time.Duration, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", s.cmd.Process.Pid))
	if err != nil || len(paths) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d (kernel without CONFIG_SCHED_INFO?)", s.cmd.Process.Pid)
	}
	var total time.Duration
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		ns, err := parseSchedstat(b)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p, err)
		}
		total += ns
	}
	return total, nil
}

// parseSchedstat returns the first field of a schedstat line: time spent
// on the CPU, in nanoseconds.
func parseSchedstat(b []byte) (time.Duration, error) {
	f := strings.Fields(string(b))
	if len(f) != 3 {
		return 0, fmt.Errorf("bad schedstat %q", b)
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	return time.Duration(ns), err
}

// PeakRSSMB returns the child's resident-set high-water mark (VmHWM).
func (s *Server) PeakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// Stop SIGTERMs the child (graceful drain, WAL close), waits for it, and
// escalates to SIGKILL after a grace period. Safe to call twice.
func (s *Server) Stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		return s.waitErr
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("server ignored SIGTERM for 20s; killed")
	}
}
