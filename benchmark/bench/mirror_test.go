package bench

import (
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ftoa/internal/wire"
)

// driftScript is the fixed 1000-request conversation both sides must
// answer identically: admissions across all four shards, advances, a
// refused window, a reserved seq, a replayed batch and a seq that aged
// out of a 64-seq dedup window.
func driftScript() [][]wire.Request {
	var batches [][]wire.Request
	seq := uint64(0)
	for b := 0; b < 20; b++ {
		var reqs []wire.Request
		for i := 0; i < 50; i++ {
			n := b*50 + i
			seq++
			rq := wire.Request{
				Kind: wire.ReqAddWorker, Seq: seq, Window: Patience, At: float64(n) * 0.002,
				X: math.Mod(float64(n)*37.3, BoundsSide), Y: math.Mod(float64(n)*11.7, BoundsSide),
			}
			if n%2 == 1 {
				rq.Kind, rq.Window = wire.ReqAddTask, Expiry
			}
			switch {
			case n%97 == 13:
				rq.Window = 0 // refused: window must be positive
			case n%101 == 7:
				rq.Seq = 0 // refused: reserved seq
			case n%50 == 49:
				rq = wire.Request{Kind: wire.ReqAdvance}
			}
			reqs = append(reqs, rq)
		}
		batches = append(batches, reqs)
		if b == 9 {
			batches = append(batches, reqs)                                   // re-sent: replayed from the window
			batches = append(batches, []wire.Request{batches[0][0], reqs[3]}) // aged out / still remembered
		}
	}
	return batches
}

// answer is the part of a result both sides must agree on (not the
// wall-clock stamp, not the jittered retry hint).
type answer struct {
	Kind, Status byte
	Shard, Local uint32
	Epoch        uint64
	Msg          string
}

func answers(res []wire.Result) []answer {
	out := make([]answer, len(res))
	for i, r := range res {
		out[i] = answer{r.Kind, r.Status, r.Shard, r.Local, r.Epoch, r.Msg}
	}
	return out
}

// converse sends every batch of the script over ccn and collects the
// replies; serve, when set, is the in-process far end handling one frame.
func converse(t *testing.T, ccn *wire.Conn, serve func() error) [][]answer {
	t.Helper()
	var out [][]answer
	for id, reqs := range driftScript() {
		p, err := wire.AppendBatch(nil, uint64(id+1), reqs)
		if err != nil {
			t.Fatal(err)
		}
		if err := ccn.WriteFrame(p); err != nil {
			t.Fatal(err)
		}
		if serve != nil {
			if err := serve(); err != nil {
				t.Fatal(err)
			}
		}
		reply, err := ccn.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		gotID, res, err := wire.DecodeBatchReply(reply)
		if err != nil || gotID != uint64(id+1) || len(res) != len(reqs) {
			t.Fatalf("batch %d: reply id %d, %d results, err %v", id+1, gotID, len(res), err)
		}
		out = append(out, answers(res))
	}
	return out
}

// TestMirrorMatchesBinary is the mirror-drift guard: the in-process
// mirror the per-layer table is measured on must answer a fixed script
// exactly as the real ftoa-serve binary does, so the table cannot
// silently describe a path handleBatch no longer takes.
func TestMirrorMatchesBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs ftoa-serve")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain to build ftoa-serve with")
	}
	w := Workload{Name: "drift", Alg: "greedy", Cols: 2, Rows: 2}
	const window = 64

	m, err := NewMirror(MirrorOptions{Workload: w, Dedup: window}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ccn, scn, err := socketPair(42, m.Router.NumShards())
	if err != nil {
		t.Fatal(err)
	}
	defer ccn.Close()
	defer scn.Close()
	win, err := m.Dedup.Acquire(42)
	if err != nil {
		t.Fatal(err)
	}
	var scratch []wire.Request
	mirrored := converse(t, ccn, func() error {
		p, err := scn.ReadFrame()
		if err != nil {
			return err
		}
		scratch, err = m.HandleBatch(scn, win, p, scratch[:0], -1, 0)
		return err
	})

	dir := t.TempDir()
	bin := filepath.Join(dir, "ftoa-serve")
	build := exec.Command("go", "build", "-o", bin, "ftoa/cmd/ftoa-serve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ftoa-serve: %v\n%s", err, out)
	}
	flags := append(w.ServerFlags("", ""), "-retire", "0", "-wire-dedup-window", "64")
	srv, err := StartServer(bin, flags, filepath.Join(dir, "serve.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	if _, err := srv.WaitHealthy(30 * time.Second); err != nil {
		log, _ := os.ReadFile(filepath.Join(dir, "serve.log"))
		t.Fatalf("%v\n%s", err, log)
	}
	cl, err := dialRaw(srv.WireAddr, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	served := converse(t, cl, nil)

	if len(mirrored) != len(served) {
		t.Fatalf("%d mirrored replies, %d served", len(mirrored), len(served))
	}
	statuses := map[byte]int{}
	for b := range served {
		if !reflect.DeepEqual(mirrored[b], served[b]) {
			for i := range served[b] {
				if mirrored[b][i] != served[b][i] {
					t.Fatalf("batch %d request %d: mirror answered %+v, ftoa-serve %+v", b, i, mirrored[b][i], served[b][i])
				}
			}
		}
		for _, a := range served[b] {
			statuses[a.Status]++
		}
	}
	// The script must actually exercise the refusal and replay paths.
	if statuses[wire.StatusErr] < 10 || statuses[wire.StatusOK] < 900 {
		t.Errorf("script too tame: statuses %v", statuses)
	}
}

// dialRaw opens a handshaken wire connection without the Client's reader
// goroutine or seq assignment, so the script controls every byte.
func dialRaw(addr string, clientID uint64) (*wire.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cn := wire.NewConn(c)
	if _, err := wire.ClientHandshake(cn, clientID); err != nil {
		cn.Close()
		return nil, err
	}
	return cn, nil
}
