package shard

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"ftoa/internal/faultfs"
)

// walGoldenListing drives one fixed single-producer history through a 4×4
// halo router on faultfs and returns one "name bytes sha256" line per WAL
// segment it ever wrote. The history takes every path that appends an
// admission record: interior and border admissions of both sides through
// the direct calls and through an Admitter (one op in flight, so the
// drainers cannot reorder anything), platform withdrawals of Admitter
// receipts, manual and scheduled retirements, Strict expiries, a Rebalance
// split and a Checkpoint (whose re-admissions are migrated records).
func walGoldenListing(t *testing.T) string {
	t.Helper()
	fs := faultfs.New()
	r, err := NewRouter(walTestConfig(4, 4, 8, fs))
	if err != nil {
		t.Fatal(err)
	}
	adm := NewAdmitter(r, AdmitterConfig{})
	type receipt struct {
		res  AdmitResult
		task bool
	}
	var receipts []receipt
	// drive applies ops, admissions alternating between the direct path and
	// the Admitter, and every 11th Admitter receipt is withdrawn.
	drive := func(ops []walOp) {
		t.Helper()
		for i, op := range ops {
			if (op.kind != 'w' && op.kind != 't') || i%2 == 0 {
				applyWalOps(t, r, ops[i:i+1])
				continue
			}
			var res AdmitResult
			var wg sync.WaitGroup
			ok := false
			if op.kind == 't' {
				ok = adm.AddTask(op.t, &res, &wg)
			} else {
				ok = adm.AddWorker(op.w, &res, &wg)
			}
			if !ok {
				t.Fatalf("op %d refused on an idle ring", i)
			}
			wg.Wait()
			if res.Err != nil {
				t.Fatalf("op %d: %v", i, res.Err)
			}
			receipts = append(receipts, receipt{res, op.kind == 't'})
			if len(receipts)%11 == 0 {
				rc := receipts[len(receipts)-4]
				if rc.task {
					_, err = r.WithdrawTask(rc.res.H, rc.res.Epoch)
				} else {
					_, err = r.WithdrawWorker(rc.res.H, rc.res.Epoch)
				}
				if err != nil && err != ErrStaleHandle {
					t.Fatalf("withdraw after op %d: %v", i, err)
				}
			}
		}
	}
	ops := genWalOps(1200, 19)
	drive(ops[:500])
	topo, err := r.Topology().Split(5)
	if err != nil {
		t.Fatal(err)
	}
	if info, err := r.Rebalance(topo); err != nil || !info.Sealed {
		t.Fatalf("Rebalance: %+v, %v", info, err)
	}
	receipts = receipts[:0] // the migration made them stale
	drive(ops[500:850])
	if info, err := r.Checkpoint(); err != nil || !info.Sealed {
		t.Fatalf("Checkpoint: %+v, %v", info, err)
	}
	receipts = receipts[:0]
	drive(ops[850:])
	adm.Close()
	if err := r.WALClose(); err != nil {
		t.Fatal(err)
	}
	tot := r.Totals()
	if tot.Matches == 0 || tot.GhostWorkers != 0 || tot.GhostTasks == 0 || tot.ExpiredWorkers == 0 ||
		tot.ExpiredTasks == 0 || tot.WithdrawnWorkers == 0 || tot.WithdrawnTasks == 0 || tot.BorderMatches == 0 {
		t.Fatalf("degenerate history: %+v", tot)
	}
	// Unlinks are not durable on faultfs until PersistRemoves: the crash
	// brings the superseded generations back, so every segment is listed.
	fs.Crash()
	names, err := fs.ReadDir("wal")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, name := range names {
		data := fs.Durable("wal/" + name)
		fmt.Fprintf(&b, "%s %d %x\n", name, len(data), sha256.Sum256(data))
	}
	return b.String()
}

// TestWALBytesGolden pins the log's bytes: testdata/wal_golden.txt was
// produced by this test at the commit before the router's admission paths
// were folded into one (and is reproduced by deleting the file's contents
// and copying the listing the failure prints); the two segments that hold a
// seal were regenerated once since, when the seal's carried Attempted and
// Rejected stopped taking back what a migration's re-admissions attempt
// (six bytes each: the two counters and the record's CRC). The whole listing
// was regenerated for the v3 log, which mirrors tasks only (244 153 bytes
// over the 54 segments before, 204 988 after), and again for the v4 log,
// whose seal no longer carries a match ordinal base (every header's magic
// moved; 204 972 bytes after, 8 fewer in each segment holding a seal).
// Any change to what an
// admission, withdrawal, migration or seal writes — a field, a flag bit, the
// order of two records — moves a hash.
func TestWALBytesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/wal_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := walGoldenListing(t)
	if n := strings.Count(got, "\n"); n < 16+19+19 {
		t.Fatalf("%d segments listed, want the three generations of a 16→19-region history", n)
	}
	if got != string(want) {
		t.Fatalf("WAL bytes differ from testdata/wal_golden.txt; this run wrote:\n%s", got)
	}
}
