package shard

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ftoa/internal/codec"
	"ftoa/internal/geo"
	"ftoa/internal/model"
	"ftoa/internal/shard/wal"
)

// unframe strips the framing off a single encoded record.
func unframe(t testing.TB, framed []byte) []byte {
	t.Helper()
	if len(framed) < 8 {
		t.Fatalf("framed record of %d bytes", len(framed))
	}
	return framed[8:]
}

// TestRecoverRefusesV2: testdata/walv2 is a 2×1 halo router's log as the
// v2 format wrote it (a border worker, an interior task and a border task,
// then an advance). v3 records mean something else — a v2 log mirrors
// workers — so recovery refuses it at the first header, with the
// magic-mismatch error, before replaying anything.
func TestRecoverRefusesV2(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob("testdata/walv2/*.wal")
	if err != nil || len(segs) != 2 {
		t.Fatalf("fixture segments %v, %v", segs, err)
	}
	for _, sg := range segs {
		data, err := os.ReadFile(sg)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "FTWALv2") {
			t.Fatalf("%s is not a v2 segment", sg)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(sg)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := walTestConfig(2, 1, 10, nil)
	cfg.WAL = &wal.Options{Dir: dir}
	r, _, err := Recover(cfg)
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("Recover over a v2 log = %v, %v; want the magic mismatch", r, err)
	}
}

// TestReplayRefusesWorkerMirrors: workers are never mirrored, so a worker's
// ghost record (0x12) and a worker admission carrying a mirror identity are
// corrupt in a v3 log; replay refuses both.
func TestReplayRefusesWorkerMirrors(t *testing.T) {
	rec := &mirror{gid: 9, owner: 0, ownerLocal: 0, copies: []int32{0, 1}}
	w := &admission{side: workerSide, id: 1, loc: geo.Point{X: 4, Y: 5}, at: 2, window: 3}
	for _, p := range [][]byte{
		encodeAdmission(nil, w, rec, false),
		encodeAdmission(nil, w, &mirror{gid: 9, owner: 1}, true),
	} {
		r, err := NewRouter(walTestConfig(2, 2, 5, nil))
		if err != nil {
			t.Fatal(err)
		}
		si := r.state().shards[0]
		si.rep = &shardReplay{st: &replayState{mirrors: map[uint64]*mirror{}}}
		if err := r.replayOp(si, p[0], p); err == nil {
			t.Fatalf("replayed record 0x%02x %x", p[0], p)
		}
		if si.sess.NumWorkers() != 0 {
			t.Fatalf("record 0x%02x admitted a worker", p[0])
		}
	}
}

// FuzzReplayRecord feeds arbitrary payloads to the record decoders
// recovery runs on log bytes — the header (and the topology image inside
// it), the seal, admissions, the fixed-width operation records and the
// count pass — and replays the records whose contents reach a session
// (withdrawals, whose handle indexes its arenas, and admissions, whose
// deadline orders its expiry heap) against a shard holding one worker and
// one task.
// A CRC only proves a record is what was written, not that what was
// written is sane, so they must fail closed: an error, never a panic, and
// no allocation sized by a count the payload cannot back.
func FuzzReplayRecord(f *testing.F) {
	cfg := walTestConfig(2, 2, 5, nil)
	fp := encodeFingerprint(&cfg)
	topo := NewUniformTopology(2, 2).Encode(nil)
	header := unframe(f, encodeHeader(1, fp, headerMeta{gen: 3, kind: genCheckpoint, topoVer: 2, topo: topo, epochBase: 4, seqBase: 5}))
	rec := &mirror{gid: 9, owner: 1, ownerLocal: 7, copies: []int32{1, 0, 3}}
	owner := encodeAdmission(nil, &admission{side: workerSide, id: 1, loc: geo.Point{X: 4, Y: 5}, at: 2, window: 3}, rec, false)
	ghost := encodeAdmission(nil, &admission{side: taskSide, id: 2, at: 1, window: 2, expiryFired: true}, rec, true)
	plain := encodeAdmission(nil, &admission{side: taskSide, id: 3, at: math.NaN(), window: math.Inf(1)}, nil, false)
	f.Add(header)
	f.Add(header[:len(header)-2]) // topology image cut short
	f.Add(owner)
	f.Add(owner[:len(owner)-5]) // copy list cut short
	f.Add(ghost)
	f.Add(plain)
	// Admissions no session can order: replay must refuse them.
	f.Add(encodeAdmission(nil, &admission{side: workerSide, id: 4, loc: geo.Point{X: math.NaN(), Y: 5}, window: 3}, nil, false))
	f.Add(encodeAdmission(nil, &admission{side: taskSide, id: 5, loc: geo.Point{X: 5, Y: math.Inf(-1)}, window: 3}, rec, false))
	f.Add(encodeAdmission(nil, &admission{side: workerSide, id: 6, loc: geo.Point{X: 5, Y: 5}, at: 1, window: math.NaN()}, rec, true))
	f.Add(encodeAdmission(nil, &admission{side: taskSide, id: 7, at: math.Inf(-1), window: math.Inf(1)}, nil, false))
	f.Add(codec.AppendF64([]byte{opAdvance}, 12.5))
	f.Add(codec.AppendF64([]byte{opRetire}, 3))
	f.Add(codec.AppendU64([]byte{opWithdraw, 1}, 9))
	f.Add(codec.AppendU32([]byte{opWithdrawLocal, 7}, 2))
	f.Add(codec.AppendU32([]byte{opWithdrawLocal, 4}, 0))          // the worker the shard holds
	f.Add(codec.AppendU32([]byte{opWithdrawLocal, 0}, 0xFFFFFFFF)) // handle -1
	f.Add(codec.AppendU32([]byte{opWithdrawLocal, 1}, 1<<20))      // past the task arena
	f.Add([]byte{opFinish})
	seal := unframe(f, encodeSeal(sealMeta{topoVer: 2, matchBase: 7, carried: Totals{Workers: 5, GhostTasks: -3}}))
	f.Add(seal)
	f.Add(seal[:9])  // a seal from before seals carried totals
	f.Add(seal[:40]) // carried block cut short
	f.Add([]byte{decSeq, 1, 2, 3})
	f.Fuzz(func(t *testing.T, p []byte) {
		if len(p) == 0 {
			return // the scanner never delivers an empty payload
		}
		if hm, err := decodeHeader(p, 1, fp); err == nil {
			if hm.kind > genCheckpoint || len(hm.topo) > len(p) {
				t.Fatalf("accepted header %+v from %d bytes", hm, len(p))
			}
			if tp, err := DecodeTopology(hm.topo); err == nil && tp.BaseCols()*tp.BaseRows() > len(hm.topo) {
				t.Fatalf("%d-byte topology image sized a %dx%d table", len(hm.topo), tp.BaseCols(), tp.BaseRows())
			}
		}
		if sm, err := decodeSeal(p); err == nil && len(p) != 9 && len(p) < len(seal) {
			t.Fatalf("accepted seal %+v from %d bytes", sm, len(p))
		}
		admits := p[0] >= opWorker && p[0] <= opGhostTask
		if p[0] == opWithdraw || p[0] == opWithdrawLocal || admits {
			r, err := NewRouter(cfg)
			if err != nil {
				t.Fatal(err)
			}
			si := r.state().shards[0]
			si.sess.AddWorker(model.Worker{Loc: geo.Point{X: 5, Y: 5}, Patience: 9})
			si.sess.AddTask(model.Task{Loc: geo.Point{X: 45, Y: 45}, Expiry: 9})
			si.rep = &shardReplay{st: &replayState{mirrors: map[uint64]*mirror{}}}
			err = r.replayOp(si, p[0], p) // an error is fine; a panic is the bug
			if ad, _, _, derr := decodeAdmission(p, workerSide); admits && derr == nil && err == nil && !ad.valid() {
				t.Fatalf("replayed an admission no session can order: %+v", ad)
			}
		}
		for _, sd := range sides {
			_, mi, mirrored, err := decodeAdmission(p, sd)
			if 4*cap(mi.copies) > len(p) {
				t.Fatalf("%d-byte payload allocated room for %d copies", len(p), cap(mi.copies))
			}
			if err == nil && !mirrored && mi.copies != nil {
				t.Fatal("unmirrored admission decoded a copy list")
			}
		}
		c := loadCounter{every: 5, clock: math.Inf(-1)}
		if err := c.record(p); err != nil {
			t.Fatalf("count pass rejected a payload: %v", err)
		}
		if c.closeEpoch(); c.peak.n[workerSide]+c.peak.n[taskSide] > 1 {
			t.Fatalf("one record counted as %+v", c.peak)
		}
		// The fixed-width operation decoders share one bounds-checked cursor.
		d := codec.NewReader("wal", p, 1)
		d.U8("flags")
		d.U64("gid")
		d.U32("handle")
		d.F64("clock")
		if d.Err() == nil && d.Len() < 0 {
			t.Fatalf("cursor %d bytes past a %d-byte payload", -d.Len(), len(p))
		}
	})
}
