package shard

import (
	"math"
	"os"
	"path/filepath"
	"slices"
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
func TestRecoverRefusesV2(t *testing.T) { recoverOldLog(t, "walv2", "FTWALv2") }

// TestRecoverRefusesV3: testdata/walv3 is a 2×1 halo router's log as the
// v3 format wrote it: a checkpoint generation whose seal carries a match
// ordinal base (a matched pair before it), then a border worker, a border
// task and an advance. A v4 seal has no such field, so recovery refuses
// the log at its first header with the magic-mismatch error.
func TestRecoverRefusesV3(t *testing.T) { recoverOldLog(t, "walv3", "FTWALv3") }

// recoverOldLog copies the two segments of testdata/<fixture> into a fresh
// directory and expects Recover to refuse them with the magic mismatch.
func recoverOldLog(t *testing.T, fixture, magic string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "wal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join("testdata", fixture, "*.wal"))
	if err != nil || len(segs) != 2 {
		t.Fatalf("fixture segments %v, %v", segs, err)
	}
	for _, sg := range segs {
		data, err := os.ReadFile(sg)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), magic) {
			t.Fatalf("%s is not a %s segment", sg, magic)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(sg)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := walTestConfig(2, 1, 10, nil)
	cfg.WAL = &wal.Options{Dir: dir}
	r, _, err := Recover(cfg)
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("Recover over a %s log = %v, %v; want the magic mismatch", magic, r, err)
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

// TestWALDecodersRefuseTrailingBytes: every record decoder reads its
// record to the last byte, so a valid record with one byte appended is
// refused with the trailing-bytes error rather than half read — the seal,
// each admission kind, and each fixed-width operation replay applies.
func TestWALDecodersRefuseTrailingBytes(t *testing.T) {
	rec := &mirror{gid: 9, owner: 0, ownerLocal: 0, copies: []int32{0, 1}}
	task := &admission{side: taskSide, id: 2, loc: geo.Point{X: 4, Y: 5}, at: 1, window: 2}
	worker := &admission{side: workerSide, id: 1, loc: geo.Point{X: 4, Y: 5}, at: 1, window: 3}
	decode := func(sd side) func(p []byte) error {
		return func(p []byte) error {
			_, _, _, err := decodeAdmission(p, sd)
			return err
		}
	}
	replay := func(p []byte) error {
		r, err := NewRouter(walTestConfig(2, 2, 5, nil))
		if err != nil {
			t.Fatal(err)
		}
		si := r.state().shards[0]
		si.sess.AddWorker(model.Worker{Loc: geo.Point{X: 5, Y: 5}, Patience: 9})
		si.sess.AddTask(model.Task{Loc: geo.Point{X: 45, Y: 45}, Expiry: 9})
		si.rep = &shardReplay{st: &replayState{mirrors: map[uint64]*mirror{}}}
		return r.replayOp(si, p[0], p)
	}
	for _, c := range []struct {
		what   string
		p      []byte
		decode func([]byte) error
	}{
		{"seal", unframe(t, encodeSeal(sealMeta{topoVer: 2, carried: Totals{Workers: 5}})), func(p []byte) error {
			_, err := decodeSeal(p)
			return err
		}},
		{"admission", encodeAdmission(nil, worker, nil, false), decode(workerSide)},
		{"admission", encodeAdmission(nil, task, rec, false), decode(taskSide)},
		{"admission", encodeAdmission(nil, task, &mirror{gid: 9, owner: 1, ownerLocal: 3}, true), decode(taskSide)},
		{"advance", codec.AppendF64([]byte{opAdvance}, 2.5), replay},
		{"retire", codec.AppendF64([]byte{opRetire}, 1), replay},
		{"withdraw", codec.AppendU64([]byte{opWithdraw}, 9), replay},
		{"local withdraw", codec.AppendU32([]byte{opWithdrawLocal, 1 | 4}, 0), replay},
		{"finish", []byte{opFinish}, replay},
	} {
		if err := c.decode(c.p); err != nil {
			t.Fatalf("valid %s record 0x%02x refused: %v", c.what, c.p[0], err)
		}
		want := "wal: 1 trailing bytes after " + c.what
		if err := c.decode(append(c.p, 0)); err == nil || err.Error() != want {
			t.Errorf("%s record 0x%02x with a byte appended: %v, want %q", c.what, c.p[0], err, want)
		}
	}
}

// FuzzReplayRecord feeds arbitrary payloads to the record decoders
// recovery runs on log bytes — the header (and the topology image inside
// it), the seal, admissions and the fixed-width operation records — and
// replays the records whose contents reach a session
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
	seal := unframe(f, encodeSeal(sealMeta{topoVer: 2, carried: Totals{Workers: 5, GhostTasks: -3}}))
	f.Add(seal)
	f.Add(seal[:9])  // a seal from before seals carried totals
	f.Add(seal[:40]) // carried block cut short
	// A v3 seal: a match ordinal base between the version and the totals.
	f.Add(slices.Concat(seal[:9], codec.AppendU64(nil, 7), seal[9:]))
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
