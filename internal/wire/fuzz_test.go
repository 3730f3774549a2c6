package wire

import (
	"bytes"
	"math"
	"testing"
)

// The decoders below read bytes straight off the network: Batch on the
// server's admission path, BatchReply on the client's, Events on every
// subscriber. For any input they must not panic, must not size an
// allocation from a declared count the payload cannot back, and whatever
// they accept must re-encode to the bytes it was decoded from. Seed
// corpora live in testdata/fuzz.

func FuzzDecodeBatch(f *testing.F) {
	valid, err := AppendBatch(nil, 7, []Request{
		{Kind: ReqAddWorker, Seq: 1, X: 10, Y: 20, At: math.NaN(), Window: 300},
		{Kind: ReqAddTask, Seq: 2, X: 11, Y: 21, At: 5, Window: 60},
		{Kind: ReqAdvance},
		{Kind: ReqWithdrawWorker, Seq: 3, Shard: 4, Local: 5, Epoch: 6},
		{Kind: ReqWithdrawTask, Seq: 4, Shard: 1, Local: 2, Epoch: 3},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// What the codec carries but the server must not trust (ftoa-serve
	// clamps the stamp and refuses the coordinates): a non-finite arrival
	// time, non-finite coordinates.
	hostile, err := AppendBatch(nil, 8, []Request{
		{Kind: ReqAddWorker, Seq: 1, X: 10, Y: 20, At: math.Inf(1), Window: 300},
		{Kind: ReqAddTask, Seq: 2, X: math.NaN(), Y: math.Inf(-1), At: 5, Window: 60},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hostile)
	f.Add(valid[:len(valid)-3])                                 // truncated mid-entry
	f.Add(append(append([]byte(nil), valid...), 0))             // trailing byte
	f.Add([]byte{MsgBatch, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff}) // 65535 entries, none present
	f.Add([]byte{MsgBatch, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0x7f}) // unknown request kind
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		id, reqs, err := DecodeBatch(p, nil)
		if cap(reqs) > 2*len(p) { // the smallest request is one byte
			t.Fatalf("%d-byte payload grew a %d-request slice", len(p), cap(reqs))
		}
		if err != nil {
			return
		}
		if len(reqs) == 0 || len(reqs) > MaxBatch {
			t.Fatalf("accepted a batch of %d requests", len(reqs))
		}
		enc, err := AppendBatch(nil, id, reqs)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		if !bytes.Equal(enc[1:], p[1:]) { // byte 0 is the frame type, dispatched on before decoding
			t.Fatalf("round trip changed the payload:\n in  %x\n out %x", p, enc)
		}
	})
}

func FuzzDecodeEvents(f *testing.F) {
	valid := AppendEvents(nil, 42, []Event{
		{Seq: 40, Shard: 1, Kind: 0, Worker: 3, Task: 4, Time: 1.5, WorkerShard: 1, TaskShard: 2},
		{Seq: 41, Shard: 2, Kind: 1, Worker: 9, Task: -1, Time: math.Inf(1), WorkerShard: 2, TaskShard: -1},
	})
	f.Add(valid)
	f.Add(AppendEvents(nil, 0, nil))
	f.Add(valid[:len(valid)-1])                                  // truncated
	f.Add(append(append([]byte(nil), valid...), 0))              // trailing byte
	f.Add([]byte{MsgEvents, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff}) // 65535 events, none present
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		next, evs, err := DecodeEvents(p)
		if cap(evs)*eventWireSize > len(p) {
			t.Fatalf("%d-byte payload allocated room for %d events", len(p), cap(evs))
		}
		if err != nil {
			return
		}
		if enc := AppendEvents(nil, next, evs); !bytes.Equal(enc[1:], p[1:]) {
			t.Fatalf("round trip changed the payload:\n in  %x\n out %x", p, enc)
		}
	})
}

func FuzzDecodeBatchReply(f *testing.F) {
	valid := AppendBatchReply(nil, 7, []Result{
		{Kind: ReqAddWorker, Status: StatusOK, Shard: 1, Local: 2, Epoch: 3, Time: 4.5},
		{Kind: ReqAdvance, Status: StatusOK, Time: 9},
		{Kind: ReqWithdrawTask, Status: StatusOK, Applied: true},
		{Kind: ReqAddTask, Status: StatusBusy, RetryAfter: 0.25},
		{Kind: ReqAddTask, Status: StatusErr, Msg: "finished"},
	})
	f.Add(valid)
	f.Add(AppendBatchReply(nil, 0, nil))
	f.Add(valid[:len(valid)-2])                                      // truncated mid-message
	f.Add(append(append([]byte(nil), valid...), 0))                  // trailing byte
	f.Add([]byte{MsgBatchReply, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff}) // 65535 results, none present
	f.Add([]byte{MsgBatchReply, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 9}) // unknown status
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		id, results, err := DecodeBatchReply(p)
		if cap(results)*minResultWireSize > len(p) {
			t.Fatalf("%d-byte payload allocated room for %d results", len(p), cap(results))
		}
		if err != nil {
			return
		}
		// The encoding is not canonical in two places (any non-zero applied
		// byte is true; an over-long message is cut on encode), so the round
		// trip is checked one step later: what was decoded must re-encode
		// to bytes that decode and re-encode to themselves.
		enc := AppendBatchReply(nil, id, results)
		id2, again, err := DecodeBatchReply(enc)
		if err != nil || id2 != id || len(again) != len(results) {
			t.Fatalf("re-encoded reply does not decode back: id %d->%d, %d->%d results, err %v", id, id2, len(results), len(again), err)
		}
		if enc2 := AppendBatchReply(nil, id2, again); !bytes.Equal(enc2, enc) {
			t.Fatalf("round trip is not a fixed point:\n first  %x\n second %x", enc, enc2)
		}
	})
}
