// WAL record payloads — the binary vocabulary of the per-shard write-ahead
// log (package codec frames records and reads their fields, package wal
// owns the files, walhook.go says when each record is written and how it
// replays).
//
// A shard's log is a sequence of operation groups. The terminal record of
// a group is the *operation* that mutated the shard's session (an
// admission, an accepted withdrawal, a clock advance, a finish, a manual
// retirement); interim records carry the decisions made while that
// operation ran whose outcomes depend on other shards and are therefore
// not reproducible from this shard's inputs alone: commit-gate verdicts on
// mirrored tasks, owner-expiry arbitration outcomes, and the global
// sequence number assigned to each emitted event. Everything else a shard
// does — algorithm behavior, expiry firing, scheduled retirement — is a
// deterministic function of the operation stream and is deliberately not
// recorded.
package shard

import (
	"fmt"

	"ftoa/internal/codec"
	"ftoa/internal/shard/wal"
)

// Record types. Interim types carry wal.InterimBit so the reader can drop
// a dangling decision tail whose operation never became durable.
const (
	recHeader byte = 0x01
	// recSeal commits a checkpoint generation (rebalance.go): it is
	// appended to shard 0's log only, after every shard's re-admission
	// records were flushed, so its durability implies the whole
	// checkpoint's. Payload: sealMeta. A checkpoint generation without a
	// durable seal is skipped by recovery — the migration never happened.
	recSeal byte = 0x02

	// The three admission types: bit 0 is the side, bit 1 ghost
	// (side.admissionOp and admissionKind rely on it). Workers are never
	// mirrored, so 0x12 — a worker's ghost — is not a record type.
	opWorker    byte = 0x10 // owner admission of a worker
	opTask      byte = 0x11 // owner admission of a task
	opGhostTask byte = 0x13 // mirrored ghost-copy admission of a task
	opAdvance   byte = 0x20 // clock advance
	opFinish    byte = 0x21 // session finish
	opRetire    byte = 0x22 // manual Router.Retire
	// opWithdraw is a cross-shard retraction applied here. Payload: u64
	// gid of the task whose copy it withdraws.
	opWithdraw byte = 0x23
	// opWithdrawLocal is a platform-initiated withdrawal of an owner
	// receipt (withdraw.go). Payload: flags (bit 0 the side, bit 1 claim word
	// won, bit 2 session accepted), u32 local handle.
	opWithdrawLocal byte = 0x24

	// decGate is the commit-gate verdict on a pair with a mirrored task:
	// the claim state the commit left (claimMatched or claimLate), or
	// claimFree when the gate vetoed it.
	decGate   = 0x00 | wal.InterimBit
	decExpiry = 0x01 | wal.InterimBit // owner-expiry arbitration outcome
	decSeq    = 0x02 | wal.InterimBit // global sequence number of one event
)

// Owner-expiry arbitration outcomes (decExpiry payload).
const (
	expirySuppressed byte = 0 // a commit elsewhere owns the lifecycle
	expiryClaimed    byte = 1 // Strict: this expiry won the claim word
	expiryEmitted    byte = 2 // emitted without a claim transition
)

// walMagic anchors header records; bump the version on any payload change.
// v2 extended the header with the topology-epoch chain (kind, topology
// version and image, epoch and sequence bases) and added the checkpoint
// seal record. v3 mirrors tasks only: no worker ghost records, retractions
// carry a gid alone, and a gate verdict is the claim state it left. v4's
// seal no longer carries a match ordinal base: match events are addressed
// by Seq alone. Recovery refuses a log of another version at its first
// header.
const walMagic = "FTWALv4\x00"

// Generation kinds (header payload): how a generation relates to the
// topology-epoch chain recovery walks (walhook.go).
const (
	genInitial      byte = 0 // first generation of a fresh router
	genContinuation byte = 1 // reopened by recovery; same topology as its chain
	genCheckpoint   byte = 2 // opened by Rebalance; holds the full post-migration state
)

// headerMeta is the v2 header metadata shared by every shard's header of
// one generation.
type headerMeta struct {
	gen  uint64
	kind byte
	// topoVer and topo identify the topology every record of the
	// generation was written under (topo is a Topology.Encode image).
	topoVer uint64
	topo    []byte
	// epochBase is the arena-epoch floor of the generation's sessions: a
	// checkpoint starts every new session above anything the old topology
	// receipted, and recovery re-applies the floor before replay.
	epochBase uint64
	// seqBase is the global sequence counter at the generation's chain
	// start: everything below it belongs to earlier topologies and is not
	// replayable from the chain, so recovery resumes the eviction boundary
	// (and the sequence counter) at least here.
	seqBase uint64
}

// sealMeta is the seal record's payload: everything about the history a
// checkpoint supersedes that recovery cannot replay any more.
type sealMeta struct {
	topoVer uint64
	// carried is topoState.carried of the state the checkpoint installed.
	carried Totals
}

// mirrorInfo is the decoded halo identity of a mirrored task admission.
type mirrorInfo struct {
	gid        uint64
	owner      int32
	ownerLocal int32
	copies     []int32 // owner record only; empty on ghost records
}

// --- encoding ---------------------------------------------------------

// encodeFingerprint canonically encodes every Config field that replay
// determinism depends on. Recovery refuses a log whose fingerprint differs
// from the booting config: replaying admissions into a differently shaped
// router would silently diverge. The algorithm itself is not encodable —
// the operator must supply the same NewAlgorithm (and, for guided
// algorithms, the same guide); this is documented at Recover.
func encodeFingerprint(cfg *Config) []byte {
	fp := make([]byte, 0, 96)
	fp = append(fp, byte(cfg.Matcher.Mode))
	fp = codec.AppendU32(fp, uint32(cfg.Cols))
	fp = codec.AppendU32(fp, uint32(cfg.Rows))
	fp = codec.AppendF64(fp, cfg.Halo)
	fp = codec.AppendF64(fp, cfg.Matcher.Velocity)
	b := cfg.Matcher.Bounds
	fp = codec.AppendF64(fp, b.MinX)
	fp = codec.AppendF64(fp, b.MinY)
	fp = codec.AppendF64(fp, b.MaxX)
	fp = codec.AppendF64(fp, b.MaxY)
	fp = codec.AppendU64(fp, uint64(cfg.Retention))
	fp = codec.AppendF64(fp, cfg.RetireInterval)
	fp = codec.AppendU64(fp, uint64(cfg.Matcher.Hints.ExpectedWorkers))
	fp = codec.AppendU64(fp, uint64(cfg.Matcher.Hints.ExpectedTasks))
	fp = codec.AppendF64(fp, cfg.Matcher.Hints.Horizon)
	return fp
}

// encodeHeader builds one shard's framed header record.
func encodeHeader(shard int, fp []byte, hm headerMeta) []byte {
	p := make([]byte, 0, 1+len(walMagic)+4+8+2+len(fp)+1+8+8+8+4+len(hm.topo))
	p = append(p, recHeader)
	p = append(p, walMagic...)
	p = codec.AppendU32(p, uint32(shard))
	p = codec.AppendU64(p, hm.gen)
	p = codec.AppendU16(p, uint16(len(fp)))
	p = append(p, fp...)
	p = append(p, hm.kind)
	p = codec.AppendU64(p, hm.topoVer)
	p = codec.AppendU64(p, hm.epochBase)
	p = codec.AppendU64(p, hm.seqBase)
	p = codec.AppendU32(p, uint32(len(hm.topo)))
	p = append(p, hm.topo...)
	return codec.AppendFrame(nil, p)
}

// encodeSeal builds the framed checkpoint seal record (shard 0 only). The
// carried counts are signed (topoState.carried) and ride as two's-complement
// u64s.
func encodeSeal(sm sealMeta) []byte {
	fields := sm.carried.fields()
	p := make([]byte, 0, 1+8+8*len(fields))
	p = append(p, recSeal)
	p = codec.AppendU64(p, sm.topoVer)
	for _, v := range fields {
		p = codec.AppendU64(p, uint64(int64(*v)))
	}
	return codec.AppendFrame(nil, p)
}

// appendMirrorInfo encodes a mirrored admission's halo identity. withCopies
// is set on owner records (the authoritative copy list) and clear on ghost
// records (the ghost's shard never drives retractions of its siblings).
func appendMirrorInfo(dst []byte, rec *mirror, withCopies bool) []byte {
	dst = codec.AppendU64(dst, rec.gid)
	dst = codec.AppendU32(dst, uint32(rec.owner))
	dst = codec.AppendU32(dst, uint32(rec.ownerLocal))
	if !withCopies {
		return codec.AppendU16(dst, 0)
	}
	dst = codec.AppendU16(dst, uint16(len(rec.copies)))
	for _, c := range rec.copies {
		dst = codec.AppendU32(dst, uint32(c))
	}
	return dst
}

// encodeAdmission encodes an owner or ghost admission payload into dst.
// For owner admissions rec may be nil (a worker, or an unmirrored task).
func encodeAdmission(dst []byte, ad *admission, rec *mirror, ghost bool) []byte {
	dst = append(dst, ad.side.admissionOp(ghost))
	var flags byte
	if rec != nil {
		flags |= 1
	}
	if ad.expiryFired {
		// Only possible on migrated owner re-admissions (rebalance.go):
		// the deadline expiry was already emitted under the old topology.
		flags |= 2
	}
	dst = append(dst, flags)
	dst = codec.AppendU64(dst, uint64(ad.id))
	dst = codec.AppendF64(dst, ad.loc.X)
	dst = codec.AppendF64(dst, ad.loc.Y)
	dst = codec.AppendF64(dst, ad.at)
	dst = codec.AppendF64(dst, ad.window)
	if rec != nil {
		dst = appendMirrorInfo(dst, rec, !ghost)
	}
	return dst
}

// --- decoding ---------------------------------------------------------

// decodeHeader validates one shard's header record against the booting
// config's fingerprint and returns the generation's chain metadata.
func decodeHeader(payload []byte, shard int, fp []byte) (hm headerMeta, err error) {
	d := codec.NewReader("wal", payload, 1) // type byte already dispatched
	magic := d.Bytes(len(walMagic), "magic")
	if d.Err() == nil && string(magic) != walMagic {
		return hm, fmt.Errorf("wal: bad magic (version mismatch or foreign file)")
	}
	gotShard := int(int32(d.U32("shard")))
	hm.gen = d.U64("generation")
	fpLen := int(d.U16("fingerprint length"))
	gotFP := d.Bytes(fpLen, "fingerprint")
	hm.kind = d.U8("generation kind")
	hm.topoVer = d.U64("topology version")
	hm.epochBase = d.U64("epoch base")
	hm.seqBase = d.U64("sequence base")
	topoLen := int(d.U32("topology length"))
	hm.topo = d.Bytes(topoLen, "topology image")
	if err := d.Err(); err != nil {
		return hm, err
	}
	if gotShard != shard {
		return hm, fmt.Errorf("wal: segment header names shard %d, expected %d", gotShard, shard)
	}
	if string(gotFP) != string(fp) {
		return hm, fmt.Errorf("wal: config fingerprint mismatch: the log was written under a different router configuration (mode/grid/halo/bounds/velocity/retention/retire/hints must match)")
	}
	if hm.kind > genCheckpoint {
		return hm, fmt.Errorf("wal: unknown generation kind %d", hm.kind)
	}
	return hm, nil
}

// decodeSeal decodes a seal record.
func decodeSeal(payload []byte) (sm sealMeta, err error) {
	d := codec.NewReader("wal", payload, 1)
	sm.topoVer = d.U64("seal topology version")
	for _, v := range sm.carried.fields() {
		*v = int(int64(d.U64("seal carried total")))
	}
	return sm, d.Done("seal")
}

// decodeAdmission decodes an owner or ghost admission payload of the given
// side (type byte already dispatched by the caller).
func decodeAdmission(payload []byte, sd side) (ad admission, mi mirrorInfo, mirrored bool, err error) {
	d := codec.NewReader("wal", payload, 1)
	flags := d.U8("flags")
	ad.side = sd
	ad.id = int(int64(d.U64("admission id")))
	ad.loc.X = d.F64("admission x")
	ad.loc.Y = d.F64("admission y")
	ad.at = d.F64("admission time")
	ad.window = d.F64("admission window")
	ad.expiryFired = flags&2 != 0
	if flags&1 != 0 {
		mirrored = true
		mi.gid = d.U64("gid")
		mi.owner = int32(d.U32("owner"))
		mi.ownerLocal = int32(d.U32("owner local"))
		// The count is checked against the bytes that back it before it
		// sizes anything.
		if raw := d.Bytes(4*int(d.U16("copy count")), "copies"); len(raw) > 0 {
			c := codec.NewReader("wal", raw, 0)
			mi.copies = make([]int32, len(raw)/4)
			for i := range mi.copies {
				mi.copies[i] = int32(c.U32("copy"))
			}
		}
	}
	return ad, mi, mirrored, d.Done("admission")
}
