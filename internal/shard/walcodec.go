// WAL record payloads — the binary vocabulary of the per-shard write-ahead
// log (see wal.go in package wal for framing and walhook.go for when each
// record is written and how it replays).
//
// A shard's log is a sequence of operation groups. The terminal record of
// a group is the *operation* that mutated the shard's session (an
// admission, an accepted withdrawal, a clock advance, a finish, a manual
// retirement); interim records carry the decisions made while that
// operation ran whose outcomes depend on other shards and are therefore
// not reproducible from this shard's inputs alone: commit-gate verdicts on
// mirrored endpoints, owner-expiry arbitration outcomes, and the global
// sequence number assigned to each emitted event. Everything else a shard
// does — algorithm behavior, expiry firing, scheduled retirement — is a
// deterministic function of the operation stream and is deliberately not
// recorded.
package shard

import (
	"encoding/binary"
	"fmt"
	"math"

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

	// The four admission types: bit 0 is the side, bit 1 ghost
	// (side.admissionOp and admissionKind rely on it).
	opWorker      byte = 0x10 // owner admission of a worker
	opTask        byte = 0x11 // owner admission of a task
	opGhostWorker byte = 0x12 // mirrored ghost-copy admission
	opGhostTask   byte = 0x13
	opAdvance     byte = 0x20 // clock advance
	opFinish      byte = 0x21 // session finish
	opRetire      byte = 0x22 // manual Router.Retire
	opWithdraw    byte = 0x23 // cross-shard retraction applied here
	// opWithdrawLocal is a platform-initiated withdrawal of an owner
	// receipt (withdraw.go). Payload: flags (bit 0 the side, bit 1 claim word
	// won, bit 2 session accepted), u32 local handle. Additive: logs
	// written before this type existed never contain it and replay
	// unchanged.
	opWithdrawLocal byte = 0x24

	decGate   = 0x00 | wal.InterimBit // commit-gate verdict on a mirrored pair
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
// v2 extends the header with the topology-epoch chain (kind, topology
// version and image, epoch and sequence bases) and adds the checkpoint
// seal record.
const walMagic = "FTWALv2\x00"

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
	// matchBase is the number of match events sequenced below the
	// generation's seqBase — the ordinal the chain's first match gets.
	matchBase uint64
	// carried is topoState.carried of the state the checkpoint installed.
	carried Totals
}

// mirrorInfo is the decoded halo identity of a mirrored admission.
type mirrorInfo struct {
	gid        uint64
	owner      int32
	ownerLocal int32
	copies     []int32 // owner record only; empty on ghost records
}

// --- encoding ---------------------------------------------------------

func appendU16(dst []byte, v uint16) []byte {
	return binary.LittleEndian.AppendUint16(dst, v)
}

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}

// encodeFingerprint canonically encodes every Config field that replay
// determinism depends on. Recovery refuses a log whose fingerprint differs
// from the booting config: replaying admissions into a differently shaped
// router would silently diverge. The algorithm itself is not encodable —
// the operator must supply the same NewAlgorithm (and, for guided
// algorithms, the same guide); this is documented at Recover.
func encodeFingerprint(cfg *Config) []byte {
	fp := make([]byte, 0, 96)
	fp = append(fp, byte(cfg.Matcher.Mode))
	fp = appendU32(fp, uint32(cfg.Cols))
	fp = appendU32(fp, uint32(cfg.Rows))
	fp = appendF64(fp, cfg.Halo)
	fp = appendF64(fp, cfg.Matcher.Velocity)
	b := cfg.Matcher.Bounds
	fp = appendF64(fp, b.MinX)
	fp = appendF64(fp, b.MinY)
	fp = appendF64(fp, b.MaxX)
	fp = appendF64(fp, b.MaxY)
	fp = appendU64(fp, uint64(cfg.Retention))
	fp = appendF64(fp, cfg.RetireInterval)
	fp = appendU64(fp, uint64(cfg.Matcher.Hints.ExpectedWorkers))
	fp = appendU64(fp, uint64(cfg.Matcher.Hints.ExpectedTasks))
	fp = appendF64(fp, cfg.Matcher.Hints.Horizon)
	return fp
}

// encodeHeader builds one shard's framed header record.
func encodeHeader(shard int, fp []byte, hm headerMeta) []byte {
	p := make([]byte, 0, 1+len(walMagic)+4+8+2+len(fp)+1+8+8+8+4+len(hm.topo))
	p = append(p, recHeader)
	p = append(p, walMagic...)
	p = appendU32(p, uint32(shard))
	p = appendU64(p, hm.gen)
	p = appendU16(p, uint16(len(fp)))
	p = append(p, fp...)
	p = append(p, hm.kind)
	p = appendU64(p, hm.topoVer)
	p = appendU64(p, hm.epochBase)
	p = appendU64(p, hm.seqBase)
	p = appendU32(p, uint32(len(hm.topo)))
	p = append(p, hm.topo...)
	return wal.AppendFrame(nil, p)
}

// encodeSeal builds the framed checkpoint seal record (shard 0 only). The
// carried counts are signed (topoState.carried) and ride as two's-complement
// u64s.
func encodeSeal(sm sealMeta) []byte {
	fields := sm.carried.fields()
	p := make([]byte, 0, 1+8+8+8*len(fields))
	p = append(p, recSeal)
	p = appendU64(p, sm.topoVer)
	p = appendU64(p, sm.matchBase)
	for _, v := range fields {
		p = appendU64(p, uint64(int64(*v)))
	}
	return wal.AppendFrame(nil, p)
}

// appendMirrorInfo encodes a mirrored admission's halo identity. withCopies
// is set on owner records (the authoritative copy list) and clear on ghost
// records (the ghost's shard never drives retractions of its siblings).
func appendMirrorInfo(dst []byte, rec *mirror, withCopies bool) []byte {
	dst = appendU64(dst, rec.gid)
	dst = appendU32(dst, uint32(rec.owner))
	dst = appendU32(dst, uint32(rec.ownerLocal))
	if !withCopies {
		return appendU16(dst, 0)
	}
	dst = appendU16(dst, uint16(len(rec.copies)))
	for _, c := range rec.copies {
		dst = appendU32(dst, uint32(c))
	}
	return dst
}

// Every admission payload starts type, flags, then the object body: id,
// x, y, arrival time, window — admissionTimeOff is where the arrival time
// sits and admissionFixedLen where the body ends (the count pass of
// recovery reads just these without decoding the record).
const (
	admissionTimeOff  = 2 + 8 + 8 + 8
	admissionFixedLen = admissionTimeOff + 8 + 8
)

// encodeAdmission encodes an owner or ghost admission payload into dst.
// For owner admissions rec may be nil (unmirrored interior admission).
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
	dst = appendU64(dst, uint64(ad.id))
	dst = appendF64(dst, ad.loc.X)
	dst = appendF64(dst, ad.loc.Y)
	dst = appendF64(dst, ad.at)
	dst = appendF64(dst, ad.window)
	if rec != nil {
		dst = appendMirrorInfo(dst, rec, !ghost)
	}
	return dst
}

// --- decoding ---------------------------------------------------------

// decoder is a little-endian payload cursor with a sticky error.
type decoder struct {
	p   []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wal: truncated %s at offset %d", what, d.off)
	}
}

func (d *decoder) u8(what string) byte {
	if d.err != nil || d.off+1 > len(d.p) {
		d.fail(what)
		return 0
	}
	v := d.p[d.off]
	d.off++
	return v
}

func (d *decoder) u16(what string) uint16 {
	if d.err != nil || d.off+2 > len(d.p) {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint16(d.p[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32(what string) uint32 {
	if d.err != nil || d.off+4 > len(d.p) {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.p[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64(what string) uint64 {
	if d.err != nil || d.off+8 > len(d.p) {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.p[d.off:])
	d.off += 8
	return v
}

func (d *decoder) f64(what string) float64 { return math.Float64frombits(d.u64(what)) }

func (d *decoder) bytes(n int, what string) []byte {
	if d.err != nil || d.off+n > len(d.p) {
		d.fail(what)
		return nil
	}
	v := d.p[d.off : d.off+n]
	d.off += n
	return v
}

// decodeHeader validates one shard's header record against the booting
// config's fingerprint and returns the generation's chain metadata.
func decodeHeader(payload []byte, shard int, fp []byte) (hm headerMeta, err error) {
	d := decoder{p: payload, off: 1} // type byte already dispatched
	magic := d.bytes(len(walMagic), "magic")
	if d.err == nil && string(magic) != walMagic {
		return hm, fmt.Errorf("wal: bad magic (version mismatch or foreign file)")
	}
	gotShard := int(int32(d.u32("shard")))
	hm.gen = d.u64("generation")
	fpLen := int(d.u16("fingerprint length"))
	gotFP := d.bytes(fpLen, "fingerprint")
	hm.kind = d.u8("generation kind")
	hm.topoVer = d.u64("topology version")
	hm.epochBase = d.u64("epoch base")
	hm.seqBase = d.u64("sequence base")
	topoLen := int(d.u32("topology length"))
	hm.topo = d.bytes(topoLen, "topology image")
	if d.err != nil {
		return hm, d.err
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

// decodeSeal decodes a seal record. A seal that ends after the topology
// version was written before seals carried anything (lifetime totals then
// restarted at every checkpoint) and decodes as carrying nothing.
func decodeSeal(payload []byte) (sm sealMeta, err error) {
	d := decoder{p: payload, off: 1}
	sm.topoVer = d.u64("seal topology version")
	if d.err == nil && d.off == len(payload) {
		return sm, nil
	}
	sm.matchBase = d.u64("seal match base")
	for _, v := range sm.carried.fields() {
		*v = int(int64(d.u64("seal carried total")))
	}
	return sm, d.err
}

// decodeAdmission decodes an owner or ghost admission payload of the given
// side (type byte already dispatched by the caller).
func decodeAdmission(payload []byte, sd side) (ad admission, mi mirrorInfo, mirrored bool, err error) {
	d := decoder{p: payload, off: 1}
	flags := d.u8("flags")
	ad.side = sd
	ad.id = int(int64(d.u64("admission id")))
	ad.loc.X = d.f64("admission x")
	ad.loc.Y = d.f64("admission y")
	ad.at = d.f64("admission time")
	ad.window = d.f64("admission window")
	ad.expiryFired = flags&2 != 0
	if flags&1 != 0 {
		mirrored = true
		mi.gid = d.u64("gid")
		mi.owner = int32(d.u32("owner"))
		mi.ownerLocal = int32(d.u32("owner local"))
		// The count is checked against the bytes that back it before it
		// sizes anything.
		if n := int(d.u16("copy count")); n > 0 {
			if raw := d.bytes(4*n, "copies"); raw != nil {
				mi.copies = make([]int32, n)
				for i := range mi.copies {
					mi.copies[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
				}
			}
		}
	}
	return ad, mi, mirrored, d.err
}
