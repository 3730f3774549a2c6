// WAL recording and recovery for the Router — the durability layer of the
// serving stack (walcodec.go defines the records, package codec the
// framing, package wal the files).
//
// # What is recorded, and why it is enough
//
// Each shard's session is single-writer and deterministic: replaying the
// exact operation sequence it executed (admissions with the exact values
// passed, accepted withdrawals, clock advances, finish, manual
// retirements) reproduces its arenas, algorithm state, event stream and
// counters bit for bit. Four things are NOT functions of one shard's
// inputs, because they couple shards through the halo arbitration and the
// global sequence counter; those — and only those — are recorded as
// interim decision records inside the operation group that produced them:
//
//   - commit-gate verdicts on pairs with a mirrored task (the claim CAS
//     races other shards at runtime);
//   - owner-expiry arbitration outcomes (ditto);
//   - the global sequence number assigned to each emitted event (the
//     counter interleaves across shards);
//   - cross-shard retractions, which are recorded as withdraw operations
//     in the *target* shard's log at the position they were applied, so
//     every shard's log is self-contained and replays without consulting
//     any other shard's timing.
//
// During replay the recorded decisions are consumed instead of re-arbitrated
// (reconstructing the mirror claim words as a side effect), retraction
// propagation is suppressed (each shard's own log already carries its
// withdrawals), and scheduled retirement re-runs organically — it is a
// deterministic function of the op stream and deliberately unrecorded.
//
// # Crash atomicity
//
// The operation record is appended last, closing its group; a crash that
// loses it loses the decisions with it (replay discards a dangling interim
// run), so a recovered shard's event stream is always a durable prefix of
// the pre-crash one. A clean shutdown (flush before exit) loses nothing
// and recovery is then bit-identical, which is what the parity tests gate.
//
// # What recovery costs
//
// Recover reads the log through wal.FS.Open and one wal.Scanner — a fixed
// read buffer, whatever the log's length. It first indexes the directory:
// generations are walked newest to oldest reading one header each (plus
// shard 0 of a checkpoint generation, for its seal) up to the latest sealed
// checkpoint; older generations are superseded and never opened — the
// migration that sealed it deleted them, so they are only there at all
// when it died in between. After a Checkpoint (a clean shutdown takes one)
// the chain is that one generation: the live population, whatever the
// history behind it. Then one pass over that chain applies the records
// straight from the stream: every session arena, halo table and algorithm
// index grows by whole pages (sim.Pages), never by copying, so nothing is
// sized ahead of it and each segment is read once. A scanned payload is
// only valid inside the scanner's callback, so the one thing replay copies
// is the handful of interim records of the group still open.
package shard

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"ftoa/internal/codec"
	"ftoa/internal/shard/wal"
)

// shardWAL is one shard's recorder: a group buffer of framed interim
// records closed by each operation record. All methods run under the
// owning shard's single-writer lock; wal.Log.Append orders the handoff
// against the background flusher.
type shardWAL struct {
	log     *wal.Log
	group   []byte
	scratch []byte
}

func (sw *shardWAL) recGate(verdict uint32) {
	sw.scratch = append(sw.scratch[:0], decGate, byte(verdict))
	sw.group = codec.AppendFrame(sw.group, sw.scratch)
}

func (sw *shardWAL) recExpiry(outcome byte) {
	sw.scratch = append(sw.scratch[:0], decExpiry, outcome)
	sw.group = codec.AppendFrame(sw.group, sw.scratch)
}

func (sw *shardWAL) recSeq(seq uint64) {
	sw.scratch = append(sw.scratch[:0], decSeq)
	sw.scratch = codec.AppendU64(sw.scratch, seq)
	sw.group = codec.AppendFrame(sw.group, sw.scratch)
}

// op closes the current group with payload and hands it to the log. Append
// errors are sticky in the log and surfaced via Router.WALErr — the
// serving path stays available when the disk does not.
func (sw *shardWAL) op(payload []byte) {
	sw.group = codec.AppendFrame(sw.group, payload)
	sw.log.Append(sw.group)
	sw.group = sw.group[:0]
	sw.scratch = payload[:0]
}

// dropGroup discards buffered decisions after an operation that did not
// take effect (a refused admission emits nothing and must record nothing).
func (sw *shardWAL) dropGroup() { sw.group = sw.group[:0] }

func (sw *shardWAL) opAdmission(ad *admission, rec *mirror, ghost bool) {
	sw.op(encodeAdmission(sw.scratch[:0], ad, rec, ghost))
}

func (sw *shardWAL) opAdvance(now float64) {
	p := append(sw.scratch[:0], opAdvance)
	sw.op(codec.AppendF64(p, now))
}

func (sw *shardWAL) opFinish() {
	sw.op(append(sw.scratch[:0], opFinish))
}

func (sw *shardWAL) opRetire(horizon float64) {
	p := append(sw.scratch[:0], opRetire)
	sw.op(codec.AppendF64(p, horizon))
}

func (sw *shardWAL) opWithdraw(gid uint64) {
	sw.op(codec.AppendU64(append(sw.scratch[:0], opWithdraw), gid))
}

func (sw *shardWAL) opWithdrawLocal(local int, sd side, claimed, applied bool) {
	flags := byte(sd)
	if claimed {
		flags |= 2
	}
	if applied {
		flags |= 4
	}
	p := append(sw.scratch[:0], opWithdrawLocal, flags)
	sw.op(codec.AppendU32(p, uint32(local)))
}

// replayState is the cross-shard recovery context: the shared mirror
// records keyed by gid (shards are replayed one after another; whichever
// record mentions a gid first materialises it, the owner record fills in
// the authoritative copy list) and the counters to restore.
type replayState struct {
	mirrors map[uint64]*mirror
	nextSeq uint64
	maxGid  uint64
	events  int
	// lr reads the segments, fp is the booting config's fingerprint every
	// segment header must carry, info collects the per-segment counts.
	lr   *logReader
	fp   []byte
	info *RecoveryInfo
}

// shardReplay is one shard's decision cursor while its log replays: the
// interim records of the group being applied, consumed in record order by
// the same hooks that produced them. Errors are sticky; any leftover or
// missing decision aborts recovery as corruption.
type shardReplay struct {
	st *replayState
	// interim holds copies of the open group's decision records (a scanned
	// payload dies with the scanner callback that delivered it); the slots
	// beyond its length keep their arrays for the next group.
	interim [][]byte
	di      int
	err     error
}

// hold copies one interim record into the open group.
func (rp *shardReplay) hold(p []byte) {
	n := len(rp.interim)
	if n < cap(rp.interim) {
		rp.interim = rp.interim[:n+1]
		rp.interim[n] = append(rp.interim[n][:0], p...)
		return
	}
	rp.interim = append(rp.interim, slices.Clone(p))
}

func (rp *shardReplay) next(typ byte, what string) []byte {
	if rp.err != nil {
		return nil
	}
	if rp.di >= len(rp.interim) {
		rp.err = fmt.Errorf("wal: missing recorded %s", what)
		return nil
	}
	p := rp.interim[rp.di]
	rp.di++
	if len(p) < 2 || p[0] != typ {
		rp.err = fmt.Errorf("wal: expected recorded %s, found type 0x%02x", what, p[0])
		return nil
	}
	return p
}

// popGate returns the recorded verdict: the claim state the commit left,
// or claimFree for a veto (a corrupt verdict vetoes and fails the replay).
func (rp *shardReplay) popGate() uint32 {
	p := rp.next(decGate, "gate verdict")
	if p != nil && uint32(p[1]) > claimLate {
		rp.err = fmt.Errorf("wal: gate verdict %d is no commit state", p[1])
	}
	if p == nil || rp.err != nil {
		return claimFree
	}
	return uint32(p[1])
}

func (rp *shardReplay) popExpiry() byte {
	p := rp.next(decExpiry, "expiry outcome")
	if p == nil {
		return expirySuppressed
	}
	return p[1]
}

func (rp *shardReplay) popSeq() uint64 {
	p := rp.next(decSeq, "event sequence number")
	if p == nil {
		return rp.st.nextSeq
	}
	d := codec.NewReader("wal", p, 1)
	seq := d.U64("event sequence number")
	if rp.err = d.Done("event sequence number"); rp.err != nil {
		return rp.st.nextSeq
	}
	if seq+1 > rp.st.nextSeq {
		rp.st.nextSeq = seq + 1
	}
	rp.st.events++
	return seq
}

// RecoveryInfo summarises one Recover call.
type RecoveryInfo struct {
	// Recovered is false when the WAL directory held no history and the
	// router started fresh.
	Recovered bool
	// Shards is the router's shard count; Segments how many generation
	// files were read.
	Shards, Segments int
	// Records counts replayed records; Events the sequenced lifecycle
	// events reconstructed; Matches the committed pairs among them.
	Records, Events, Matches int
	// TornBytes counts bytes dropped truncating corrupt segment tails;
	// DanglingRecords the decision records dropped because their closing
	// operation never became durable. Both are expected after a crash and
	// never refuse a boot.
	TornBytes       int64
	DanglingRecords int
	// MaxClock is the highest recovered shard clock (0 when none
	// advanced) — a serving layer resumes its session clock at or above
	// it so recovered deadlines keep meaning what they meant.
	MaxClock float64
	// Generation is the segment generation the recovered router writes.
	Generation uint64
	// TopologyVersion is the topology epoch the recovered router serves;
	// Topology renders it (e.g. "4x4+6"). SkippedGenerations counts
	// generations on disk that did not contribute to the recovered state:
	// unsealed checkpoints (migrations that never committed) and
	// generations superseded by a later sealed checkpoint — the latter are
	// not read at all.
	TopologyVersion    uint64
	Topology           string
	SkippedGenerations int
	// FromCheckpoint reports that the replayed chain starts at a sealed
	// checkpoint (a Rebalance or Checkpoint) rather than at the router's
	// first generation: Records, Events and Matches then count what was
	// replayed since it, and Router.Totals adds what its seal carried.
	FromCheckpoint bool
	// Duration is how long Recover took, generation listing to the new
	// generation's headers durable; BytesRead how many log bytes it read
	// over its index and replay passes.
	Duration  time.Duration
	BytesRead int64
}

// logReader is Recover's one way of reading segments: a single scanner
// (one fixed buffer for the whole recovery) plus the byte count.
type logReader struct {
	fs   wal.FS
	sc   wal.Scanner
	read int64
}

func (lr *logReader) scan(path string, fn func(payload []byte) error) (wal.ScanInfo, error) {
	info, err := lr.sc.ScanFile(lr.fs, path, fn)
	lr.read += info.Bytes
	return info, err
}

// errStopScan ends a scan that has seen what it came for.
var errStopScan = errors.New("stop scan")

// header returns the chain metadata of one generation: the first durable
// header among its segments (shard order). ok is false when no segment
// starts with one — the header is each segment's first record, so such a
// generation holds no durable records either.
func (lr *logReader) header(gen []wal.Segment, fp []byte) (hm headerMeta, ok bool, err error) {
	for _, sg := range gen {
		var first []byte
		_, err := lr.scan(sg.Path, func(p []byte) error {
			first = slices.Clone(p) // the metadata outlives the read buffer
			return errStopScan
		})
		if err != nil && err != errStopScan {
			return hm, false, err
		}
		if len(first) == 0 || first[0] != recHeader {
			continue
		}
		if hm, err = decodeHeader(first, sg.Shard, fp); err != nil {
			return hm, false, fmt.Errorf("gen %d shard %d: %w", sg.Gen, sg.Shard, err)
		}
		return hm, true, nil
	}
	return hm, false, nil
}

// seal returns a checkpoint generation's seal; ok is false when none is
// durable in shard 0's segment (gen is shard-ordered).
func (lr *logReader) seal(gen []wal.Segment) (sm sealMeta, ok bool, err error) {
	if gen[0].Shard != 0 {
		return sm, false, nil
	}
	_, err = lr.scan(gen[0].Path, func(p []byte) error {
		if p[0] != recSeal {
			return nil
		}
		if sm, err = decodeSeal(p); err != nil {
			return fmt.Errorf("gen %d: %w", gen[0].Gen, err)
		}
		return errStopScan
	})
	if err == errStopScan {
		return sm, true, nil
	}
	return sm, false, err
}

// openWALSet opens one generation's log set for the given topology state
// without installing it. Callers hold no shard locks.
func (r *Router) openWALSet(ts *topoState, hm headerMeta) (*wal.Set, error) {
	fp := encodeFingerprint(&r.cfg)
	set, err := wal.Open(*r.cfg.WAL, len(ts.shards), hm.gen, func(i int) []byte {
		return encodeHeader(i, fp, hm)
	})
	if err != nil {
		return nil, err
	}
	if hm.gen > r.walAttempt {
		r.walAttempt = hm.gen
	}
	return set, nil
}

// attachWAL opens the generation and wires a recorder into every shard of
// the current state.
func (r *Router) attachWAL(hm headerMeta) error {
	ts := r.state()
	set, err := r.openWALSet(ts, hm)
	if err != nil {
		return err
	}
	r.walSet = set
	for i, si := range ts.shards {
		si.wal = &shardWAL{log: set.Log(i)}
	}
	return nil
}

// headerMetaFor builds the header metadata for a generation written under
// the given state.
func (r *Router) headerMetaFor(ts *topoState, gen uint64, kind byte, epochBase, seqBase uint64) headerMeta {
	return headerMeta{
		gen:       gen,
		kind:      kind,
		topoVer:   ts.version,
		topo:      ts.topo.Encode(nil),
		epochBase: epochBase,
		seqBase:   seqBase,
	}
}

// attachFreshWAL is the NewRouter path: it refuses a directory that
// already holds segments — silently writing a second history beside an
// existing one would orphan it; recovery over it must be explicit.
func (r *Router) attachFreshWAL(cfg *Config) error {
	segs, _, err := wal.Segments(cfg.WAL.Filesystem(), cfg.WAL.Dir)
	if err != nil {
		return err
	}
	if len(segs) > 0 {
		return fmt.Errorf("shard: WAL directory %s already contains segments; use Recover", cfg.WAL.Dir)
	}
	return r.attachWAL(r.headerMetaFor(r.state(), 1, genInitial, 0, 0))
}

// Recover reconstructs a Router from the write-ahead log in cfg.WAL.Dir
// and opens a fresh log generation for it, so the recovered router is
// itself durable. An empty or absent directory starts a fresh router
// (RecoveryInfo.Recovered is false). cfg must match the configuration the
// log was written under — the header fingerprint (mode, grid, halo,
// bounds, velocity, retention, retirement, hints) is verified per segment,
// and cfg.NewAlgorithm must construct the same algorithm over the same
// guide, which cannot be fingerprinted and is the operator's contract.
//
// Corrupt or partial segment tails are logically truncated, never fatal:
// recovery reports the dropped bytes in RecoveryInfo and continues —
// losing the unsynced tail of a crashed process is the expected case, and
// the recovered state is the durable prefix of the pre-crash state. After
// a clean shutdown (Finish not required; WALClose flushes) replay is
// lossless and the recovered event stream and matched set are
// bit-identical to the pre-crash router's. When the chain starts at a
// sealed checkpoint (RecoveryInfo.FromCheckpoint) what is replayed is the
// checkpoint's re-admission of the then-live population and everything
// after it: the seal supplies the lifetime totals and the match ordinal of
// what it superseded, and events below its sequence base are gone.
func Recover(cfg Config) (*Router, *RecoveryInfo, error) {
	if cfg.WAL == nil {
		return nil, nil, errors.New("shard: Recover requires Config.WAL")
	}
	start := time.Now()
	lr := &logReader{fs: cfg.WAL.Filesystem()}
	segs, maxGen, err := wal.Segments(lr.fs, cfg.WAL.Dir)
	if err != nil {
		return nil, nil, err
	}
	if len(segs) == 0 {
		r, err := NewRouter(cfg)
		if err != nil {
			return nil, nil, err
		}
		return r, &RecoveryInfo{Shards: r.NumShards(), Generation: 1, TopologyVersion: 1, Topology: r.state().topo.String(), Duration: time.Since(start)}, nil
	}
	fp := encodeFingerprint(&cfg)
	// Group the listing by generation (segs is ordered by generation, then
	// shard).
	var gens [][]wal.Segment
	for i, sg := range segs {
		if i == 0 || segs[i-1].Gen != sg.Gen {
			gens = append(gens, nil)
		}
		gens[len(gens)-1] = append(gens[len(gens)-1], sg)
	}
	// Index pass — walk the topology-epoch chain from its newest end: an
	// initial or continuation generation extends the chain, an unsealed
	// checkpoint is a migration that never committed and contributes
	// nothing, and a sealed checkpoint holds the complete post-migration
	// state, so the chain starts there and nothing older is opened.
	type chainGen struct {
		hm   headerMeta
		segs []wal.Segment
	}
	var chain []chainGen
	var sealed sealMeta // of the checkpoint the chain starts at, if it does
	for i := len(gens) - 1; i >= 0; i-- {
		hm, ok, err := lr.header(gens[i], fp)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			continue
		}
		if hm.kind == genCheckpoint {
			sm, ok, err := lr.seal(gens[i])
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				continue
			}
			sealed = sm
		}
		chain = append(chain, chainGen{hm: hm, segs: gens[i]})
		if hm.kind == genCheckpoint {
			break
		}
	}
	slices.Reverse(chain)
	// Resolve the chain's topology (the state every chain generation was
	// written under) and build the shell to replay into.
	topo := NewUniformTopology(cfg.Cols, cfg.Rows)
	base := headerMeta{topoVer: 1}
	if len(chain) > 0 {
		base = chain[0].hm
		for _, g := range chain[1:] {
			if g.hm.topoVer != base.topoVer {
				return nil, nil, fmt.Errorf("shard: generation %d written under topology version %d, chain is at %d", g.hm.gen, g.hm.topoVer, base.topoVer)
			}
		}
		if len(base.topo) > 0 {
			if topo, err = DecodeTopology(base.topo); err != nil {
				return nil, nil, err
			}
		}
		if topo.BaseCols() != cfg.Cols || topo.BaseRows() != cfg.Rows {
			return nil, nil, fmt.Errorf("shard: recovered topology base %s does not match config grid %dx%d", topo.String(), cfg.Cols, cfg.Rows)
		}
	}
	r, err := newRouterShell(cfg)
	if err != nil {
		return nil, nil, err
	}
	ts, err := r.buildState(topo, base.topoVer)
	if err != nil {
		return nil, nil, err
	}
	ts.carried = sealed.carried
	r.top.Store(ts)
	r.walAttempt = maxGen
	if base.epochBase > 0 {
		for _, si := range ts.shards {
			si.sess.SetEpochFloor(base.epochBase)
		}
	}
	info := &RecoveryInfo{
		Recovered:          true,
		Shards:             len(ts.shards),
		Generation:         maxGen + 1,
		TopologyVersion:    base.topoVer,
		Topology:           topo.String(),
		SkippedGenerations: len(gens) - len(chain),
		FromCheckpoint:     base.kind == genCheckpoint,
	}
	// Each shard's chain: its segment of every chain generation, in order.
	paths := make([][]string, len(ts.shards))
	for _, g := range chain {
		for _, sg := range g.segs {
			if sg.Shard < 0 || sg.Shard >= len(ts.shards) {
				return nil, nil, fmt.Errorf("shard: WAL segment for shard %d in gen %d, but topology %s has %d regions", sg.Shard, sg.Gen, topo.String(), len(ts.shards))
			}
			paths[sg.Shard] = append(paths[sg.Shard], sg.Path)
		}
	}
	// Replay: one pass over each shard's chain. The arenas and tables it
	// fills grow by whole pages, so nothing needs sizing ahead of it.
	st := &replayState{mirrors: make(map[uint64]*mirror), lr: lr, fp: fp, info: info}
	for i, si := range ts.shards {
		if err := r.replayShard(si, paths[i], st); err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if st.nextSeq < base.seqBase {
		st.nextSeq = base.seqBase
	}
	r.seq.Store(st.nextSeq)
	r.gids.Store(st.maxGid)
	// Events below the chain's sequence base belong to earlier topologies
	// and are not replayable from the chain: the log's window starts there
	// so stale cursors fail ErrEvicted instead of silently skipping, and
	// match ordinals continue after the matches among them.
	r.log.resume(base.seqBase, st.nextSeq, sealed.matchBase)
	info.Events = st.events
	for _, si := range ts.shards {
		if now := si.sess.Now(); !math.IsInf(now, -1) && now > info.MaxClock {
			info.MaxClock = now
		}
		info.Matches += si.sess.Matches()
	}
	if err := r.attachWAL(headerMeta{
		gen:       maxGen + 1,
		kind:      genContinuation,
		topoVer:   base.topoVer,
		topo:      topo.Encode(nil),
		epochBase: base.epochBase,
		seqBase:   base.seqBase,
	}); err != nil {
		return nil, nil, err
	}
	info.BytesRead = lr.read
	info.Duration = time.Since(start)
	return r, info, nil
}

// replayShard applies one shard's durable records, segment by segment,
// straight from the scanner. The shard's hooks (gate, expiry arbitration,
// sequence assignment) consume the group's interim records via si.rep; a
// group whose decisions do not line up with what replay asked for is
// corruption and aborts.
func (r *Router) replayShard(si *shardInstance, paths []string, st *replayState) error {
	rp := &shardReplay{st: st}
	si.rep = rp
	defer func() { si.rep = nil }()
	sawHeader := false
	apply := func(p []byte) error {
		typ := p[0]
		if typ == recHeader {
			// One per segment; each validates shard and fingerprint.
			if _, err := decodeHeader(p, si.id, st.fp); err != nil {
				return err
			}
			sawHeader = true
			return nil
		}
		if !sawHeader {
			return errors.New("wal: records before any segment header")
		}
		if typ == recSeal {
			// Checkpoint seal (shard 0): a commit marker, not an operation.
			return nil
		}
		if typ&wal.InterimBit != 0 {
			rp.hold(p)
			return nil
		}
		rp.di = 0
		if err := r.replayOp(si, typ, p); err != nil {
			return err
		}
		if rp.err != nil {
			return rp.err
		}
		if rp.di != len(rp.interim) {
			return fmt.Errorf("wal: operation 0x%02x consumed %d of %d recorded decisions", typ, rp.di, len(rp.interim))
		}
		rp.interim = rp.interim[:0]
		return nil
	}
	for _, path := range paths {
		seg, err := st.lr.scan(path, apply)
		if err != nil {
			return err
		}
		// Interim records still held belong to a group whose operation
		// record never became durable: its decisions die with it.
		rp.interim = rp.interim[:0]
		st.info.Segments++
		st.info.Records += seg.Records
		st.info.TornBytes += seg.TornBytes
		st.info.DanglingRecords += seg.DanglingRecords
	}
	return nil
}

// replayOp applies one terminal operation record, mirroring the runtime
// mutation path it was recorded from.
func (r *Router) replayOp(si *shardInstance, typ byte, p []byte) error {
	switch typ {
	case opWorker, opTask, opGhostTask:
		sd, ghost := admissionKind(typ)
		ad, mi, mirrored, err := decodeAdmission(p, sd)
		if err != nil {
			return err
		}
		if mirrored && !sd.mirrored() {
			return errors.New("wal: worker admission with a mirror identity")
		}
		if ghost != (mirrored && int(mi.owner) != si.id) {
			return errors.New("wal: ghost flag disagrees with the mirror identity's owner shard")
		}
		var rec *mirror
		if mirrored {
			rec = si.rep.st.mirrors[mi.gid]
			if rec == nil {
				rec = &mirror{gid: mi.gid, owner: mi.owner, ownerLocal: mi.ownerLocal}
				si.rep.st.mirrors[mi.gid] = rec
			}
			if rec.owner != mi.owner {
				return fmt.Errorf("wal: mirror %d recorded with owners %d and %d", mi.gid, rec.owner, mi.owner)
			}
			if len(mi.copies) > 0 {
				rec.copies = mi.copies
			}
			if mi.gid > si.rep.st.maxGid {
				si.rep.st.maxGid = mi.gid
			}
		}
		h, admitted, _, _, err := si.installLocked(r, &ad, rec, nil)
		if err != nil {
			return fmt.Errorf("wal: replaying admission: %w", err)
		}
		if mirrored && !ghost {
			if int32(h.Local) != mi.ownerLocal {
				return fmt.Errorf("wal: owner admission replayed at handle %d, recorded %d", h.Local, mi.ownerLocal)
			}
			// The owner's stamp is the task's deadline for every copy; gate
			// verdicts carry what replay needs, live commits after it read it.
			rec.deadline = admitted + ad.window
		}
	case opAdvance:
		d := codec.NewReader("wal", p, 1)
		now := d.F64("advance clock")
		if err := d.Done("advance"); err != nil {
			return err
		}
		si.sess.Advance(now)
		si.afterWriteLocked(r)
	case opFinish:
		d := codec.NewReader("wal", p, 1)
		if err := d.Done("finish"); err != nil {
			return err
		}
		si.sess.Finish()
		si.collectLocked(r)
	case opRetire:
		d := codec.NewReader("wal", p, 1)
		horizon := d.F64("retire horizon")
		if err := d.Done("retire"); err != nil {
			return err
		}
		si.collectLocked(r)
		si.sess.Retire(horizon)
		si.lastRetire = si.sess.Now()
	case opWithdraw:
		d := codec.NewReader("wal", p, 1)
		gid := d.U64("withdraw gid")
		if err := d.Done("withdraw"); err != nil {
			return err
		}
		si.applyWithdrawLocked(gid)
	case opWithdrawLocal:
		d := codec.NewReader("wal", p, 1)
		flags := d.U8("local withdraw flags")
		local := int(int32(d.U32("local withdraw handle")))
		if err := d.Done("local withdraw"); err != nil {
			return err
		}
		return si.replayWithdrawLocal(local, side(flags&1), flags&2 != 0, flags&4 != 0)
	default:
		return fmt.Errorf("wal: unknown record type 0x%02x", typ)
	}
	return nil
}

// WALFlush writes and fsyncs every shard's buffered groups; a no-op
// without a WAL. Graceful shutdown calls it before exit so a clean stop
// loses nothing.
func (r *Router) WALFlush() error {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	if r.walSet == nil {
		return nil
	}
	return r.walSet.Flush()
}

// WALClose flushes and closes the log set; the router keeps serving but
// stops recording. Safe to call more than once or without a WAL.
func (r *Router) WALClose() error {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	if r.walSet == nil {
		return nil
	}
	return r.walSet.Close()
}

// WALErr surfaces the first sticky log write error, if any: the router
// prefers availability over durability, so append failures never block
// admissions — operators watch this (ftoa-serve exposes it in /stats).
func (r *Router) WALErr() error {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	if r.walSet == nil {
		return nil
	}
	return r.walSet.Err()
}

// WALGeneration returns the generation the router writes, 0 without a WAL.
func (r *Router) WALGeneration() uint64 {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	if r.walSet == nil {
		return 0
	}
	return r.walSet.Generation()
}
