// WAL recording and recovery for the Router — the durability layer of the
// serving stack (walcodec.go defines the records, package wal the framing
// and files).
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
//   - commit-gate verdicts on pairs with a mirrored endpoint (the claim
//     CAS races other shards at runtime);
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
// loses it loses the decisions with it (the reader drops dangling interim
// runs), so a recovered shard's event stream is always a durable prefix of
// the pre-crash one. A clean shutdown (flush before exit) loses nothing
// and recovery is then bit-identical, which is what the parity tests gate.
package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

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

func (sw *shardWAL) recGate(ok bool) {
	var v byte
	if ok {
		v = 1
	}
	sw.scratch = append(sw.scratch[:0], decGate, v)
	sw.group = wal.AppendFrame(sw.group, sw.scratch)
}

func (sw *shardWAL) recExpiry(outcome byte) {
	sw.scratch = append(sw.scratch[:0], decExpiry, outcome)
	sw.group = wal.AppendFrame(sw.group, sw.scratch)
}

func (sw *shardWAL) recSeq(seq uint64) {
	sw.scratch = append(sw.scratch[:0], decSeq)
	sw.scratch = binary.LittleEndian.AppendUint64(sw.scratch, seq)
	sw.group = wal.AppendFrame(sw.group, sw.scratch)
}

// op closes the current group with payload and hands it to the log. Append
// errors are sticky in the log and surfaced via Router.WALErr — the
// serving path stays available when the disk does not.
func (sw *shardWAL) op(payload []byte) {
	sw.group = wal.AppendFrame(sw.group, payload)
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
	sw.op(appendF64(p, now))
}

func (sw *shardWAL) opFinish() {
	sw.op(append(sw.scratch[:0], opFinish))
}

func (sw *shardWAL) opRetire(horizon float64) {
	p := append(sw.scratch[:0], opRetire)
	sw.op(appendF64(p, horizon))
}

func (sw *shardWAL) opWithdraw(pw pendingWithdraw) {
	var flags byte
	if pw.task {
		flags = 1
	}
	p := append(sw.scratch[:0], opWithdraw, flags)
	sw.op(binary.LittleEndian.AppendUint64(p, pw.gid))
}

func (sw *shardWAL) opWithdrawLocal(local int, task, claimed, applied bool) {
	var flags byte
	if task {
		flags |= 1
	}
	if claimed {
		flags |= 2
	}
	if applied {
		flags |= 4
	}
	p := append(sw.scratch[:0], opWithdrawLocal, flags)
	sw.op(appendU32(p, uint32(local)))
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
}

// shardReplay is one shard's decision cursor while its log replays: the
// interim records of the group being applied, consumed in record order by
// the same hooks that produced them. Errors are sticky; any leftover or
// missing decision aborts recovery as corruption.
type shardReplay struct {
	st      *replayState
	interim [][]byte
	di      int
	err     error
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

func (rp *shardReplay) popGate() bool {
	p := rp.next(decGate, "gate verdict")
	return p != nil && p[1] != 0
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
	if p == nil || len(p) < 9 {
		if rp.err == nil {
			rp.err = errors.New("wal: short sequence record")
		}
		return rp.st.nextSeq
	}
	seq := binary.LittleEndian.Uint64(p[1:9])
	if seq+1 > rp.st.nextSeq {
		rp.st.nextSeq = seq + 1
	}
	rp.st.events++
	return seq
}

// replayGate is the CommitGate during replay: the recorded verdict stands
// in for the claim CAS, and a winning verdict reconstructs the mirror's
// claim word exactly as the original commit did.
func (si *shardInstance) replayGate(rw, rt *mirror, now float64) bool {
	ok := si.rep.popGate()
	if si.rep.err != nil {
		return false
	}
	if !ok {
		si.halo.claimsLost++
		return false
	}
	if rw != nil {
		rw.commit(now)
	}
	if rt != nil {
		rt.commit(now)
	}
	return true
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
	// generations superseded by a later sealed checkpoint.
	TopologyVersion    uint64
	Topology           string
	SkippedGenerations int
}

// genData is one on-disk generation during recovery: its read segments by
// shard, the chain metadata from its first durable header, and whether a
// checkpoint seal is durable in shard 0.
type genData struct {
	gen     uint64
	hm      headerMeta
	hasMeta bool
	sealed  bool
	byShard map[int]*wal.ShardLog
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
	byShard, _, err := wal.ScanDir(cfg.WAL.Filesystem(), cfg.WAL.Dir)
	if err != nil {
		return err
	}
	if len(byShard) > 0 {
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
// bit-identical to the pre-crash router's.
func Recover(cfg Config) (*Router, *RecoveryInfo, error) {
	if cfg.WAL == nil {
		return nil, nil, errors.New("shard: Recover requires Config.WAL")
	}
	fs := cfg.WAL.Filesystem()
	segs, maxGen, err := wal.Segments(fs, cfg.WAL.Dir)
	if err != nil {
		return nil, nil, err
	}
	if len(segs) == 0 {
		r, err := NewRouter(cfg)
		if err != nil {
			return nil, nil, err
		}
		return r, &RecoveryInfo{Shards: r.NumShards(), Generation: 1, TopologyVersion: 1, Topology: r.state().topo.String()}, nil
	}
	fp := encodeFingerprint(&cfg)
	// Read every segment, grouped by generation (segs is gen-ordered).
	var ordered []*genData
	var cur *genData
	for _, sg := range segs {
		if cur == nil || cur.gen != sg.Gen {
			cur = &genData{gen: sg.Gen, byShard: make(map[int]*wal.ShardLog)}
			ordered = append(ordered, cur)
		}
		sl, err := wal.ReadShard(fs, []string{sg.Path})
		if err != nil {
			return nil, nil, err
		}
		cur.byShard[sg.Shard] = sl
		if !cur.hasMeta && len(sl.Payloads) > 0 && sl.Payloads[0][0] == recHeader {
			hm, err := decodeHeader(sl.Payloads[0], sg.Shard, fp)
			if err != nil {
				return nil, nil, fmt.Errorf("gen %d shard %d: %w", sg.Gen, sg.Shard, err)
			}
			cur.hm, cur.hasMeta = hm, true
		}
		if sg.Shard == 0 {
			for _, p := range sl.Payloads {
				if p[0] == recSeal {
					cur.sealed = true
				}
			}
		}
	}
	// Walk the topology-epoch chain: a sealed checkpoint restarts the
	// chain (it holds the complete post-migration state), an unsealed one
	// is a migration that never committed and contributes nothing, and
	// initial/continuation generations extend the running chain.
	var chain []*genData
	for _, g := range ordered {
		switch {
		case !g.hasMeta:
			// No durable header anywhere: no durable records either (the
			// header is each segment's first record).
		case g.hm.kind == genCheckpoint && g.sealed:
			chain = append(chain[:0], g)
		case g.hm.kind == genCheckpoint:
			// Unsealed: skipped; the pre-migration chain stands.
		default:
			chain = append(chain, g)
		}
	}
	// Resolve the chain's topology (the state every chain generation was
	// written under) and build the shell to replay into.
	topo := NewUniformTopology(cfg.Cols, cfg.Rows)
	base := headerMeta{topoVer: 1}
	if len(chain) > 0 {
		base = chain[0].hm
		for _, g := range chain[1:] {
			if g.hm.topoVer != base.topoVer {
				return nil, nil, fmt.Errorf("shard: generation %d written under topology version %d, chain is at %d", g.gen, g.hm.topoVer, base.topoVer)
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
		SkippedGenerations: len(ordered) - len(chain),
	}
	for _, g := range chain {
		for s := range g.byShard {
			if s < 0 || s >= len(ts.shards) {
				return nil, nil, fmt.Errorf("shard: WAL segment for shard %d in gen %d, but topology %s has %d regions", s, g.gen, topo.String(), len(ts.shards))
			}
		}
	}
	st := &replayState{mirrors: make(map[uint64]*mirror)}
	for i, si := range ts.shards {
		// Concatenate this shard's durable records across the chain.
		var payloads [][]byte
		for _, g := range chain {
			sl := g.byShard[i]
			if sl == nil {
				continue
			}
			info.Segments += sl.Segments
			info.TornBytes += sl.TornBytes
			info.DanglingRecords += sl.DanglingRecords
			info.Records += len(sl.Payloads)
			payloads = append(payloads, sl.Payloads...)
		}
		if len(payloads) == 0 {
			continue // this shard never wrote: it replays empty
		}
		if err := r.replayShard(si, payloads, fp, st); err != nil {
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
	// so stale cursors fail ErrEvicted instead of silently skipping.
	r.log.resume(base.seqBase, st.nextSeq)
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
	return r, info, nil
}

// replayShard applies one shard's durable records in order. The shard's
// hooks (gate, expiry arbitration, sequence assignment) consume the
// group's interim records via si.rep; a group whose decisions do not line
// up with what replay asked for is corruption and aborts.
func (r *Router) replayShard(si *shardInstance, payloads [][]byte, fp []byte, st *replayState) error {
	rp := &shardReplay{st: st}
	si.rep = rp
	defer func() { si.rep = nil }()
	sawHeader := false
	for _, p := range payloads {
		if len(p) == 0 {
			return errors.New("wal: empty record")
		}
		typ := p[0]
		if typ == recHeader {
			// One per segment; each validates shard and fingerprint.
			if _, err := decodeHeader(p, si.id, fp); err != nil {
				return err
			}
			sawHeader = true
			continue
		}
		if !sawHeader {
			return errors.New("wal: records before any segment header")
		}
		if typ == recSeal {
			// Checkpoint seal (shard 0): a commit marker, not an operation.
			continue
		}
		if typ&wal.InterimBit != 0 {
			rp.interim = append(rp.interim, p)
			continue
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
	}
	return nil
}

// replayOp applies one terminal operation record, mirroring the runtime
// mutation path it was recorded from.
func (r *Router) replayOp(si *shardInstance, typ byte, p []byte) error {
	switch typ {
	case opWorker, opTask, opGhostWorker, opGhostTask:
		task := typ == opTask || typ == opGhostTask
		ghost := typ == opGhostWorker || typ == opGhostTask
		ad, mi, mirrored, err := decodeAdmission(p, task)
		if err != nil {
			return err
		}
		if ghost && !mirrored {
			return errors.New("wal: ghost admission without mirror identity")
		}
		var rec *mirror
		if mirrored {
			rec = si.rep.st.mirrors[mi.gid]
			if rec == nil {
				rec = &mirror{gid: mi.gid, task: task, owner: mi.owner, ownerLocal: mi.ownerLocal}
				si.rep.st.mirrors[mi.gid] = rec
			}
			if len(mi.copies) > 0 {
				rec.copies = mi.copies
			}
			if mi.gid > si.rep.st.maxGid {
				si.rep.st.maxGid = mi.gid
			}
		}
		// Registration before admission, like the live path: the
		// algorithm may commit the object within the admission call and
		// that commit's recorded gate verdict resolves through the refs.
		var next int
		if rec != nil {
			if task {
				next = si.sess.NumTasks()
				si.putTask(next, rec)
			} else {
				next = si.sess.NumWorkers()
				si.putWorker(next, rec)
			}
			if !ghost && int32(next) != mi.ownerLocal {
				return fmt.Errorf("wal: owner admission replayed at handle %d, recorded %d", next, mi.ownerLocal)
			}
		}
		if _, _, err := ad.admit(si.sess); err != nil {
			return fmt.Errorf("wal: replaying admission: %w", err)
		}
		if ghost {
			if task {
				si.halo.ghostT++
			} else {
				si.halo.ghostW++
			}
		}
		si.afterWriteLocked(r)
	case opAdvance:
		d := decoder{p: p, off: 1}
		now := d.f64("advance clock")
		if d.err != nil {
			return d.err
		}
		si.sess.Advance(now)
		si.afterWriteLocked(r)
	case opFinish:
		si.sess.Finish()
		si.collectLocked(r)
	case opRetire:
		d := decoder{p: p, off: 1}
		horizon := d.f64("retire horizon")
		if d.err != nil {
			return d.err
		}
		si.collectLocked(r)
		si.sess.Retire(horizon)
		si.lastRetire = si.sess.Now()
	case opWithdraw:
		d := decoder{p: p, off: 1}
		flags := d.u8("withdraw flags")
		gid := d.u64("withdraw gid")
		if d.err != nil {
			return d.err
		}
		si.applyWithdrawLocked(pendingWithdraw{gid: gid, task: flags&1 != 0})
	case opWithdrawLocal:
		d := decoder{p: p, off: 1}
		flags := d.u8("local withdraw flags")
		local := int(int32(d.u32("local withdraw handle")))
		if d.err != nil {
			return d.err
		}
		return si.replayWithdrawLocal(local, flags&1 != 0, flags&2 != 0, flags&4 != 0)
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
