//! The rank world: threads + channels + reliable messaging + the two
//! collectives the distributed driver calls (allgatherv and a barrier).
//!
//! Every point-to-point message carries a self-describing integrity
//! header (per-link sequence number, declared payload length, CRC-32).
//! Delivery is *reliable*: the sender keeps every unacknowledged message
//! in a per-link outbox, and the receiver drives bounded retransmission
//! with exponential backoff when a message is detected as dropped
//! (sequence gap or timeout), truncated, or corrupted. The drop /
//! truncate / corrupt faults that [`crate::fault::CommFaultPlan`] injects
//! are therefore recovered transparently; only an exhausted retransmit
//! budget, a protocol desync, or a dead peer surfaces as a [`CommError`].
//!
//! Liveness is tracked per rank: a rank that exits its body (normally or
//! by panic / fail-stop) is marked dead, receivers and the timeout-aware
//! barrier poll that view at the heartbeat cadence, and a wait on a dead
//! peer fails fast with [`CommError::RankDead`] naming the dead rank —
//! never a hang.
//!
//! Every receive — a halo message or a collective's share — is one
//! [`RankCtx::irecv`], polled by the overlapped exchange or completed
//! with [`RecvHandle::wait`].
//!
//! Fault injection is off by default and the fault-free path adds only
//! the ack bookkeeping (one outbox push + pop per message) on top of the
//! original header CRC pass.

use crate::crc::crc32;
use crate::fault::{CommFaultPlan, FaultAction};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A tagged message between ranks, with integrity header. The payload is
/// shared with the sender's outbox copy unless a fault mutated it.
struct Message {
    tag: u64,
    /// Per-link delivery sequence number (0, 1, 2, … per `src → dst`).
    seq: u64,
    /// Length the sender intended (bytes); a shorter payload means the
    /// message was truncated in flight.
    declared_len: u64,
    /// CRC-32 of the intended payload.
    crc: u32,
    payload: Arc<Vec<u8>>,
}

/// A sent-but-unacknowledged message retained for retransmission. The
/// payload is pristine (faults are applied per transmission attempt).
#[derive(Clone)]
struct OutboxEntry {
    seq: u64,
    tag: u64,
    declared_len: u64,
    crc: u32,
    payload: Arc<Vec<u8>>,
}

/// A detected communication failure. Every variant names the link, so a
/// supervisor log can say exactly which exchange died.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// No message arrived before the receive deadline (and the sender
    /// never posted it — a lost message is retransmitted instead).
    Timeout { src: usize, dst: usize, tag: u64 },
    /// The sending rank is gone.
    Disconnected { src: usize, dst: usize },
    /// A delivered halo payload is shorter than the exchange plan
    /// declares for the link.
    Truncated { src: usize, dst: usize, tag: u64, declared: usize, got: usize },
    /// A message with an unexpected tag (protocol desync).
    TagMismatch { src: usize, dst: usize, expected: u64, got: u64 },
    /// Every retransmission attempt of one message also faulted.
    RetransmitsExhausted { src: usize, dst: usize, tag: u64, seq: u64, attempts: u32 },
    /// The peer was declared dead by the liveness view while `dst` was
    /// waiting on it.
    RankDead { rank: usize, dst: usize },
    /// The barrier timed out before every live rank arrived.
    BarrierTimeout { rank: usize },
    /// Delivered payload whose byte length is not a whole number of
    /// f64 words (malformed frame).
    Malformed { src: usize, dst: usize, tag: u64, len: usize },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { src, dst, tag } => {
                write!(f, "timeout waiting for message {src}->{dst} tag {tag} (never sent?)")
            }
            CommError::Disconnected { src, dst } => {
                write!(f, "rank {src} disconnected (link {src}->{dst})")
            }
            CommError::Truncated { src, dst, tag, declared, got } => write!(
                f,
                "truncated message {src}->{dst} tag {tag}: declared {declared} bytes, got {got}"
            ),
            CommError::TagMismatch { src, dst, expected, got } => {
                write!(f, "tag mismatch on link {src}->{dst}: expected {expected}, got {got}")
            }
            CommError::RetransmitsExhausted { src, dst, tag, seq, attempts } => write!(
                f,
                "message {src}->{dst} tag {tag} seq {seq} lost after {attempts} retransmits"
            ),
            CommError::RankDead { rank, dst } => {
                write!(f, "rank {rank} is dead (detected by rank {dst})")
            }
            CommError::BarrierTimeout { rank } => {
                write!(f, "barrier timed out on rank {rank}")
            }
            CommError::Malformed { src, dst, tag, len } => write!(
                f,
                "malformed message {src}->{dst} tag {tag}: {len} bytes is not a whole \
                 number of f64 words"
            ),
        }
    }
}

impl std::error::Error for CommError {}

impl CommError {
    /// The dead rank this error names, if it names one.
    pub fn dead_rank(&self) -> Option<usize> {
        match self {
            CommError::RankDead { rank, .. } => Some(*rank),
            _ => None,
        }
    }
}

/// Live per-rank traffic counters, snapshotted into [`RankTraffic`].
#[derive(Debug, Default)]
struct TrafficStats {
    messages_sent: AtomicU64,
    bytes_sent: AtomicU64,
    retransmits: AtomicU64,
    acks: AtomicU64,
}

/// One rank's traffic over a [`World::run`], including reliability
/// bookkeeping.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankTraffic {
    /// Logical messages sent (retransmits not double-counted).
    pub messages: u64,
    /// Logical payload bytes sent.
    pub bytes: u64,
    /// Retransmission attempts triggered by this rank's receives.
    pub retransmits: u64,
    /// Messages this rank delivered and acknowledged.
    pub acks: u64,
}

/// Runtime options for a world.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Observability probe: counts sent messages/bytes,
    /// retransmissions, and heartbeats (disabled by default; counting
    /// never affects delivery or payload bits).
    pub probe: gw_obs::Probe,
    /// Deterministic message-fault schedule; `None` (default) disables
    /// injection entirely.
    pub faults: Option<CommFaultPlan>,
    /// Total deadline for one receive, including all retransmits.
    pub recv_timeout: Duration,
    /// Bounded retransmission budget per message.
    pub max_retransmits: u32,
    /// Initial receiver wait before the first retransmission; doubles on
    /// every retransmit (exponential backoff), capped at
    /// [`WorldConfig::heartbeat_interval`].
    pub retry_backoff: Duration,
    /// Liveness-poll cadence: the longest a receiver or barrier waits
    /// between checks of the per-rank alive view — so a dead peer is
    /// detected within roughly this interval.
    pub heartbeat_interval: Duration,
    /// Use the dependency-aware overlapped halo-exchange path in the
    /// distributed drivers: post sends early, evaluate interior octants
    /// while ghosts are in flight, finish boundary octants on arrival.
    /// Bit-identical to the blocking path; off by default.
    pub overlap: bool,
    /// Worker threads for the overlapped interior/boundary pipeline,
    /// per rank; 0 resolves like `gw_par::resolve_threads` (the
    /// `GW_THREADS` env var, then the machine's parallelism).
    pub overlap_threads: usize,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            probe: gw_obs::Probe::disabled(),
            faults: None,
            recv_timeout: Duration::from_secs(10),
            max_retransmits: 8,
            retry_backoff: Duration::from_millis(2),
            heartbeat_interval: Duration::from_millis(50),
            overlap: false,
            overlap_threads: 0,
        }
    }
}

/// The sense-reversing barrier state (timeout- and death-aware).
struct BarrierSync {
    state: Mutex<BarrierGen>,
    cv: Condvar,
}

struct BarrierGen {
    arrived: usize,
    generation: u64,
}

/// The world: matrix of channels between `p` ranks plus the reliability
/// state (outboxes, sequence counters, reorder buffers, liveness).
pub struct World {
    size: usize,
    senders: Vec<Vec<Sender<Message>>>, // senders[src][dst]
    receivers: Vec<Mutex<Vec<Receiver<Message>>>>, // receivers[dst][src]
    barrier: BarrierSync,
    traffic: Vec<TrafficStats>,
    config: WorldConfig,
    /// Next send sequence number per (src, dst) link.
    link_seq: Vec<AtomicU64>,
    /// Next expected receive sequence number per (dst, src) link.
    recv_next: Vec<AtomicU64>,
    /// Sent-but-unacked messages per (src, dst) link.
    outbox: Vec<Mutex<VecDeque<OutboxEntry>>>,
    /// Out-of-order arrivals per (dst, src) link, keyed by seq.
    reorder: Vec<Mutex<BTreeMap<u64, Message>>>,
    /// Liveness view: `alive[r]` is cleared when rank `r`'s body exits
    /// (normal completion, error return, panic, or fail-stop).
    alive: Vec<AtomicBool>,
    /// Total faults injected so far (bounded by the plan's `max_faults`).
    faults_injected: AtomicUsize,
}

impl World {
    fn new(size: usize, config: WorldConfig) -> Arc<Self> {
        assert!(size >= 1);
        let mut senders: Vec<Vec<Sender<Message>>> = (0..size).map(|_| Vec::new()).collect();
        let mut receivers: Vec<Vec<Receiver<Message>>> = (0..size).map(|_| Vec::new()).collect();
        for dst_chans in receivers.iter_mut() {
            for src_senders in senders.iter_mut() {
                let (tx, rx) = unbounded();
                src_senders.push(tx);
                dst_chans.push(rx);
            }
        }
        Arc::new(Self {
            size,
            senders,
            receivers: receivers.into_iter().map(Mutex::new).collect(),
            barrier: BarrierSync {
                state: Mutex::new(BarrierGen { arrived: 0, generation: 0 }),
                cv: Condvar::new(),
            },
            traffic: (0..size).map(|_| TrafficStats::default()).collect(),
            config,
            link_seq: (0..size * size).map(|_| AtomicU64::new(0)).collect(),
            recv_next: (0..size * size).map(|_| AtomicU64::new(0)).collect(),
            outbox: (0..size * size).map(|_| Mutex::new(VecDeque::new())).collect(),
            reorder: (0..size * size).map(|_| Mutex::new(BTreeMap::new())).collect(),
            alive: (0..size).map(|_| AtomicBool::new(true)).collect(),
            faults_injected: AtomicUsize::new(0),
        })
    }

    /// Spawn `size` ranks with the given options (fault plan, deadlines),
    /// run `body` on each, and return the per-rank results and traffic in
    /// rank order. Panics in a rank propagate.
    pub fn run<T, F>(size: usize, config: WorldConfig, body: F) -> (Vec<T>, Vec<RankTraffic>)
    where
        T: Send,
        F: Fn(RankCtx<'_>) -> T + Sync,
    {
        let world = Self::new(size, config);
        let results: Vec<Mutex<Option<T>>> = (0..size).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for (rank, slot) in results.iter().enumerate() {
                let world = Arc::clone(&world);
                let body = &body;
                scope.spawn(move || {
                    // Clears the alive flag when the body exits for any
                    // reason (return, error, panic) — the "death
                    // certificate" survivors observe.
                    let _guard = AliveGuard { world: &world, rank };
                    let ctx = RankCtx { world: &world, rank, coll_epoch: Cell::new(0) };
                    let out = body(ctx);
                    *slot.lock().unwrap() = Some(out);
                });
            }
        });
        let outs =
            results.into_iter().map(|m| m.into_inner().unwrap().expect("rank completed")).collect();
        let traffic = world
            .traffic
            .iter()
            .map(|t| RankTraffic {
                messages: t.messages_sent.load(Ordering::Relaxed),
                bytes: t.bytes_sent.load(Ordering::Relaxed),
                retransmits: t.retransmits.load(Ordering::Relaxed),
                acks: t.acks.load(Ordering::Relaxed),
            })
            .collect();
        (outs, traffic)
    }

    /// Transmit (or retransmit) an outbox entry on the wire, applying the
    /// fault plan's decision for this attempt.
    fn transmit(&self, src: usize, dst: usize, entry: &OutboxEntry, attempt: u32) {
        let mut payload = Arc::clone(&entry.payload);
        if let Some(plan) = &self.config.faults {
            if self.faults_injected.load(Ordering::Relaxed) < plan.max_faults {
                match plan.decide_retry(src, dst, entry.seq, attempt) {
                    FaultAction::Deliver => {}
                    FaultAction::Drop => {
                        self.faults_injected.fetch_add(1, Ordering::Relaxed);
                        return; // lost on the wire
                    }
                    FaultAction::Truncate => {
                        self.faults_injected.fetch_add(1, Ordering::Relaxed);
                        let mut v = (*payload).clone();
                        let half = v.len() / 2;
                        v.truncate(half);
                        payload = Arc::new(v);
                    }
                    FaultAction::Corrupt => {
                        self.faults_injected.fetch_add(1, Ordering::Relaxed);
                        let mut v = (*payload).clone();
                        if !v.is_empty() {
                            let mid = v.len() / 2;
                            v[mid] ^= 0x40;
                        }
                        payload = Arc::new(v);
                    }
                }
            }
        }
        let msg = Message {
            tag: entry.tag,
            seq: entry.seq,
            declared_len: entry.declared_len,
            crc: entry.crc,
            payload,
        };
        // The receiving half lives in `self.receivers` for the world's
        // lifetime, so this only fails during teardown races — in which
        // case the message is unobservable anyway. Never panic the rank.
        let _ = self.senders[src][dst].send(msg);
    }
}

/// Decode a delivered payload into f64 words. A byte count that is not
/// a multiple of 8 surfaces as a typed error instead of a panic.
fn decode_payload(src: usize, dst: usize, tag: u64, bytes: &[u8]) -> Result<Vec<f64>, CommError> {
    if !bytes.len().is_multiple_of(8) {
        return Err(CommError::Malformed { src, dst, tag, len: bytes.len() });
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            f64::from_le_bytes(word)
        })
        .collect())
}

/// Progress state for one reliable receive, possibly spread over many
/// nonblocking polls: the expected link sequence number plus the paced
/// retransmission bookkeeping.
struct RecvProgress {
    expected: u64,
    deadline: Instant,
    attempts: u32,
    backoff: Duration,
    /// Earliest instant an *unforced* retransmission may fire — pacing
    /// so a tight poll loop cannot flood the link and burn the budget.
    next_retry: Instant,
}

/// Clears a rank's alive flag when its thread exits, however it exits.
struct AliveGuard<'a> {
    world: &'a World,
    rank: usize,
}

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        self.world.alive[self.rank].store(false, Ordering::Release);
    }
}

/// The allgatherv tag base: collective tags set the top bit (above every
/// halo tag) and carry the epoch above a 3-bit operation-kind field, in
/// which allgatherv is kind 1.
const COLL_ALLGATHERV: u64 = (1 << 63) | 1;

/// A rank's handle to the world.
pub struct RankCtx<'a> {
    world: &'a World,
    rank: usize,
    /// Monotonic collective-epoch counter, bumped by every
    /// [`RankCtx::try_allgatherv`] and mixed into its tag.
    coll_epoch: Cell<u64>,
}

impl RankCtx<'_> {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.world.size
    }

    /// Count one unit of comm progress on the probe.
    fn bump_heartbeat(&self) {
        self.world.config.probe.add(gw_obs::Counter::Heartbeats, 1);
    }

    /// Fail-stop: mark this rank dead immediately (before its thread has
    /// unwound), so survivors detect the death at the next liveness poll.
    /// Used by fault-injection harnesses to simulate a killed rank.
    pub fn declare_dead(&self) {
        self.world.alive[self.rank].store(false, Ordering::Release);
    }

    /// Point-to-point send, never blocking (unbounded buffering), so it
    /// doubles as the nonblocking post of the overlapped exchange. The
    /// message carries a seq + length + CRC header and is retained in the
    /// per-link outbox until the receiver acknowledges it, so in-flight
    /// faults can be recovered by retransmission.
    pub fn send(&self, dst: usize, tag: u64, payload: &[f64]) {
        let bytes: Vec<u8> = payload.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.bump_heartbeat();
        let t = &self.world.traffic[self.rank];
        t.messages_sent.fetch_add(1, Ordering::Relaxed);
        t.bytes_sent.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let probe = &self.world.config.probe;
        probe.add(gw_obs::Counter::HaloMessages, 1);
        probe.add(gw_obs::Counter::HaloBytes, bytes.len() as u64);
        let link = self.rank * self.world.size + dst;
        let seq = self.world.link_seq[link].fetch_add(1, Ordering::Relaxed);
        let entry = OutboxEntry {
            seq,
            tag,
            declared_len: bytes.len() as u64,
            crc: crc32(&bytes),
            payload: Arc::new(bytes),
        };
        self.world.outbox[link].lock().unwrap().push_back(entry.clone());
        self.world.transmit(self.rank, dst, &entry, 0);
    }

    /// Fresh receive-progress state for the next in-sequence message on
    /// the `src → self` link.
    fn recv_progress(&self, src: usize) -> RecvProgress {
        let recv_link = self.rank * self.world.size + src;
        let cfg = &self.world.config;
        let now = Instant::now();
        let backoff = cfg.retry_backoff.max(Duration::from_micros(100));
        RecvProgress {
            expected: self.world.recv_next[recv_link].load(Ordering::Relaxed),
            deadline: now + cfg.recv_timeout,
            attempts: 0,
            backoff,
            next_retry: now + backoff,
        }
    }

    /// Request one retransmission of `st.expected`, if the sender has
    /// posted it and the pace allows (`force` overrides the pacing — a
    /// sequence gap or integrity failure is *proof* of loss, whereas a
    /// poll that merely found the channel empty must be rate-limited).
    /// Returns `Err` once the budget is exhausted.
    fn request_retransmit(
        &self,
        src: usize,
        tag: u64,
        st: &mut RecvProgress,
        force: bool,
    ) -> Result<(), CommError> {
        let now = Instant::now();
        if !force && now < st.next_retry {
            return Ok(());
        }
        let dst = self.rank;
        let send_link = src * self.world.size + dst;
        let entry = {
            let ob = self.world.outbox[send_link].lock().unwrap();
            ob.iter().find(|e| e.seq == st.expected).cloned()
        };
        let Some(entry) = entry else { return Ok(()) }; // not sent yet: keep waiting
        st.attempts += 1;
        if st.attempts > self.world.config.max_retransmits {
            return Err(CommError::RetransmitsExhausted {
                src,
                dst,
                tag,
                seq: st.expected,
                attempts: st.attempts - 1,
            });
        }
        self.world.traffic[dst].retransmits.fetch_add(1, Ordering::Relaxed);
        self.world.config.probe.add(gw_obs::Counter::Retransmits, 1);
        self.world.transmit(src, dst, &entry, st.attempts);
        st.backoff = (st.backoff * 2).min(self.world.config.heartbeat_interval);
        st.next_retry = now + st.backoff;
        Ok(())
    }

    /// One step of the reliable-receive state machine: wait up to `wait`
    /// for an arrival and process it. `Ok(Some(payload))` on delivery,
    /// `Ok(None)` while the message is still in flight. [`RecvHandle`]'s
    /// `poll` and `wait` are thin loops over this.
    fn recv_poll(
        &self,
        src: usize,
        tag: u64,
        st: &mut RecvProgress,
        wait: Duration,
    ) -> Result<Option<Vec<f64>>, CommError> {
        let dst = self.rank;
        let size = self.world.size;
        let recv_link = dst * size + src; // reorder / recv_next index
        let send_link = src * size + dst; // outbox index
        self.bump_heartbeat();
        // In-order arrival stashed by an earlier receive?
        let stashed = self.world.reorder[recv_link].lock().unwrap().remove(&st.expected);
        let msg = if let Some(m) = stashed {
            Some(m)
        } else {
            let got = {
                let guard = self.world.receivers[dst].lock().unwrap();
                guard[src].recv_timeout(wait)
            };
            match got {
                Ok(m) => Some(m),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::Disconnected { src, dst })
                }
            }
        };
        match msg {
            Some(msg) if msg.seq < st.expected => Ok(None), // stale duplicate
            Some(msg) if msg.seq > st.expected => {
                // FIFO links: a gap proves `expected` was dropped.
                self.world.reorder[recv_link].lock().unwrap().insert(msg.seq, msg);
                self.request_retransmit(src, tag, st, true)?;
                Ok(None)
            }
            Some(msg) => {
                // In sequence: verify integrity, then the protocol.
                if msg.payload.len() as u64 != msg.declared_len || crc32(&msg.payload) != msg.crc {
                    self.request_retransmit(src, tag, st, true)?;
                    return Ok(None);
                }
                if msg.tag != tag {
                    return Err(CommError::TagMismatch { src, dst, expected: tag, got: msg.tag });
                }
                // Deliver + ack: advance the expected seq and drop the
                // sender's outbox copies up to this seq.
                self.world.recv_next[recv_link].store(st.expected + 1, Ordering::Relaxed);
                {
                    let mut ob = self.world.outbox[send_link].lock().unwrap();
                    while ob.front().is_some_and(|e| e.seq <= st.expected) {
                        ob.pop_front();
                    }
                }
                self.world.traffic[dst].acks.fetch_add(1, Ordering::Relaxed);
                decode_payload(src, dst, tag, &msg.payload).map(Some)
            }
            None => {
                // Timed out on an empty channel. Dead peer that never
                // posted the message ⇒ fail fast naming the rank.
                let sender_dead = !self.world.alive[src].load(Ordering::Acquire);
                let posted = self.world.outbox[send_link]
                    .lock()
                    .unwrap()
                    .iter()
                    .any(|e| e.seq == st.expected);
                if sender_dead && !posted {
                    return Err(CommError::RankDead { rank: src, dst });
                }
                // A blocking wait already slept a full backoff interval,
                // so its retransmission is due; a zero-wait poll is paced.
                self.request_retransmit(src, tag, st, wait > Duration::ZERO)?;
                if Instant::now() >= st.deadline {
                    return Err(CommError::Timeout { src, dst, tag });
                }
                Ok(None)
            }
        }
    }

    /// Begin a reliable receive of the next in-sequence message from
    /// `src` with `tag`, returning a [`RecvHandle`] to poll or wait on.
    /// Dropped, truncated, or corrupted transmissions are recovered by
    /// bounded retransmission with exponential backoff; only an exhausted
    /// budget, a dead peer, a protocol desync, or the overall deadline
    /// surfaces as a [`CommError`]. At most one receive may be
    /// outstanding per source link at a time — the reliable layer tracks
    /// one expected sequence number per link.
    pub fn irecv(&self, src: usize, tag: u64) -> RecvHandle<'_, '_> {
        RecvHandle { ctx: self, src, tag, st: self.recv_progress(src), done: false }
    }

    /// Timeout-aware barrier: waits until every rank arrives, polling the
    /// liveness view at the heartbeat cadence. Never hangs on a dead
    /// rank — returns [`CommError::RankDead`] naming it, or
    /// [`CommError::BarrierTimeout`] after the receive deadline.
    pub fn try_barrier(&self) -> Result<(), CommError> {
        self.bump_heartbeat();
        let b = &self.world.barrier;
        let mut st = b.state.lock().unwrap();
        let gen = st.generation;
        st.arrived += 1;
        if st.arrived == self.world.size {
            st.arrived = 0;
            st.generation += 1;
            b.cv.notify_all();
            return Ok(());
        }
        let deadline = Instant::now() + self.world.config.recv_timeout;
        while st.generation == gen {
            let (st2, _) = b.cv.wait_timeout(st, self.world.config.heartbeat_interval).unwrap();
            st = st2;
            if st.generation != gen {
                break;
            }
            if let Some(dead) = (0..self.world.size)
                .find(|&r| r != self.rank && !self.world.alive[r].load(Ordering::Acquire))
            {
                st.arrived -= 1; // withdraw so a later generation isn't corrupted
                return Err(CommError::RankDead { rank: dead, dst: self.rank });
            }
            if Instant::now() >= deadline {
                st.arrived -= 1;
                return Err(CommError::BarrierTimeout { rank: self.rank });
            }
        }
        Ok(())
    }

    /// Fault-tolerant allgatherv: every rank's `mine`, in rank order, on
    /// every rank. Each call takes a fresh collective epoch — identical
    /// across ranks because collectives are SPMD-ordered — and mixes it
    /// into the tag, so back-to-back collectives on one link can never
    /// interleave into a protocol desync. Never hangs on a dead rank.
    pub fn try_allgatherv(&self, mine: &[f64]) -> Result<Vec<Vec<f64>>, CommError> {
        let e = self.coll_epoch.get();
        self.coll_epoch.set(e + 1);
        let tag = COLL_ALLGATHERV | (e << 3);
        for dst in 0..self.size() {
            if dst != self.rank {
                self.send(dst, tag, mine);
            }
        }
        let mut out = Vec::with_capacity(self.size());
        for src in 0..self.size() {
            if src == self.rank {
                out.push(mine.to_vec());
            } else {
                out.push(self.irecv(src, tag).wait()?);
            }
        }
        Ok(out)
    }
}

/// An in-progress reliable receive created by [`RankCtx::irecv`].
/// Polling drives the retransmission state machine paced by the
/// configured backoff, so a tight compute/poll loop cannot flood the link
/// or burn the retransmit budget; waiting drives it at the blocking
/// cadence. Completion delivers the payload bit-exact.
///
/// A handle owns the link's expected-sequence cursor: complete it
/// (or drop it) before starting another receive from the same source.
pub struct RecvHandle<'c, 'w> {
    ctx: &'c RankCtx<'w>,
    src: usize,
    tag: u64,
    st: RecvProgress,
    done: bool,
}

impl RecvHandle<'_, '_> {
    /// The source rank this handle is receiving from.
    pub fn src(&self) -> usize {
        self.src
    }

    /// Nonblocking progress check: `Ok(Some(payload))` once the message
    /// has been delivered, `Ok(None)` while still in flight. Must not
    /// be called again after it has returned a payload.
    pub fn poll(&mut self) -> Result<Option<Vec<f64>>, CommError> {
        debug_assert!(!self.done, "RecvHandle polled after completion");
        let r = self.ctx.recv_poll(self.src, self.tag, &mut self.st, Duration::ZERO);
        if matches!(r, Ok(Some(_))) {
            self.done = true;
        }
        r
    }

    /// Block until delivery (or a comm error), waiting up to one backoff
    /// interval (capped at the heartbeat) on the link between
    /// retransmission requests.
    pub fn wait(&mut self) -> Result<Vec<f64>, CommError> {
        debug_assert!(!self.done, "RecvHandle waited after completion");
        loop {
            let wait = self.st.backoff.min(self.ctx.world.config.heartbeat_interval);
            if let Some(v) = self.ctx.recv_poll(self.src, self.tag, &mut self.st, wait)? {
                self.done = true;
                return Ok(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rank 0 sends `payload` to rank 1 with tag 3; rank 1 receives it.
    fn one_message(
        cfg: WorldConfig,
        payload: &[f64],
    ) -> (Result<Vec<f64>, CommError>, RankTraffic) {
        let (mut out, traffic) = World::run(2, cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 3, payload);
                Ok(Vec::new())
            } else {
                ctx.irecv(0, 3).wait()
            }
        });
        (out.swap_remove(1), traffic[1])
    }

    #[test]
    fn single_rank_world() {
        let (out, traffic) = World::run(1, WorldConfig::default(), |ctx| {
            assert_eq!(ctx.rank(), 0);
            assert_eq!(ctx.size(), 1);
            ctx.try_allgatherv(&[5.0]).unwrap()
        });
        assert_eq!(out, vec![vec![vec![5.0]]]);
        assert_eq!(traffic[0], RankTraffic::default());
    }

    #[test]
    fn point_to_point_ring() {
        let (out, traffic) = World::run(4, WorldConfig::default(), |ctx| {
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            ctx.send(next, 7, &[ctx.rank() as f64]);
            ctx.irecv(prev, 7).wait().unwrap()[0]
        });
        assert_eq!(out, vec![3.0, 0.0, 1.0, 2.0]);
        for t in traffic {
            assert_eq!((t.messages, t.bytes, t.acks), (1, 8, 1));
        }
    }

    #[test]
    fn allgatherv_collects_all() {
        let (out, _) = World::run(3, WorldConfig::default(), |ctx| {
            let mine = vec![ctx.rank() as f64; ctx.rank() + 1];
            ctx.try_allgatherv(&mine).unwrap()
        });
        for recvs in out {
            assert_eq!(recvs.len(), 3);
            for (src, v) in recvs.iter().enumerate() {
                assert_eq!(*v, vec![src as f64; src + 1]);
            }
        }
    }

    #[test]
    fn back_to_back_collectives_use_distinct_epoch_tags() {
        // Two identical-shape collectives in a row: without epoch tags a
        // lost first-round message could desync into the second round.
        // With epochs the rounds are separated; both must return the
        // right values even under seeded drops, and the barrier after
        // them must still line the ranks up.
        let cfg = WorldConfig {
            faults: Some(CommFaultPlan::new(21).with_drop_rate(0.2)),
            ..WorldConfig::default()
        };
        let (out, traffic) = World::run(3, cfg, |ctx| {
            let r = ctx.rank() as f64;
            let a = ctx.try_allgatherv(&[r])?;
            let b = ctx.try_allgatherv(&[10.0 * r, 1.0])?;
            ctx.try_barrier()?;
            Ok::<_, CommError>((a, b))
        });
        for r in out {
            let (a, b) = r.unwrap();
            assert_eq!(a, vec![vec![0.0], vec![1.0], vec![2.0]]);
            assert_eq!(b, vec![vec![0.0, 1.0], vec![10.0, 1.0], vec![20.0, 1.0]]);
        }
        assert!(traffic.iter().any(|t| t.retransmits > 0), "seed 21 must drop something");
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::AtomicUsize;
        let counter = AtomicUsize::new(0);
        let (out, _) = World::run(4, WorldConfig::default(), |ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            ctx.try_barrier()?;
            // After the barrier every rank's increment is visible.
            Ok::<_, CommError>(counter.load(Ordering::SeqCst))
        });
        assert!(out.into_iter().all(|n| n == Ok(4)));
    }

    #[test]
    fn dropped_message_recovered_by_retransmission() {
        // Every original transmission drops (budget 1): the reliable
        // layer must recover the payload via retransmission, bit-exact.
        let cfg = WorldConfig {
            faults: Some(CommFaultPlan::new(11).with_drop_rate(1.0).with_max_faults(1)),
            recv_timeout: Duration::from_secs(5),
            ..WorldConfig::default()
        };
        let (got, traffic) = one_message(cfg, &[1.0, 2.0]);
        assert_eq!(got, Ok(vec![1.0, 2.0]));
        assert!(traffic.retransmits >= 1, "recovery must go through a retransmit");
        assert_eq!(traffic.acks, 1);
    }

    #[test]
    fn truncated_and_corrupted_messages_recovered() {
        for plan in [
            CommFaultPlan::new(12).with_truncate_rate(1.0).with_max_faults(2),
            CommFaultPlan::new(13).with_corrupt_rate(1.0).with_max_faults(2),
        ] {
            let cfg = WorldConfig {
                faults: Some(plan),
                recv_timeout: Duration::from_secs(5),
                ..WorldConfig::default()
            };
            let (got, traffic) = one_message(cfg, &[1.0, 2.0, 3.0, 4.0]);
            assert_eq!(got, Ok(vec![1.0, 2.0, 3.0, 4.0]));
            assert!(traffic.retransmits >= 2, "both faulted deliveries are retransmitted");
        }
    }

    #[test]
    fn unrecoverable_loss_exhausts_retransmit_budget() {
        // Unlimited faults at drop rate 1: every attempt dies; the
        // receive must surface a typed error, never hang.
        let cfg = WorldConfig {
            faults: Some(CommFaultPlan::new(11).with_drop_rate(1.0)),
            recv_timeout: Duration::from_secs(30),
            max_retransmits: 3,
            retry_backoff: Duration::from_millis(1),
            heartbeat_interval: Duration::from_millis(5),
            ..WorldConfig::default()
        };
        let (got, _) = one_message(cfg, &[1.0, 2.0]);
        assert_eq!(
            got,
            Err(CommError::RetransmitsExhausted { src: 0, dst: 1, tag: 3, seq: 0, attempts: 3 })
        );
    }

    #[test]
    fn reliable_path_detects_tag_mismatch() {
        // A protocol desync is not a transport fault: the message arrives
        // intact and in sequence but under another tag, so the reliable
        // receive reports it instead of retransmitting.
        let (out, _) = World::run(2, WorldConfig::default(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, &[2.0]);
                Ok(Vec::new())
            } else {
                ctx.irecv(0, 0).wait()
            }
        });
        assert_eq!(out[1], Err(CommError::TagMismatch { src: 0, dst: 1, expected: 0, got: 1 }));
    }

    #[test]
    fn dead_rank_detected_by_receiver() {
        let cfg = WorldConfig {
            recv_timeout: Duration::from_secs(10),
            heartbeat_interval: Duration::from_millis(5),
            ..WorldConfig::default()
        };
        let started = Instant::now();
        let (out, _) = World::run(2, cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.declare_dead();
                Err(CommError::RankDead { rank: 0, dst: 0 })
            } else {
                ctx.irecv(0, 9).wait().map(|_| ())
            }
        });
        assert_eq!(out[1], Err(CommError::RankDead { rank: 0, dst: 1 }));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "death must be detected well before the receive deadline"
        );
    }

    #[test]
    fn dead_rank_detected_by_barrier() {
        let cfg =
            WorldConfig { heartbeat_interval: Duration::from_millis(5), ..WorldConfig::default() };
        let (out, _) = World::run(3, cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.declare_dead();
                Err(CommError::RankDead { rank: 0, dst: 0 })
            } else {
                ctx.try_barrier()
            }
        });
        for (r, res) in out.iter().enumerate().skip(1) {
            assert_eq!(*res, Err(CommError::RankDead { rank: 0, dst: r }));
        }
    }

    #[test]
    fn liveness_view_reflects_completion() {
        // A rank that simply returns (no fail-stop call) is marked dead on
        // exit, so a receive posted on it fails fast instead of waiting
        // out the deadline.
        let cfg = WorldConfig {
            recv_timeout: Duration::from_secs(10),
            heartbeat_interval: Duration::from_millis(5),
            ..WorldConfig::default()
        };
        let started = Instant::now();
        let (out, _) = World::run(2, cfg, |ctx| match ctx.rank() {
            0 => Ok(()),
            _ => ctx.irecv(0, 4).wait().map(|_| ()),
        });
        assert_eq!(out, vec![Ok(()), Err(CommError::RankDead { rank: 0, dst: 1 })]);
        assert!(started.elapsed() < Duration::from_secs(5), "completion must be seen quickly");
    }

    #[test]
    fn max_faults_bounds_injection() {
        // drop_rate 1.0 but max_faults 1: only the first transmission
        // dies; the reliable layer recovers it and everything after
        // flows fault-free.
        let cfg = WorldConfig {
            faults: Some(CommFaultPlan::new(5).with_drop_rate(1.0).with_max_faults(1)),
            recv_timeout: Duration::from_secs(5),
            ..WorldConfig::default()
        };
        let (out, traffic) = World::run(2, cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, &[1.0]);
                ctx.send(1, 1, &[2.0]);
                Ok(Vec::new())
            } else {
                let a = ctx.irecv(0, 0).wait()?;
                let b = ctx.irecv(0, 1).wait()?;
                Ok::<_, CommError>(vec![a[0], b[0]])
            }
        });
        assert_eq!(out[1], Ok(vec![1.0, 2.0]));
        assert!(traffic[1].retransmits >= 1, "the dropped message is retransmitted");
        assert_eq!(traffic[1].acks, 2);
    }

    #[test]
    fn irecv_wait_completes_like_blocking_recv() {
        // Post the receive before the send lands (the overlap pattern):
        // completion must deliver the sent bits.
        let (out, _) = World::run(3, WorldConfig::default(), |ctx| {
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            let mut h = ctx.irecv(prev, 5);
            ctx.send(next, 5, &[ctx.rank() as f64; 4]);
            let v = h.wait().unwrap();
            assert_eq!(h.src(), prev);
            v == vec![prev as f64; 4]
        });
        assert!(out.iter().all(|&ok| ok));
    }

    #[test]
    fn polled_receive_overlaps_compute_and_recovers_faults() {
        // The first transmission is dropped; a tight poll loop standing
        // in for interior compute must recover it via a *paced*
        // retransmission (budget 8 untouched despite thousands of
        // polls) and deliver bit-exact.
        let cfg = WorldConfig {
            faults: Some(CommFaultPlan::new(11).with_drop_rate(1.0).with_max_faults(1)),
            recv_timeout: Duration::from_secs(5),
            ..WorldConfig::default()
        };
        let (out, traffic) = World::run(2, cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 3, &[1.0, 2.0, 3.0]);
                Ok::<_, CommError>(Vec::new())
            } else {
                let mut h = ctx.irecv(0, 3);
                let mut interior_work = 0.0f64;
                loop {
                    if let Some(v) = h.poll()? {
                        assert!(interior_work.is_finite());
                        return Ok(v);
                    }
                    for i in 0..64 {
                        interior_work += (i as f64).sqrt();
                    }
                }
            }
        });
        assert_eq!(out[1], Ok(vec![1.0, 2.0, 3.0]));
        assert!(traffic[1].retransmits >= 1, "recovery must go through a retransmit");
        assert!(traffic[1].retransmits <= 8, "polling must not flood the retransmit budget");
        assert_eq!(traffic[1].acks, 1);
    }

    #[test]
    fn malformed_payload_length_is_typed_error() {
        assert_eq!(
            decode_payload(0, 1, 7, &[1, 2, 3]),
            Err(CommError::Malformed { src: 0, dst: 1, tag: 7, len: 3 })
        );
        assert_eq!(decode_payload(0, 1, 7, &1.5f64.to_le_bytes()), Ok(vec![1.5]));
    }

    #[test]
    fn fault_free_path_unchanged_with_plan_installed() {
        // A zero-rate plan must not perturb results or traffic: the same
        // exchange with and without it delivers the same values over the
        // same messages, with not a single retransmission.
        let exchange = |faults| {
            let cfg = WorldConfig { faults, ..WorldConfig::default() };
            World::run(3, cfg, |ctx| {
                let next = (ctx.rank() + 1) % ctx.size();
                let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
                ctx.send(next, 2, &[ctx.rank() as f64]);
                let p2p = ctx.irecv(prev, 2).wait().unwrap()[0];
                let all = ctx.try_allgatherv(&[ctx.rank() as f64]).unwrap();
                p2p + all.iter().map(|v| v[0]).sum::<f64>()
            })
        };
        let (plain, plain_traffic) = exchange(None);
        let (out, traffic) = exchange(Some(CommFaultPlan::new(9)));
        assert_eq!(out, plain);
        assert_eq!(out, vec![5.0, 3.0, 4.0]);
        assert_eq!(traffic, plain_traffic);
        assert!(traffic.iter().all(|t| t.messages == 3 && t.retransmits == 0));
    }
}
