//! Checkpoint / restart — single-rank files and coordinated
//! multi-rank snapshots.
//!
//! Production NR runs last days (Table IV: up to 388 hours), so restart
//! capability is table stakes. A checkpoint captures the grid (leaf
//! keys), the solver time/step counters and the full state vector in a
//! self-describing little-endian binary format built on the `bytes`
//! crate.
//!
//! Format v2 appends a CRC-32 of the entire body so bit rot and
//! truncated writes are detected at load time; the CRC-less v1 format is
//! rejected with a typed error (a trailer-less file cannot be
//! distinguished from a torn write). [`save_to_file`] writes atomically
//! (temp file + fsync + rename), so a crash mid-write never clobbers
//! the previous good checkpoint.
//!
//! # Distributed snapshots
//!
//! A multi-rank world checkpoints with a two-phase commit: every rank
//! first writes its own SFC-contiguous octant shard (same CRC-trailer
//! discipline, [`encode_shard`]), then — only after all shards are
//! durably on disk — the coordinator atomically renames a global
//! *manifest* into place recording the step, the partition map and every
//! shard's body CRC ([`commit_manifest`]). The manifest is the commit
//! point: a snapshot missing it is invisible, and [`load_distributed`]
//! verifies each shard against the manifest CRCs, so a restart sees a
//! globally consistent state or a typed error — never a mixed-step mosaic.
//!
//! Every format is written through a `Sealer`: the body is checksummed
//! as it is serialized and the trailer is appended in place, so writing
//! a checkpoint reads each byte once for its CRC and copies no body.

use crate::solver::{GwSolver, SolverConfig};
use bytes::{Buf, BufMut, Bytes};
use gw_comm::crc::{crc32, CrcBuf};
use gw_expr::symbols::NUM_VARS;
use gw_mesh::{Field, Mesh};
use gw_octree::{Domain, MortonKey};
use gw_stencil::patch::BLOCK_VOLUME;
use std::ops::Range;

const MAGIC: u32 = 0x6777_6370; // "gwcp"
/// Current write version. v2 = v1 body + trailing CRC-32 of the body.
const VERSION: u32 = 2;
const SHARD_MAGIC: u32 = 0x6777_7368; // "gwsh"
const SHARD_VERSION: u32 = 1;
const MANIFEST_MAGIC: u32 = 0x6777_6d66; // "gwmf"
/// v2 records each shard's body CRC (its seal trailer). v1 recorded the
/// CRC of the sealed file, which is the same constant for every body.
const MANIFEST_VERSION: u32 = 2;

/// A typed checkpoint failure. Loads fail atomically: on any error no
/// partial state escapes (the decoder owns everything until it returns).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// File ends before the structure it declares.
    Truncated { what: &'static str },
    /// Not a checkpoint of this kind.
    BadMagic { expected: u32, got: u32 },
    /// A format version this build cannot read (v1 lacks the CRC
    /// trailer and is rejected: integrity cannot be verified).
    UnsupportedVersion { got: u32, supported: u32 },
    /// Body does not match the CRC-32 trailer (bit rot / torn write).
    ChecksumMismatch { stored: u32, computed: u32 },
    /// Structurally valid but self-inconsistent (e.g. state length vs
    /// grid size, shard range vs partition map).
    Inconsistent { what: String },
    /// Filesystem error, with the path.
    Io { path: String, error: String },
    /// The distributed snapshot has no committed manifest.
    ManifestMissing { dir: String },
    /// A shard disagrees with the manifest that committed it.
    ShardMismatch { rank: usize, what: String },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Truncated { what } => write!(f, "truncated checkpoint ({what})"),
            CheckpointError::BadMagic { expected, got } => {
                write!(f, "bad magic {got:#010x} (expected {expected:#010x})")
            }
            CheckpointError::UnsupportedVersion { got, supported } => write!(
                f,
                "unsupported checkpoint version {got} (supported: {supported}; \
                 v1 has no integrity trailer and cannot be verified)"
            ),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch (stored {stored:#010x}, computed {computed:#010x}) \
                 — file is corrupt or truncated"
            ),
            CheckpointError::Inconsistent { what } => write!(f, "inconsistent checkpoint: {what}"),
            CheckpointError::Io { path, error } => write!(f, "{path}: {error}"),
            CheckpointError::ManifestMissing { dir } => {
                write!(f, "no committed snapshot manifest in {dir}")
            }
            CheckpointError::ShardMismatch { rank, what } => {
                write!(f, "shard {rank} disagrees with manifest: {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A deserialized checkpoint.
pub struct Checkpoint {
    pub domain: Domain,
    pub leaves: Vec<MortonKey>,
    pub time: f64,
    pub steps_taken: u64,
    pub state: Field,
}

fn need(data: &Bytes, n: usize, what: &'static str) -> Result<(), CheckpointError> {
    if data.remaining() < n {
        Err(CheckpointError::Truncated { what })
    } else {
        Ok(())
    }
}

/// Check a file's magic and format version from its raw prefix, before
/// any checksum: a file of another version may carry no trailer, and
/// verifying one would mask the real (version) problem.
fn check_prefix(
    data: &Bytes,
    expected: u32,
    supported: u32,
    what: &'static str,
) -> Result<(), CheckpointError> {
    need(data, 8, what)?;
    let word = |i: usize| u32::from_le_bytes(data.as_slice()[i..i + 4].try_into().unwrap());
    let (magic, version) = (word(0), word(4));
    if magic != expected {
        return Err(CheckpointError::BadMagic { expected, got: magic });
    }
    if version != supported {
        return Err(CheckpointError::UnsupportedVersion { got: version, supported });
    }
    Ok(())
}

/// A checkpoint body under construction, checksummed as it is written
/// ([`CrcBuf`]). [`Sealer::seal`] appends the CRC-32 trailer in place.
struct Sealer(CrcBuf);

impl BufMut for Sealer {
    fn put_slice(&mut self, s: &[u8]) {
        self.0.put(s);
    }
}

impl Sealer {
    /// Room for a body of `body` bytes and its trailer.
    fn with_capacity(body: usize) -> Self {
        Self(CrcBuf::with_capacity(body + 4))
    }

    fn put_f64s(&mut self, words: &[f64]) {
        self.0.put_f64s(words);
    }

    /// The sealed bytes (body, then its CRC-32) and the body's CRC.
    fn seal(self) -> (Bytes, u32) {
        let (mut bytes, crc) = self.0.into_parts();
        bytes.extend_from_slice(&crc.to_le_bytes());
        (Bytes::from(bytes), crc)
    }
}

/// Split a sealed file into its body, its stored trailer and the body's
/// computed CRC-32 (the one checksum pass over the body).
fn split_sealed(data: Bytes) -> Result<(Bytes, u32, u32), CheckpointError> {
    need(&data, 12, "header + CRC trailer")?;
    let body_len = data.remaining() - 4;
    let stored = u32::from_le_bytes(data.as_slice()[body_len..].try_into().unwrap());
    let body = data.slice(..body_len);
    let computed = crc32(body.as_slice());
    Ok((body, stored, computed))
}

/// Verify and strip a CRC-32 trailer.
fn unseal(data: Bytes) -> Result<Bytes, CheckpointError> {
    let (body, stored, computed) = split_sealed(data)?;
    if stored != computed {
        return Err(CheckpointError::ChecksumMismatch { stored, computed });
    }
    Ok(body)
}

/// Serialize the solver's restartable state (format v2: body + CRC-32).
pub fn save(solver: &GwSolver) -> Bytes {
    let u = solver.state();
    let n = solver.mesh.n_octants();
    let mut buf = Sealer::with_capacity(64 + n * 13 + u.as_slice().len() * 8);
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(VERSION);
    for a in 0..3 {
        buf.put_f64_le(solver.mesh.domain.min[a]);
    }
    for a in 0..3 {
        buf.put_f64_le(solver.mesh.domain.max[a]);
    }
    buf.put_f64_le(solver.time);
    buf.put_u64_le(solver.steps_taken);
    buf.put_u64_le(n as u64);
    for o in &solver.mesh.octants {
        buf.put_u32_le(o.key.x());
        buf.put_u32_le(o.key.y());
        buf.put_u32_le(o.key.z());
        buf.put_u8(o.key.level());
    }
    buf.put_u64_le(u.as_slice().len() as u64);
    buf.put_f64s(u.as_slice());
    buf.seal().0
}

/// Deserialize a checkpoint (format v2 only; v1 is rejected as
/// unverifiable). Fails atomically — an error never leaves partial
/// state behind.
pub fn load(data: Bytes) -> Result<Checkpoint, CheckpointError> {
    // v1 files carry no CRC trailer: the version is checked first.
    check_prefix(&data, MAGIC, VERSION, "magic + version")?;
    let mut data = unseal(data)?;
    data.advance(8); // magic + version, already validated
    need(&data, 6 * 8 + 8 + 8 + 8, "domain + counters")?;
    let mut min = [0.0; 3];
    let mut max = [0.0; 3];
    for m in min.iter_mut() {
        *m = data.get_f64_le();
    }
    for m in max.iter_mut() {
        *m = data.get_f64_le();
    }
    let time = data.get_f64_le();
    let steps_taken = data.get_u64_le();
    let n = data.get_u64_le() as usize;
    need(&data, n * 13, "leaf keys")?;
    let mut leaves = Vec::with_capacity(n);
    for _ in 0..n {
        let x = data.get_u32_le();
        let y = data.get_u32_le();
        let z = data.get_u32_le();
        let l = data.get_u8();
        leaves.push(MortonKey::new(x, y, z, l));
    }
    need(&data, 8, "state length")?;
    let len = data.get_u64_le() as usize;
    need(&data, len * 8, "state vector")?;
    let mut vals = Vec::with_capacity(len);
    for _ in 0..len {
        vals.push(data.get_f64_le());
    }
    if len != n * NUM_VARS * BLOCK_VOLUME {
        return Err(CheckpointError::Inconsistent {
            what: format!("state length {len} does not match {n} octants"),
        });
    }
    let state = Field::from_vec(NUM_VARS, n, vals);
    Ok(Checkpoint { domain: Domain { min, max }, leaves, time, steps_taken, state })
}

/// Rebuild a solver from a checkpoint.
pub fn restore(config: SolverConfig, cp: Checkpoint) -> GwSolver {
    let mesh = Mesh::build(cp.domain, &cp.leaves);
    let mut solver = GwSolver::new(config, mesh, |_p, out| {
        out.iter_mut().for_each(|v| *v = 0.0);
    });
    solver.backend.upload(&cp.state);
    solver.time = cp.time;
    solver.steps_taken = cp.steps_taken;
    solver
}

/// Write `bytes` to `path` atomically: sibling temp file, fsync, rename.
/// A crash at any point leaves either the old file or the new one —
/// never a half-written hybrid.
pub fn write_atomic(path: &str, bytes: &[u8]) -> Result<(), CheckpointError> {
    use std::io::Write;
    let io = |e: std::io::Error| CheckpointError::Io { path: path.into(), error: e.to_string() };
    let tmp = format!("{path}.tmp");
    {
        let mut f = std::fs::File::create(&tmp).map_err(io)?;
        f.write_all(bytes).map_err(io)?;
        f.sync_all().map_err(io)?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(io(e));
    }
    Ok(())
}

/// Save to a file atomically (temp + fsync + rename).
pub fn save_to_file(solver: &GwSolver, path: &str) -> std::io::Result<()> {
    let bytes = save(solver);
    write_atomic(path, bytes.as_slice()).map_err(|e| std::io::Error::other(e.to_string()))
}

/// Load from a file.
pub fn load_from_file(path: &str) -> Result<Checkpoint, CheckpointError> {
    let data = std::fs::read(path)
        .map_err(|e| CheckpointError::Io { path: path.into(), error: e.to_string() })?;
    load(Bytes::from(data))
}

// ---------------------------------------------------------------------
// Distributed snapshots: per-rank shards + committed global manifest.
// ---------------------------------------------------------------------

/// Which octants of which step a shard holds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardHeader {
    pub rank: usize,
    pub start_octant: usize,
    pub n_octants: usize,
    pub time: f64,
    pub steps_taken: u64,
}

impl ShardHeader {
    /// The octants the shard holds.
    pub fn octants(&self) -> Range<usize> {
        self.start_octant..self.start_octant + self.n_octants
    }
}

/// One rank's slice of a distributed snapshot: its SFC-contiguous octant
/// range with values in `[octant][var][point]` order (the halo-message
/// layout).
#[derive(Clone, Debug, PartialEq)]
pub struct Shard {
    pub header: ShardHeader,
    pub values: Vec<f64>,
}

/// Serialize a shard holding `n_values` values, given as consecutive
/// slices, in one pass: each slice is checksummed as it is written, and
/// the trailer is appended in place. Returns the sealed bytes and the
/// body's CRC.
fn encode_shard_from<'a>(
    h: &ShardHeader,
    n_values: usize,
    values: impl IntoIterator<Item = &'a [f64]>,
) -> (Bytes, u32) {
    let mut buf = Sealer::with_capacity(56 + n_values * 8);
    buf.put_u32_le(SHARD_MAGIC);
    buf.put_u32_le(SHARD_VERSION);
    buf.put_u64_le(h.rank as u64);
    buf.put_u64_le(h.start_octant as u64);
    buf.put_u64_le(h.n_octants as u64);
    buf.put_f64_le(h.time);
    buf.put_u64_le(h.steps_taken);
    buf.put_u64_le(n_values as u64);
    for v in values {
        buf.put_f64s(v);
    }
    buf.seal()
}

/// Serialize a shard (CRC-sealed like the single-rank format).
pub fn encode_shard(shard: &Shard) -> Bytes {
    encode_shard_from(&shard.header, shard.values.len(), [shard.values.as_slice()]).0
}

/// Parse a verified shard body up to its values: the header and the
/// value count, checked against the octant count.
fn parse_shard_header(body: &mut Bytes) -> Result<(ShardHeader, usize), CheckpointError> {
    check_prefix(body, SHARD_MAGIC, SHARD_VERSION, "shard magic + version")?;
    body.advance(8);
    need(body, 8 * 6, "shard header")?;
    let h = ShardHeader {
        rank: body.get_u64_le() as usize,
        start_octant: body.get_u64_le() as usize,
        n_octants: body.get_u64_le() as usize,
        time: body.get_f64_le(),
        steps_taken: body.get_u64_le(),
    };
    let len = body.get_u64_le() as usize;
    need(body, len * 8, "shard values")?;
    if len != h.n_octants * NUM_VARS * BLOCK_VOLUME {
        return Err(CheckpointError::Inconsistent {
            what: format!("shard value count {len} does not match {} octants", h.n_octants),
        });
    }
    Ok((h, len))
}

/// Deserialize and verify a shard.
pub fn decode_shard(data: Bytes) -> Result<Shard, CheckpointError> {
    check_prefix(&data, SHARD_MAGIC, SHARD_VERSION, "shard magic + version")?;
    let mut body = unseal(data)?;
    let (header, len) = parse_shard_header(&mut body)?;
    let values = (0..len).map(|_| body.get_f64_le()).collect();
    Ok(Shard { header, values })
}

/// The global manifest of a distributed snapshot: grid, partition map,
/// counters, and the CRC + length of every shard. Written last,
/// atomically — its presence *is* the commit.
#[derive(Clone, Debug, PartialEq)]
pub struct DistManifest {
    pub domain: Domain,
    pub leaves: Vec<MortonKey>,
    /// Partition offsets: rank `r` owns octants `offsets[r]..offsets[r+1]`.
    pub offsets: Vec<usize>,
    pub time: f64,
    pub steps_taken: u64,
    /// CRC-32 of each rank's shard body: the trailer its seal appended.
    /// (The CRC of a whole sealed file is the same for every body.)
    pub shard_crcs: Vec<u32>,
    /// Byte length of each rank's encoded shard file.
    pub shard_lens: Vec<u64>,
}

impl DistManifest {
    pub fn ranks(&self) -> usize {
        self.shard_crcs.len()
    }
}

/// Serialize a manifest (CRC-sealed).
pub fn encode_manifest(m: &DistManifest) -> Bytes {
    assert_eq!(m.offsets.len(), m.ranks() + 1);
    assert_eq!(m.shard_lens.len(), m.ranks());
    let mut buf = Sealer::with_capacity(128 + m.leaves.len() * 13 + m.ranks() * 20);
    buf.put_u32_le(MANIFEST_MAGIC);
    buf.put_u32_le(MANIFEST_VERSION);
    for a in 0..3 {
        buf.put_f64_le(m.domain.min[a]);
    }
    for a in 0..3 {
        buf.put_f64_le(m.domain.max[a]);
    }
    buf.put_f64_le(m.time);
    buf.put_u64_le(m.steps_taken);
    buf.put_u64_le(m.leaves.len() as u64);
    for k in &m.leaves {
        buf.put_u32_le(k.x());
        buf.put_u32_le(k.y());
        buf.put_u32_le(k.z());
        buf.put_u8(k.level());
    }
    buf.put_u64_le(m.ranks() as u64);
    for &o in &m.offsets {
        buf.put_u64_le(o as u64);
    }
    for r in 0..m.ranks() {
        buf.put_u32_le(m.shard_crcs[r]);
        buf.put_u64_le(m.shard_lens[r]);
    }
    buf.seal().0
}

/// Deserialize and verify a manifest.
pub fn decode_manifest(data: Bytes) -> Result<DistManifest, CheckpointError> {
    check_prefix(&data, MANIFEST_MAGIC, MANIFEST_VERSION, "manifest magic + version")?;
    let mut data = unseal(data)?;
    data.advance(8);
    need(&data, 8 * 8 + 8, "manifest header")?;
    let mut min = [0.0; 3];
    let mut max = [0.0; 3];
    for m in min.iter_mut() {
        *m = data.get_f64_le();
    }
    for m in max.iter_mut() {
        *m = data.get_f64_le();
    }
    let time = data.get_f64_le();
    let steps_taken = data.get_u64_le();
    let n_leaves = data.get_u64_le() as usize;
    need(&data, n_leaves * 13, "manifest leaf keys")?;
    let mut leaves = Vec::with_capacity(n_leaves);
    for _ in 0..n_leaves {
        let x = data.get_u32_le();
        let y = data.get_u32_le();
        let z = data.get_u32_le();
        let l = data.get_u8();
        leaves.push(MortonKey::new(x, y, z, l));
    }
    need(&data, 8, "rank count")?;
    let ranks = data.get_u64_le() as usize;
    need(&data, (ranks + 1) * 8 + ranks * 12, "partition map + shard table")?;
    let offsets: Vec<usize> = (0..=ranks).map(|_| data.get_u64_le() as usize).collect();
    let mut shard_crcs = Vec::with_capacity(ranks);
    let mut shard_lens = Vec::with_capacity(ranks);
    for _ in 0..ranks {
        shard_crcs.push(data.get_u32_le());
        shard_lens.push(data.get_u64_le());
    }
    if offsets.last() != Some(&n_leaves) {
        return Err(CheckpointError::Inconsistent {
            what: format!(
                "partition map covers {:?} octants but the grid has {n_leaves}",
                offsets.last()
            ),
        });
    }
    Ok(DistManifest {
        domain: Domain { min, max },
        leaves,
        offsets,
        time,
        steps_taken,
        shard_crcs,
        shard_lens,
    })
}

/// Path of rank `r`'s shard inside a snapshot directory.
pub fn shard_path(dir: &str, rank: usize) -> String {
    format!("{dir}/shard_{rank:04}.gwsh")
}

/// Path of the snapshot manifest (the commit marker).
pub fn manifest_path(dir: &str) -> String {
    format!("{dir}/manifest.gwmf")
}

/// Phase 1 of the distributed commit: write one rank's shard, the
/// octants `h` names, atomically. `local` is the rank's storage, which
/// holds them first: octant `h.start_octant + i` in slot `i`. The shard
/// is encoded straight from the field's blocks in one pass. Returns the
/// body's CRC (the shard's seal trailer) and the file's byte length, for
/// the manifest.
pub fn write_shard(
    dir: &str,
    h: &ShardHeader,
    local: &Field,
) -> Result<(u32, u64), CheckpointError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| CheckpointError::Io { path: dir.into(), error: e.to_string() })?;
    let blocks = (0..h.n_octants).flat_map(|i| (0..NUM_VARS).map(move |v| local.block(v, i)));
    let (bytes, crc) = encode_shard_from(h, h.n_octants * NUM_VARS * BLOCK_VOLUME, blocks);
    write_atomic(&shard_path(dir, h.rank), bytes.as_slice())?;
    Ok((crc, bytes.len() as u64))
}

/// Phase 2 of the distributed commit: atomically rename the manifest
/// into place. Call only after every shard of this snapshot is durable —
/// the rename is the commit point.
pub fn commit_manifest(dir: &str, m: &DistManifest) -> Result<(), CheckpointError> {
    write_atomic(&manifest_path(dir), encode_manifest(m).as_slice())
}

/// Directory of the snapshot taken at `step`, under the snapshot root.
pub fn snapshot_dir(root: &str, step: u64) -> String {
    format!("{root}/step_{step:08}")
}

/// Find the newest *committed* snapshot under `root` (the one with the
/// highest step whose manifest exists). Snapshots are per-step
/// subdirectories, so a half-written newer snapshot never shadows or
/// clobbers the last committed one. Returns `None` when nothing has been
/// committed yet.
pub fn latest_snapshot(root: &str) -> Result<Option<String>, CheckpointError> {
    let rd = match std::fs::read_dir(root) {
        Ok(rd) => rd,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(CheckpointError::Io { path: root.into(), error: e.to_string() }),
    };
    let mut best: Option<(u64, String)> = None;
    for entry in rd.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(step) = name.strip_prefix("step_").and_then(|s| s.parse::<u64>().ok()) else {
            continue;
        };
        let sub = format!("{root}/{name}");
        if std::path::Path::new(&manifest_path(&sub)).exists()
            && best.as_ref().is_none_or(|(b, _)| step > *b)
        {
            best = Some((step, sub));
        }
    }
    Ok(best.map(|(_, p)| p))
}

/// A verified, reassembled distributed snapshot.
pub struct DistCheckpoint {
    pub manifest: DistManifest,
    /// The global state vector, reassembled from all shards.
    pub state: Field,
}

/// Load a distributed snapshot: read the manifest (absence ⇒ nothing was
/// committed), then verify every shard against the manifest's CRCs
/// before decoding it into the global state. Each shard body is
/// checksummed once, and its values are decoded straight into the
/// state's blocks. Any error is returned before partial state can escape.
pub fn load_distributed(dir: &str) -> Result<DistCheckpoint, CheckpointError> {
    let mpath = manifest_path(dir);
    let mbytes = match std::fs::read(&mpath) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(CheckpointError::ManifestMissing { dir: dir.into() })
        }
        Err(e) => return Err(CheckpointError::Io { path: mpath, error: e.to_string() }),
    };
    let manifest = decode_manifest(Bytes::from(mbytes))?;
    let n = manifest.leaves.len();
    let mut state = Field::zeros(NUM_VARS, n);
    for rank in 0..manifest.ranks() {
        let spath = shard_path(dir, rank);
        let sbytes = std::fs::read(&spath)
            .map_err(|e| CheckpointError::Io { path: spath.clone(), error: e.to_string() })?;
        if sbytes.len() as u64 != manifest.shard_lens[rank] {
            return Err(CheckpointError::ShardMismatch {
                rank,
                what: format!(
                    "byte length {} (manifest says {})",
                    sbytes.len(),
                    manifest.shard_lens[rank]
                ),
            });
        }
        let sbytes = Bytes::from(sbytes);
        check_prefix(&sbytes, SHARD_MAGIC, SHARD_VERSION, "shard magic + version")?;
        let (mut body, stored, computed) = split_sealed(sbytes)?;
        if computed != manifest.shard_crcs[rank] {
            return Err(CheckpointError::ShardMismatch {
                rank,
                what: format!(
                    "CRC {computed:#010x} (manifest says {:#010x})",
                    manifest.shard_crcs[rank]
                ),
            });
        }
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }
        let (h, _) = parse_shard_header(&mut body)?;
        let (lo, hi) = (manifest.offsets[rank], manifest.offsets[rank + 1]);
        if h.rank != rank || h.start_octant != lo || h.n_octants != hi - lo {
            return Err(CheckpointError::ShardMismatch {
                rank,
                what: format!("owns octants {:?} (manifest says {lo}..{hi})", h.octants()),
            });
        }
        if h.steps_taken != manifest.steps_taken {
            return Err(CheckpointError::ShardMismatch {
                rank,
                what: format!("step {} (manifest says {})", h.steps_taken, manifest.steps_taken),
            });
        }
        let mut words =
            body.chunk().chunks_exact(8).map(|b| f64::from_le_bytes(b.try_into().unwrap()));
        for oct in lo..hi {
            for var in 0..NUM_VARS {
                for (p, w) in state.block_mut(var, oct).iter_mut().zip(&mut words) {
                    *p = w;
                }
            }
        }
    }
    Ok(DistCheckpoint { manifest, state })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_bssn::init::LinearWaveData;

    fn demo_solver() -> GwSolver {
        let domain = Domain::centered_cube(8.0);
        let mut leaves = vec![MortonKey::root()];
        for _ in 0..2 {
            leaves = leaves.iter().flat_map(|k| k.children()).collect();
        }
        leaves.sort();
        let wave = LinearWaveData::new(1e-3, 0.0, 2.0, 1.0);
        GwSolver::new(SolverConfig::default(), Mesh::build(domain, &leaves), move |p, out| {
            wave.evaluate(p, out)
        })
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let mut s = demo_solver();
        s.step();
        s.step();
        let bytes = save(&s);
        let cp = load(bytes).unwrap();
        assert_eq!(cp.time, s.time);
        assert_eq!(cp.steps_taken, 2);
        assert_eq!(cp.leaves.len(), s.mesh.n_octants());
        assert_eq!(cp.state.as_slice(), s.state().as_slice());
    }

    #[test]
    fn restored_solver_continues_identically() {
        // Evolve 4 steps straight vs 2 steps + checkpoint/restore + 2
        // steps: bit-identical results.
        let mut a = demo_solver();
        for _ in 0..4 {
            a.step();
        }
        let mut b = demo_solver();
        b.step();
        b.step();
        let cp = load(save(&b)).unwrap();
        let mut c = restore(SolverConfig::default(), cp);
        c.step();
        c.step();
        assert_eq!(c.steps_taken, 4);
        assert!((c.time - a.time).abs() < 1e-14);
        for (x, y) in a.state().as_slice().iter().zip(c.state().as_slice().iter()) {
            assert_eq!(x, y, "restart must be bit-exact");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(load(Bytes::from_static(b"nonsense")).is_err());
        assert!(load(Bytes::from_static(b"xy")).is_err());
    }

    #[test]
    fn truncated_body_is_a_typed_error() {
        let mut s = demo_solver();
        s.step();
        let good = save(&s);
        // Cutting the file invalidates the CRC trailer (the last 4 bytes
        // of the cut are mid-body garbage): a checksum error, never a
        // partially-loaded checkpoint.
        let truncated = good.slice(..good.len() / 2);
        match load(truncated) {
            Err(CheckpointError::ChecksumMismatch { .. }) => {}
            other => panic!("expected ChecksumMismatch, got {other:?}", other = other.err()),
        }
        // Cut so short not even the header survives.
        match load(good.slice(..6)) {
            Err(CheckpointError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}", other = other.err()),
        }
    }

    #[test]
    fn flipped_crc_trailer_is_a_typed_error() {
        let mut s = demo_solver();
        s.step();
        let good = save(&s);
        let mut bad = good.as_slice().to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        match load(Bytes::from(bad)) {
            Err(CheckpointError::ChecksumMismatch { stored, computed }) => {
                assert_ne!(stored, computed);
            }
            other => panic!("expected ChecksumMismatch, got {other:?}", other = other.err()),
        }
    }

    #[test]
    fn detects_bit_rot() {
        let mut s = demo_solver();
        s.step();
        let good = save(&s);
        // Flip one bit in the middle of the state vector.
        let mut corrupt = good.as_slice().to_vec();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x10;
        match load(Bytes::from(corrupt)) {
            Err(CheckpointError::ChecksumMismatch { .. }) => {}
            other => panic!("corrupt checkpoint must not load: {other:?}", other = other.err()),
        }
    }

    #[test]
    fn bad_magic_is_a_typed_error() {
        // Valid CRC over a body whose magic is wrong: the magic check
        // must fire, not the checksum.
        let mut s = demo_solver();
        s.step();
        let good = save(&s);
        let mut bad = good.as_slice()[..good.len() - 4].to_vec();
        bad[0] ^= 0x01;
        let crc = crc32(&bad);
        bad.extend_from_slice(&crc.to_le_bytes());
        match load(Bytes::from(bad)) {
            Err(CheckpointError::BadMagic { expected, got }) => {
                assert_eq!(expected, MAGIC);
                assert_ne!(got, MAGIC);
            }
            other => panic!("expected BadMagic, got {other:?}", other = other.err()),
        }
    }

    #[test]
    fn v1_format_is_rejected_with_typed_error() {
        // A v1 file is the v2 body minus the CRC trailer, version field
        // rewritten to 1. It carries no integrity trailer, so it is
        // rejected — corruption in it would be undetectable.
        let mut s = demo_solver();
        s.step();
        let v2 = save(&s);
        let mut v1 = v2.as_slice()[..v2.len() - 4].to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        match load(Bytes::from(v1)) {
            Err(CheckpointError::UnsupportedVersion { got: 1, supported: 2 }) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}", other = other.err()),
        }
    }

    #[test]
    fn file_roundtrip() {
        let s = demo_solver();
        let path = std::env::temp_dir().join("gw_amr_test.ckpt");
        let path = path.to_str().unwrap();
        save_to_file(&s, path).unwrap();
        let cp = load_from_file(path).unwrap();
        assert_eq!(cp.state.as_slice(), s.state().as_slice());
        // No temp file left behind.
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn shard_roundtrip() {
        let shard = Shard {
            header: ShardHeader {
                rank: 2,
                start_octant: 10,
                n_octants: 1,
                time: 0.5,
                steps_taken: 7,
            },
            values: (0..NUM_VARS * BLOCK_VOLUME).map(|i| i as f64 * 0.25).collect(),
        };
        let back = decode_shard(encode_shard(&shard)).unwrap();
        assert_eq!(back, shard);
    }

    /// The blocks of `state`'s octants `h.octants()`, stored from slot 0
    /// as a rank stores its own.
    fn shard_storage(state: &Field, h: &ShardHeader) -> Field {
        let mut local = Field::zeros(NUM_VARS, h.n_octants);
        for (i, o) in h.octants().enumerate() {
            for v in 0..NUM_VARS {
                local.block_mut(v, i).copy_from_slice(state.block(v, o));
            }
        }
        local
    }

    /// Write the shards of `s`'s state split at `offsets` under `dir`,
    /// and return the manifest that would commit them.
    fn write_shards(dir: &str, s: &GwSolver, offsets: &[usize]) -> DistManifest {
        let state = s.state();
        let (mut crcs, mut lens) = (Vec::new(), Vec::new());
        for r in 0..offsets.len() - 1 {
            let h = ShardHeader {
                rank: r,
                start_octant: offsets[r],
                n_octants: offsets[r + 1] - offsets[r],
                time: s.time,
                steps_taken: s.steps_taken,
            };
            let (crc, len) = write_shard(dir, &h, &shard_storage(&state, &h)).unwrap();
            crcs.push(crc);
            lens.push(len);
        }
        DistManifest {
            domain: s.mesh.domain,
            leaves: s.mesh.octants.iter().map(|o| o.key).collect(),
            offsets: offsets.to_vec(),
            time: s.time,
            steps_taken: s.steps_taken,
            shard_crcs: crcs,
            shard_lens: lens,
        }
    }

    fn temp_dir(name: &str) -> String {
        let dir = std::env::temp_dir().join(name);
        let dir = dir.to_str().unwrap().to_string();
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn distributed_snapshot_commit_and_reload() {
        let mut s = demo_solver();
        s.step();
        let state = s.state();
        let n = s.mesh.n_octants();
        let dir = temp_dir("gw_amr_dist_ckpt_test");
        let manifest = write_shards(&dir, &s, &[0, n / 2, n]);
        // Before the manifest exists the snapshot is invisible.
        assert!(matches!(load_distributed(&dir), Err(CheckpointError::ManifestMissing { .. })));
        commit_manifest(&dir, &manifest).unwrap();
        let cp = load_distributed(&dir).unwrap();
        assert_eq!(cp.manifest.steps_taken, 1);
        assert_eq!(cp.state.as_slice(), state.as_slice());
        // A corrupted shard is caught against the manifest CRC.
        let spath = shard_path(&dir, 1);
        let mut bytes = std::fs::read(&spath).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&spath, &bytes).unwrap();
        assert!(matches!(
            load_distributed(&dir),
            Err(CheckpointError::ShardMismatch { rank: 1, .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_crcs_bind_shard_contents() {
        // Each manifest CRC is its shard's seal trailer: different bodies
        // get different CRCs (the CRC of a whole sealed file would be the
        // same constant for both).
        let mut s = demo_solver();
        s.step();
        let n = s.mesh.n_octants();
        let dir = temp_dir("gw_amr_dist_ckpt_crcs");
        let m = write_shards(&dir, &s, &[0, n / 2, n]);
        assert_eq!(m.shard_lens[0], m.shard_lens[1]);
        assert_ne!(m.shard_crcs[0], m.shard_crcs[1]);
        for r in 0..2 {
            let file = std::fs::read(shard_path(&dir, r)).unwrap();
            let (body, trailer) = file.split_at(file.len() - 4);
            assert_eq!(m.shard_crcs[r], crc32(body));
            assert_eq!(m.shard_crcs[r].to_le_bytes(), trailer);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn swapped_in_sealed_shard_is_rejected() {
        // A validly sealed shard of the right length, from another rank or
        // another step, passes its own trailer check; the manifest CRC is
        // what rejects it. The last stranger carries the victim's exact
        // header over another step's values, so only the CRC can tell.
        let mut s = demo_solver();
        s.step();
        let n = s.mesh.n_octants();
        let offsets = [0, n / 2, n];
        let (dir, later) =
            (temp_dir("gw_amr_dist_ckpt_swap"), temp_dir("gw_amr_dist_ckpt_swap_later"));
        commit_manifest(&dir, &write_shards(&dir, &s, &offsets)).unwrap();
        let victim = ShardHeader {
            rank: 1,
            start_octant: n / 2,
            n_octants: n - n / 2,
            time: s.time,
            steps_taken: s.steps_taken,
        };
        s.step();
        write_shards(&later, &s, &offsets);
        let forged = temp_dir("gw_amr_dist_ckpt_swap_forged");
        write_shard(&forged, &victim, &shard_storage(&s.state(), &victim)).unwrap();
        let own = std::fs::read(shard_path(&dir, 1)).unwrap();
        for stranger in [shard_path(&dir, 0), shard_path(&later, 1), shard_path(&forged, 1)] {
            let bytes = std::fs::read(&stranger).unwrap();
            assert_eq!(bytes.len(), own.len(), "{stranger} has the victim's length");
            assert!(decode_shard(Bytes::from(bytes.clone())).is_ok(), "{stranger} is sealed");
            std::fs::write(shard_path(&dir, 1), &bytes).unwrap();
            match load_distributed(&dir) {
                Err(CheckpointError::ShardMismatch { rank: 1, what }) => {
                    assert!(what.starts_with("CRC"), "{stranger}: {what}");
                }
                other => panic!("{stranger} must not load: {:?}", other.err()),
            }
        }
        std::fs::write(shard_path(&dir, 1), &own).unwrap();
        assert!(load_distributed(&dir).is_ok(), "the original shard loads again");
        for d in [dir, later, forged] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn v1_manifest_is_rejected_with_typed_error() {
        // A v1 manifest recorded sealed-file CRCs, which bind nothing: it
        // is rejected even when its own seal is intact.
        let s = demo_solver();
        let n = s.mesh.n_octants();
        let dir = temp_dir("gw_amr_dist_ckpt_v1");
        let v2 = encode_manifest(&write_shards(&dir, &s, &[0, n]));
        let mut v1 = v2.as_slice()[..v2.len() - 4].to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let crc = crc32(&v1);
        v1.extend_from_slice(&crc.to_le_bytes());
        match decode_manifest(Bytes::from(v1)) {
            Err(CheckpointError::UnsupportedVersion { got: 1, supported: 2 }) => {}
            other => panic!("expected UnsupportedVersion, got {:?}", other.err()),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
