//! The sharded mmap CSR store and its crash-safe streaming builder.
//!
//! [`ShardedCsr`] serves the exact CSR arrays a [`Graph`] holds in RAM —
//! per-vertex `(neighbor, edge)` incidence runs, per-edge endpoint pairs,
//! and the offset table — from files under a directory, mapped with
//! `memmap2` and paged in on demand. It implements
//! [`GraphView`](crate::subgraph::GraphView), so the LOCAL cost ledger
//! and every recursive pipeline run **unmodified** on graphs that do not fit
//! comfortably in RAM. `open` validates the store against its manifest
//! (see [`super::manifest`]) and surfaces [`GraphError::Corrupt`] instead
//! of mmapping garbage; [`ShardedCsr::verify`] additionally recomputes
//! every file checksum.
//!
//! [`ShardedCsrBuilder`] builds the files **streaming** with a defined
//! durability order (spool → offsets → adjacency → manifest, each step
//! fsynced before the next depends on it; manifest written last and
//! atomically). With a journal cadence ([`BuildOptions::journal_every`])
//! the builder checkpoints its endpoint spool so an interrupted build
//! [`resume`](ShardedCsrBuilder::resume)s at the last durable batch, and
//! every durability step consults an optional [`FaultPlan`] so the
//! crash-recovery suite can kill the build between any two steps.

use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};

use memmap2::{Mmap, MmapMut};

use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::{EdgeId, VertexId};
use crate::num;
use crate::subgraph::GraphView;

use super::checksum::crc32;
use super::fault::{barrier, FaultPlan};
use super::io_err;
use super::journal::{BuildJournal, EdgeCrc, JOURNAL_FILE};
use super::manifest::{FileRecord, Manifest, MANIFEST_FILE};
use super::record::read_word;
use super::writer::{fsync_dir, FileWriter, WRITER_BUF};

/// Default shard size: 2^24 entries = 128 MiB per shard file.
pub const DEFAULT_SHARD_BITS: u32 = 24;

/// Bytes per stored entry (both adjacency slots and endpoint pairs pack
/// two u32 words).
const ENTRY: usize = 8;

/// Splits a packed entry into its two u32 words.
#[inline]
fn unpack(chunk: &[u8]) -> (u32, u32) {
    (
        u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]),
        u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]),
    )
}

/// A read-only sharded mmap-backed CSR graph (see the module docs).
///
/// ```rust
/// use decolor_graph::storage::{ScratchDir, ShardedCsr};
/// use decolor_graph::subgraph::GraphView;
/// let g = decolor_graph::generators::gnm(100, 400, 7).unwrap();
/// // Declared first, so it drops (and removes the files) after `sc`.
/// let dir = ScratchDir::new(&std::env::temp_dir(), "decolor-csr-doc");
/// let sc = ShardedCsr::from_graph(dir.path(), &g).unwrap();
/// assert_eq!(sc.num_edges(), 400);
/// assert_eq!(GraphView::max_degree(&sc), g.max_degree());
/// sc.verify().unwrap();
/// ```
#[derive(Debug)]
pub struct ShardedCsr {
    dir: PathBuf,
    manifest: Manifest,
    n: usize,
    m: usize,
    max_degree: usize,
    shard_bits: u32,
    offsets: Mmap,
    adj: Vec<Mmap>,
    endpoints: Vec<Mmap>,
}

impl ShardedCsr {
    /// Opens an existing on-disk CSR directory, validating the manifest's
    /// self-checksum and every data file's length (the cheap pass; full
    /// checksums are behind [`ShardedCsr::verify`]).
    ///
    /// # Errors
    ///
    /// [`GraphError::Corrupt`] for a missing/malformed manifest, a legacy
    /// v1 store, implausible header fields, or any length mismatch;
    /// [`GraphError::Io`] for unmappable files.
    pub fn open(dir: impl AsRef<Path>) -> Result<ShardedCsr, GraphError> {
        let dir = dir.as_ref().to_path_buf();
        let manifest = Manifest::load(&dir)?;
        let corrupt = |reason: String| GraphError::corrupt(&dir, reason);
        if !(4..=40).contains(&manifest.shard_bits) {
            return Err(corrupt(format!(
                "implausible shard_bits {}",
                manifest.shard_bits
            )));
        }
        if manifest.n > 1 << 48 || manifest.m > 1 << 48 {
            return Err(corrupt(format!(
                "implausible graph header n = {}, m = {}",
                manifest.n, manifest.m
            )));
        }
        let (n, m) = (num::to_usize(manifest.n)?, num::to_usize(manifest.m)?);
        let shard_bits = u32::try_from(manifest.shard_bits)
            .map_err(|_| corrupt(format!("implausible shard_bits {}", manifest.shard_bits)))?;
        let entries = 1usize << shard_bits;
        let shard_count = |e: usize| e.div_ceil(entries).max(1);
        let shard_len = |k: usize, shards: usize, e: usize| -> Result<u64, GraphError> {
            let cnt = if k + 1 < shards {
                entries
            } else {
                e - num::mul(k, entries)?
            };
            Ok(num::to_u64(num::byte_len(cnt, ENTRY)?))
        };
        let want_offsets = num::to_u64(num::byte_len(num::add(n, 1)?, 8)?);
        if manifest.offsets.len != want_offsets {
            return Err(corrupt(format!(
                "manifest records {} offset bytes, expected {want_offsets}",
                manifest.offsets.len
            )));
        }
        for (name, recs, e) in [("ep", &manifest.ep, m), ("adj", &manifest.adj, 2 * m)] {
            if recs.len() != shard_count(e) {
                return Err(corrupt(format!(
                    "manifest records {} {name} shards, expected {}",
                    recs.len(),
                    shard_count(e)
                )));
            }
            for (k, rec) in recs.iter().enumerate() {
                let want = shard_len(k, recs.len(), e)?;
                if rec.len != want {
                    return Err(corrupt(format!(
                        "manifest records {} bytes for {name}.{k}, expected {want}",
                        rec.len
                    )));
                }
            }
        }
        // Every recorded length is now self-consistent; require the files
        // on disk to match before mapping a single byte.
        manifest.validate_lengths(&dir)?;
        let map_file = |path: &Path| -> Result<Mmap, GraphError> {
            let f = File::open(path).map_err(|e| io_err("cannot open", path, e))?;
            Mmap::map(&f).map_err(|e| io_err("cannot map", path, e))
        };
        let offsets = map_file(&dir.join("offsets.bin"))?;
        let mut adj = Vec::with_capacity(manifest.adj.len());
        for k in 0..manifest.adj.len() {
            adj.push(map_file(&dir.join(format!("adj.{k}")))?);
        }
        let mut endpoints = Vec::with_capacity(manifest.ep.len());
        for k in 0..manifest.ep.len() {
            endpoints.push(map_file(&dir.join(format!("ep.{k}")))?);
        }
        let max_degree = num::to_usize(manifest.max_degree)?;
        let sc = ShardedCsr {
            dir,
            manifest,
            n,
            m,
            max_degree,
            shard_bits,
            offsets,
            adj,
            endpoints,
        };
        if sc.n > 0 && sc.offset(sc.n) != 2 * num::to_u64(sc.m) {
            return Err(GraphError::corrupt(
                &sc.dir,
                format!(
                    "offset table ends at {} but 2m = {}",
                    sc.offset(sc.n),
                    2 * sc.m
                ),
            ));
        }
        Ok(sc)
    }

    /// Full integrity pass: recomputes the CRC32 of every data file and
    /// compares it against the manifest. Reads every byte of the store —
    /// this is the `store verify` / `--verify` slow path, deliberately
    /// not part of [`ShardedCsr::open`].
    ///
    /// # Errors
    ///
    /// [`GraphError::Corrupt`] naming the first mismatching file.
    pub fn verify(&self) -> Result<(), GraphError> {
        self.manifest.verify_checksums(&self.dir)
    }

    /// Spills an in-memory [`Graph`] to `dir` and opens it — the parity
    /// bridge used by tests, benches, and the CLI's `--backend mmap`.
    ///
    /// # Errors
    ///
    /// As [`ShardedCsrBuilder`].
    pub fn from_graph(dir: impl AsRef<Path>, g: &Graph) -> Result<ShardedCsr, GraphError> {
        let mut b = ShardedCsrBuilder::create(dir, g.num_vertices())?;
        for (_, [u, v]) in g.edge_list() {
            b.push_edge(u.index(), v.index())?;
        }
        b.finish()
    }

    /// The directory holding the shard files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The validated manifest this store was opened against.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// CSR offset of vertex `v` (entry `v` of the offset table; `v <= n`
    /// and `offsets.bin` holds `n + 1` words, validated at `open()`).
    #[inline]
    fn offset(&self, v: usize) -> u64 {
        read_word(&self.offsets, v)
    }

    /// The packed entry at global index `i` of the sharded array `maps`.
    #[inline]
    fn entry(&self, maps: &[Mmap], i: u64) -> (u32, u32) {
        // lint: allow(cast, "i >> shard_bits is below the shard count open() validated, so it fits usize")
        let shard = (i >> self.shard_bits) as usize;
        // lint: allow(cast, "masked to < 2^shard_bits entries, which open() validated to fit a mapped shard")
        let within = (i & ((1u64 << self.shard_bits) - 1)) as usize;
        // lint: allow(arith, "within * ENTRY + ENTRY <= the shard byte length validated at open()")
        unpack(&maps[shard][within * ENTRY..within * ENTRY + ENTRY])
    }
}

impl GraphView for ShardedCsr {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.n
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.m
    }

    #[inline]
    fn endpoints(&self, e: EdgeId) -> [VertexId; 2] {
        let (lo, hi) = self.entry(&self.endpoints, num::to_u64(e.index()));
        [
            VertexId::new(num::usize_from(lo)),
            VertexId::new(num::usize_from(hi)),
        ]
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        // lint: allow(cast, "a degree is at most 2m, which open() converted to usize successfully")
        (self.offset(v.index() + 1) - self.offset(v.index())) as usize
    }

    #[inline]
    fn max_degree(&self) -> usize {
        self.max_degree
    }

    #[inline]
    fn to_parent_edge(&self, local: EdgeId) -> EdgeId {
        local
    }

    #[inline]
    fn for_each_incident_edge(&self, v: VertexId, mut f: impl FnMut(EdgeId)) {
        self.for_each_port(v, |_, e| f(e));
    }

    fn for_each_port(&self, v: VertexId, mut f: impl FnMut(VertexId, EdgeId)) {
        let mut cur = self.offset(v.index());
        let end = self.offset(v.index() + 1);
        // Walk the incidence run shard segment by shard segment; a
        // vertex's run may straddle a shard boundary.
        // Segment arithmetic is bounded by the shard geometry open()
        // validated: cur - base < 2^shard_bits, every shard's byte length
        // equals its entry count * ENTRY, and offsets end at 2m.
        while cur < end {
            // lint: allow(cast, "cur >> shard_bits is below the open()-validated shard count")
            let shard = (cur >> self.shard_bits) as usize;
            let base = num::to_u64(shard) << self.shard_bits;
            // lint: allow(arith, "base + 2^shard_bits <= 2m rounded up to a shard, far below u64::MAX")
            let seg_end = end.min(base + (1u64 << self.shard_bits));
            // lint: allow(cast, "cur - base < 2^shard_bits entries, which fits the mapped shard") lint: allow(arith, "segment byte range is within the open()-validated shard length")
            let lo = (cur - base) as usize * ENTRY;
            // lint: allow(cast, "seg_end - base <= 2^shard_bits entries, which fits the mapped shard") lint: allow(arith, "segment byte range is within the open()-validated shard length")
            let hi = (seg_end - base) as usize * ENTRY;
            for chunk in self.adj[shard][lo..hi].chunks_exact(ENTRY) {
                let (u, e) = unpack(chunk);
                f(
                    VertexId::new(num::usize_from(u)),
                    EdgeId::new(num::usize_from(e)),
                );
            }
            cur = seg_end;
        }
    }

    fn port(&self, v: VertexId, p: usize) -> Option<(VertexId, EdgeId)> {
        let start = self.offset(v.index());
        let end = self.offset(v.index() + 1);
        let slot = start + num::to_u64(p);
        if slot >= end {
            return None;
        }
        let (u, e) = self.entry(&self.adj, slot);
        Some((
            VertexId::new(num::usize_from(u)),
            EdgeId::new(num::usize_from(e)),
        ))
    }
}

/// Build-time knobs for [`ShardedCsrBuilder`].
#[derive(Clone, Copy, Debug)]
pub struct BuildOptions {
    /// Shard size exponent: 2^`shard_bits` entries per shard file
    /// (clamped to ≥ 4; tests use tiny shards to exercise straddling).
    pub shard_bits: u32,
    /// Journal cadence in edges: every `journal_every` pushed edges the
    /// spool is fsynced and the build journal updated, making the build
    /// resumable at that point. `0` disables journaling (the default) —
    /// an aborted build then cleans up after itself instead.
    pub journal_every: usize,
}

impl Default for BuildOptions {
    fn default() -> BuildOptions {
        BuildOptions {
            shard_bits: DEFAULT_SHARD_BITS,
            journal_every: 0,
        }
    }
}

/// Streaming builder for a [`ShardedCsr`] (see the module docs).
///
/// Edges are validated like [`GraphBuilder`](crate::GraphBuilder) —
/// in-range, no self-loops — but **not** deduplicated: the streaming
/// sources (generators, an in-memory `Graph`) already guarantee
/// simplicity, and a dedup set would reintroduce the O(m) RAM this
/// backend exists to avoid. Parallel edges are representable, exactly as
/// in [`Graph`].
///
/// Dropping an unfinished non-journaled builder removes the partial
/// shard files it created (an aborted n = 10⁸ build would otherwise
/// leave ~10 GB behind); a successful [`finish`](ShardedCsrBuilder::finish)
/// disarms the guard, journaled builds keep their partial state on disk
/// by design (it is what [`resume`](ShardedCsrBuilder::resume) consumes),
/// and [`keep_partial_on_drop`](ShardedCsrBuilder::keep_partial_on_drop)
/// opts out explicitly (the crash tests use it to model a hard kill,
/// where no destructor runs either).
#[derive(Debug)]
pub struct ShardedCsrBuilder {
    dir: PathBuf,
    n: usize,
    shard_bits: u32,
    m: usize,
    degree: Vec<u32>,
    /// Open writer for the current endpoint shard.
    ep: Option<FileWriter>,
    /// Index of the endpoint shard `ep` appends to.
    ep_shard: usize,
    /// Journal cadence in edges (0 = journaling disabled).
    journal_every: usize,
    /// Edges covered by the last durable journal write.
    durable_edges: usize,
    /// Rolling CRC over every spooled endpoint record.
    stream_crc: EdgeCrc,
    /// Resume replay: edges still to skip before new edges are accepted.
    skip: usize,
    /// Rolling CRC over the replayed (skipped) edges.
    replay_crc: EdgeCrc,
    /// The journaled prefix CRC the replay must reproduce.
    expected_prefix_crc: u32,
    faults: Option<FaultPlan>,
    /// Remove partial files on drop (non-journaled, unfinished builds).
    cleanup_armed: bool,
    /// Whether this builder created the directory itself.
    created_dir: bool,
}

impl ShardedCsrBuilder {
    /// Creates (or truncates) the storage directory for a graph on `n`
    /// vertices with the default options.
    ///
    /// # Errors
    ///
    /// [`GraphError::Io`] if the directory cannot be created.
    pub fn create(dir: impl AsRef<Path>, n: usize) -> Result<ShardedCsrBuilder, GraphError> {
        Self::with_options(dir, n, BuildOptions::default())
    }

    /// [`ShardedCsrBuilder::create`] with an explicit shard size of
    /// 2^`shard_bits` entries.
    ///
    /// # Errors
    ///
    /// [`GraphError::Io`] if the directory cannot be created.
    pub fn with_shard_bits(
        dir: impl AsRef<Path>,
        n: usize,
        shard_bits: u32,
    ) -> Result<ShardedCsrBuilder, GraphError> {
        Self::with_options(
            dir,
            n,
            BuildOptions {
                shard_bits,
                ..BuildOptions::default()
            },
        )
    }

    /// [`ShardedCsrBuilder::create`] with explicit [`BuildOptions`].
    ///
    /// # Errors
    ///
    /// [`GraphError::Io`] if the directory or initial files cannot be
    /// created.
    pub fn with_options(
        dir: impl AsRef<Path>,
        n: usize,
        opts: BuildOptions,
    ) -> Result<ShardedCsrBuilder, GraphError> {
        let dir = dir.as_ref().to_path_buf();
        // The spool packs endpoints as u32 pairs, so every vertex id must
        // fit u32 — validating here once keeps the per-edge hot path free
        // of conversion checks.
        if n > num::usize_from(u32::MAX) {
            return Err(GraphError::InvalidParameters {
                reason: format!("vertex count {n} exceeds u32 identifiers"),
            });
        }
        let created_dir = !dir.exists();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("cannot create", &dir, e))?;
        // The manifest is written *last* by finish() and marks a complete
        // store; a stale one from a previous build in the same directory
        // must not survive into a half-finished rebuild. Same for a stale
        // journal or legacy v1 metadata.
        for stale in [MANIFEST_FILE, JOURNAL_FILE, "meta.bin"] {
            let p = dir.join(stale);
            if p.exists() {
                std::fs::remove_file(&p).map_err(|e| io_err("cannot remove", &p, e))?;
            }
        }
        let journal_every = opts.journal_every;
        let mut b = ShardedCsrBuilder {
            dir,
            n,
            shard_bits: opts.shard_bits.max(4),
            m: 0,
            degree: vec![0u32; n],
            ep: None,
            ep_shard: 0,
            journal_every,
            durable_edges: 0,
            stream_crc: EdgeCrc::default(),
            skip: 0,
            replay_crc: EdgeCrc::default(),
            expected_prefix_crc: 0,
            faults: None,
            cleanup_armed: journal_every == 0,
            created_dir,
        };
        b.ep = Some(FileWriter::create(b.dir.join("ep.0"), "ep.0")?);
        if b.journal_every > 0 {
            // An initial durable journal makes even a build killed before
            // its first checkpoint resumable (at zero edges).
            b.checkpoint()?;
        }
        Ok(b)
    }

    /// Resumes an interrupted journaled build from its last durable
    /// checkpoint. The caller then replays the **same deterministic edge
    /// stream from the beginning**: the first `durable` edges are
    /// validated and checksummed but not rewritten, and the stream CRC
    /// must reproduce the journaled prefix CRC — a diverging replay is a
    /// typed [`GraphError::Corrupt`], never a silently wrong store.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] if the directory already holds a
    /// complete store; [`GraphError::Corrupt`] for a missing/torn journal
    /// or a spool shorter than (or disagreeing with) the journaled
    /// prefix; [`GraphError::Io`] for filesystem failures.
    pub fn resume(dir: impl AsRef<Path>) -> Result<ShardedCsrBuilder, GraphError> {
        let dir = dir.as_ref().to_path_buf();
        if dir.join(MANIFEST_FILE).exists() {
            return Err(GraphError::InvalidParameters {
                reason: format!(
                    "{} already holds a complete store; open it instead of resuming",
                    dir.display()
                ),
            });
        }
        let j = BuildJournal::load(&dir)?
            .ok_or_else(|| GraphError::corrupt(&dir, "no build journal to resume from"))?;
        if j.n > 1 << 48
            || !(4..=40).contains(&j.shard_bits)
            || j.durable_edges > u64::from(u32::MAX)
        {
            return Err(GraphError::corrupt(
                &dir.join(JOURNAL_FILE),
                format!(
                    "implausible journal header n = {}, shard_bits = {}, durable_edges = {}",
                    j.n, j.shard_bits, j.durable_edges
                ),
            ));
        }
        let n = num::to_usize(j.n)?;
        let shard_bits = u32::try_from(j.shard_bits).map_err(|_| {
            GraphError::corrupt(
                &dir.join(JOURNAL_FILE),
                format!("journal shard_bits {} does not fit u32", j.shard_bits),
            )
        })?;
        let entries = 1usize << shard_bits;
        let durable = num::to_usize(j.durable_edges)?;
        let boundary = if durable == 0 {
            0
        } else {
            (durable - 1) / entries
        };

        // Re-derive the degree counts and prefix CRC from the durable
        // spool, validating every record on the way back in.
        let mut degree = vec![0u32; n];
        let mut crc = EdgeCrc::default();
        let mut buf = vec![0u8; WRITER_BUF];
        for k in 0..=boundary {
            if durable == 0 {
                break;
            }
            let need = if k < boundary {
                entries
            } else {
                durable - num::mul(k, entries)?
            };
            let need_bytes = num::byte_len(need, ENTRY)?;
            let path = dir.join(format!("ep.{k}"));
            let mut f = File::open(&path).map_err(|e| match e.kind() {
                std::io::ErrorKind::NotFound => {
                    GraphError::corrupt(&path, "journaled spool shard is missing")
                }
                _ => io_err("cannot open", &path, e),
            })?;
            let mut left = need_bytes;
            while left > 0 {
                let take = buf.len().min(left);
                f.read_exact(&mut buf[..take]).map_err(|e| match e.kind() {
                    std::io::ErrorKind::UnexpectedEof => GraphError::corrupt(
                        &path,
                        "spool shard shorter than the journaled durable prefix",
                    ),
                    _ => io_err("cannot read", &path, e),
                })?;
                for chunk in buf[..take].chunks_exact(ENTRY) {
                    let (lo, hi) = unpack(chunk);
                    if lo >= hi || num::usize_from(hi) >= n {
                        return Err(GraphError::corrupt(
                            &path,
                            format!("spooled endpoint pair ({lo}, {hi}) is invalid for n = {n}"),
                        ));
                    }
                    degree[num::usize_from(lo)] += 1;
                    degree[num::usize_from(hi)] += 1;
                    crc.update(lo, hi);
                }
                left -= take;
            }
            drop(f);
            if k == boundary {
                // Truncate any torn tail past the durable boundary.
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| io_err("cannot open", &path, e))?;
                f.set_len(num::to_u64(need_bytes))
                    .map_err(|e| io_err("cannot truncate", &path, e))?;
                f.sync_all().map_err(|e| io_err("cannot fsync", &path, e))?;
            }
        }
        if crc.finish() != j.prefix_crc {
            return Err(GraphError::corrupt(
                &dir,
                format!(
                    "durable spool checksum {:#010x} does not match journaled prefix {:#010x}",
                    crc.finish(),
                    j.prefix_crc
                ),
            ));
        }

        // Drop every artifact past the durable prefix: later spool
        // shards, any half-written pass-2 output, staged tmp files.
        // lint: allow(arith, "boundary <= durable / entries < 2^32, nowhere near usize::MAX")
        for k in boundary + 1.. {
            let stale = dir.join(format!("ep.{k}"));
            if !stale.exists() {
                break;
            }
            std::fs::remove_file(&stale).map_err(|e| io_err("cannot remove", &stale, e))?;
        }
        for k in 0.. {
            let stale = dir.join(format!("adj.{k}"));
            if !stale.exists() {
                break;
            }
            std::fs::remove_file(&stale).map_err(|e| io_err("cannot remove", &stale, e))?;
        }
        for stale in [
            "offsets.bin",
            "offsets.bin.tmp",
            "manifest.bin.tmp",
            "journal.bin.tmp",
        ] {
            let p = dir.join(stale);
            if p.exists() {
                std::fs::remove_file(&p).map_err(|e| io_err("cannot remove", &p, e))?;
            }
        }

        let ep = if durable == 0 {
            FileWriter::create(dir.join("ep.0"), "ep.0")?
        } else {
            FileWriter::append(
                dir.join(format!("ep.{boundary}")),
                &format!("ep.{boundary}"),
            )?
        };
        Ok(ShardedCsrBuilder {
            dir,
            n,
            shard_bits,
            m: durable,
            degree,
            ep: Some(ep),
            ep_shard: boundary,
            journal_every: num::to_usize(j.journal_every)?.max(1),
            durable_edges: durable,
            stream_crc: crc,
            skip: durable,
            replay_crc: EdgeCrc::default(),
            expected_prefix_crc: j.prefix_crc,
            faults: None,
            cleanup_armed: false,
            created_dir: false,
        })
    }

    /// Installs a fault plan consulted at every durability step (tests).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Disarms the partial-file cleanup guard: an unfinished builder
    /// leaves its files behind on drop, as a hard kill would.
    pub fn keep_partial_on_drop(&mut self) {
        self.cleanup_armed = false;
    }

    /// Number of vertices this builder was created with.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges streamed so far (after a resume this starts at the
    /// journaled durable count).
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Edges covered by the last durable journal checkpoint.
    pub fn durable_edges(&self) -> usize {
        self.durable_edges
    }

    /// Edges a resumed builder still expects to replay before new edges
    /// are written (0 once the replay is complete, or when not resuming).
    pub fn pending_replay(&self) -> usize {
        self.skip
    }

    fn shard_entries(&self) -> usize {
        1usize << self.shard_bits
    }

    /// Closes the current spool shard and opens shard `k`.
    fn roll_to_shard(&mut self, k: usize) -> Result<(), GraphError> {
        if let Some(w) = self.ep.as_mut() {
            if self.journal_every > 0 {
                w.sync(self.faults.as_ref())?;
            } else {
                w.flush(self.faults.as_ref())?;
            }
        }
        self.ep = Some(FileWriter::create(
            self.dir.join(format!("ep.{k}")),
            &format!("ep.{k}"),
        )?);
        self.ep_shard = k;
        Ok(())
    }

    /// Makes the spool durable and journals the current edge count.
    fn checkpoint(&mut self) -> Result<(), GraphError> {
        if let Some(w) = self.ep.as_mut() {
            w.sync(self.faults.as_ref())?;
        }
        let j = BuildJournal {
            n: num::to_u64(self.n),
            shard_bits: u64::from(self.shard_bits),
            journal_every: num::to_u64(self.journal_every),
            durable_edges: num::to_u64(self.m),
            prefix_crc: self.stream_crc.finish(),
        };
        j.store(&self.dir, self.faults.as_ref())?;
        self.durable_edges = self.m;
        Ok(())
    }

    /// Streams one undirected edge `{u, v}` into the store.
    ///
    /// After a [`resume`](ShardedCsrBuilder::resume), the first
    /// `durable_edges` calls replay the journaled prefix: they are
    /// validated and checksummed but not rewritten.
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] / [`GraphError::SelfLoop`] as the
    /// in-memory builder; [`GraphError::InvalidParameters`] past `u32`
    /// edge ids; [`GraphError::Corrupt`] if a resumed replay diverges
    /// from the journaled prefix; [`GraphError::Io`] on write failure.
    pub fn push_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        if u >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: u,
                n: self.n,
            });
        }
        if v >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                n: self.n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        let (lo, hi) = if u < v { (u, v) } else { (v, u) };
        // lint: allow(cast, "lo < hi < n <= u32::MAX, validated at create(), so both ids fit u32")
        let (lo32, hi32) = (lo as u32, hi as u32);
        if self.skip > 0 {
            self.replay_crc.update(lo32, hi32);
            self.skip -= 1;
            if self.skip == 0 && self.replay_crc.finish() != self.expected_prefix_crc {
                return Err(GraphError::corrupt(
                    &self.dir,
                    format!(
                        "resumed edge stream diverges from the journaled prefix \
                         (replay checksum {:#010x}, journal {:#010x})",
                        self.replay_crc.finish(),
                        self.expected_prefix_crc
                    ),
                ));
            }
            return Ok(());
        }
        if self.m >= num::usize_from(u32::MAX) {
            return Err(GraphError::InvalidParameters {
                reason: "edge count exceeds u32 identifiers".into(),
            });
        }
        let shard = self.m / self.shard_entries();
        if shard != self.ep_shard {
            self.roll_to_shard(shard)?;
        }
        let w = self.ep.as_mut().ok_or_else(|| GraphError::Io {
            reason: format!(
                "no endpoint shard writer open under {} (builder already finished?)",
                self.dir.display()
            ),
        })?;
        let mut rec = [0u8; ENTRY];
        rec[0..4].copy_from_slice(&lo32.to_le_bytes());
        rec[4..8].copy_from_slice(&hi32.to_le_bytes());
        w.write(&rec, self.faults.as_ref())?;
        self.stream_crc.update(lo32, hi32);
        self.degree[lo] += 1;
        self.degree[hi] += 1;
        self.m += 1;
        if self.journal_every > 0 && self.m.is_multiple_of(self.journal_every) {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Discards everything streamed so far, restarting the build (used by
    /// generators whose repair pass can abandon an attempt).
    ///
    /// # Errors
    ///
    /// [`GraphError::Io`] on file truncation failure.
    pub fn reset(&mut self) -> Result<(), GraphError> {
        // Later finish() only reads/writes files named in the manifest, so
        // truncating shard 0 and restarting the counters suffices; stale
        // higher shards are overwritten or pruned.
        self.m = 0;
        self.degree.iter_mut().for_each(|d| *d = 0);
        self.stream_crc = EdgeCrc::default();
        self.skip = 0;
        self.replay_crc = EdgeCrc::default();
        self.ep = Some(FileWriter::create(self.dir.join("ep.0"), "ep.0")?);
        self.ep_shard = 0;
        if self.journal_every > 0 {
            self.durable_edges = 0;
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Finalizes the store: fsyncs the spool, writes the offset table
    /// (tmp → fsync → atomic rename), scatters the adjacency shards
    /// (pass 2 over the spooled endpoints, identical order to
    /// `Graph::from_parts`), msyncs them, then atomically writes the
    /// manifest — whose presence marks the store complete — and removes
    /// the journal. Opens the result read-only.
    ///
    /// # Errors
    ///
    /// [`GraphError::Io`] on any file operation failure;
    /// [`GraphError::Corrupt`] if a resumed replay is still incomplete or
    /// a spool shard disagrees with the build counters.
    pub fn finish(mut self) -> Result<ShardedCsr, GraphError> {
        if self.skip > 0 {
            return Err(GraphError::corrupt(
                &self.dir,
                format!(
                    "resumed build finished after replaying only {} of {} journaled edges",
                    self.m - self.skip,
                    self.m
                ),
            ));
        }
        if self.journal_every > 0 {
            self.checkpoint()?;
        } else if let Some(w) = self.ep.as_mut() {
            w.flush(self.faults.as_ref())?;
        }
        self.ep = None;
        let faults = self.faults.clone();
        let faults = faults.as_ref();
        let entries = self.shard_entries();

        // Offset table + scatter cursors from the degree counts, staged
        // and committed into place once durable.
        let mut cursor: Vec<u64> = Vec::with_capacity(self.n);
        let mut max_degree = 0usize;
        let offsets_rec = {
            let mut w = FileWriter::stage(&self.dir.join("offsets.bin"), "offsets")?;
            let mut acc = 0u64;
            w.write(&acc.to_le_bytes(), faults)?;
            for &d in &self.degree {
                cursor.push(acc);
                acc = num::add_offset(acc, u64::from(d))?;
                max_degree = max_degree.max(num::usize_from(d));
                w.write(&acc.to_le_bytes(), faults)?;
            }
            let crc = w.take_crc();
            w.commit(faults)?;
            FileRecord {
                len: num::to_u64(num::byte_len(num::add(self.n, 1)?, 8)?),
                crc,
            }
        };

        // Create and map the adjacency shards read-write.
        let adj_slots = 2 * self.m;
        let adj_shards = adj_slots.div_ceil(entries).max(1);
        let mut adj_maps: Vec<(File, MmapMut)> = Vec::with_capacity(adj_shards);
        for k in 0..adj_shards {
            let len = if k + 1 < adj_shards {
                entries
            } else {
                adj_slots - num::mul(k, entries)?
            };
            let path = self.dir.join(format!("adj.{k}"));
            barrier(faults, &format!("adj.{k}.create"))?;
            let f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)
                .map_err(|e| io_err("cannot create", &path, e))?;
            f.set_len(num::to_u64(num::byte_len(len, ENTRY)?))
                .map_err(|e| io_err("cannot size", &path, e))?;
            let map = MmapMut::map_mut(&f).map_err(|e| io_err("cannot map", &path, e))?;
            adj_maps.push((f, map));
        }
        let mask = (1u64 << self.shard_bits) - 1;
        let shard_bits = self.shard_bits;
        let store = |maps: &mut [(File, MmapMut)], slot: u64, neighbor: u32, e: u32| {
            // lint: allow(cast, "slot >> shard_bits is below the adjacency shard count sized above")
            let shard = (slot >> shard_bits) as usize;
            // lint: allow(cast, "masked to < 2^shard_bits entries, which fits the mapped shard") lint: allow(arith, "within * ENTRY is inside the shard file sized above")
            let within = (slot & mask) as usize * ENTRY;
            // lint: allow(arith, "within + ENTRY <= the shard byte length sized above")
            let buf = &mut maps[shard].1[within..within + ENTRY];
            buf[0..4].copy_from_slice(&neighbor.to_le_bytes());
            buf[4..8].copy_from_slice(&e.to_le_bytes());
        };

        // Pass 2: stream the spooled endpoints back in edge order and
        // scatter both incidence slots — exactly `Graph::from_parts`.
        // Each spool shard is checksummed for the manifest and fsynced on
        // the way through (when journaling, the checkpoint above already
        // made them durable).
        let ep_shards = self.m.div_ceil(entries).max(1);
        let mut ep_recs = Vec::with_capacity(ep_shards);
        let mut e = 0u32;
        for k in 0..ep_shards {
            let path = self.dir.join(format!("ep.{k}"));
            let f = File::open(&path).map_err(|e| io_err("cannot open", &path, e))?;
            let map = Mmap::map(&f).map_err(|e| io_err("cannot map", &path, e))?;
            let expect = if k + 1 < ep_shards {
                entries
            } else {
                self.m - num::mul(k, entries)?
            };
            let expect_bytes = num::byte_len(expect, ENTRY)?;
            if map.len() != expect_bytes {
                return Err(GraphError::corrupt(
                    &path,
                    format!(
                        "endpoint shard has {} bytes, expected {expect_bytes}",
                        map.len()
                    ),
                ));
            }
            for chunk in map.chunks_exact(ENTRY) {
                let (lo, hi) = unpack(chunk);
                let (ul, uh) = (num::usize_from(lo), num::usize_from(hi));
                store(&mut adj_maps, cursor[ul], hi, e);
                // lint: allow(arith, "each cursor advances once per incidence slot, bounded by 2m")
                cursor[ul] += 1;
                store(&mut adj_maps, cursor[uh], lo, e);
                // lint: allow(arith, "each cursor advances once per incidence slot, bounded by 2m")
                cursor[uh] += 1;
                e += 1;
            }
            ep_recs.push(FileRecord {
                len: num::to_u64(expect_bytes),
                crc: crc32(&map),
            });
            barrier(faults, &format!("ep.{k}.sync"))?;
            f.sync_all().map_err(|e| io_err("cannot fsync", &path, e))?;
        }
        let mut adj_recs = Vec::with_capacity(adj_shards);
        for (k, (f, map)) in adj_maps.iter().enumerate() {
            adj_recs.push(FileRecord {
                len: num::to_u64(map.len()),
                crc: crc32(map),
            });
            barrier(faults, &format!("adj.{k}.msync"))?;
            map.flush()
                .map_err(|e| io_err("cannot flush", &self.dir, e))?;
            f.sync_all()
                .map_err(|e| io_err("cannot fsync", &self.dir.join(format!("adj.{k}")), e))?;
        }
        drop(adj_maps);

        // Drop stale endpoint shards from an earlier, longer attempt (the
        // builder may have been `reset()`), then write the manifest last —
        // its presence marks a complete store.
        barrier(faults, "ep.prune")?;
        for k in ep_shards.. {
            let stale = self.dir.join(format!("ep.{k}"));
            if !stale.exists() {
                break;
            }
            std::fs::remove_file(&stale).map_err(|e| io_err("cannot remove", &stale, e))?;
        }
        let manifest = Manifest {
            n: num::to_u64(self.n),
            m: num::to_u64(self.m),
            max_degree: num::to_u64(max_degree),
            shard_bits: u64::from(self.shard_bits),
            offsets: offsets_rec,
            ep: ep_recs,
            adj: adj_recs,
        };
        manifest.store(&self.dir, faults)?;
        // The store is complete: nothing left for the drop guard to undo,
        // and the journal (if any) is obsolete.
        self.cleanup_armed = false;
        if self.journal_every > 0 {
            barrier(faults, "journal.remove")?;
            let jp = self.dir.join(JOURNAL_FILE);
            std::fs::remove_file(&jp).map_err(|e| io_err("cannot remove", &jp, e))?;
            fsync_dir(&self.dir)?;
        }
        ShardedCsr::open(&self.dir)
    }
}

impl Drop for ShardedCsrBuilder {
    fn drop(&mut self) {
        if !self.cleanup_armed {
            return;
        }
        // Abandoned non-journaled build: remove the partial shard files
        // (multi-GB at scale) so failed runs do not leak disk. Errors are
        // deliberately ignored — cleanup is best-effort in a destructor.
        self.ep = None;
        for prefix in ["ep", "adj"] {
            for k in 0.. {
                let p = self.dir.join(format!("{prefix}.{k}"));
                if std::fs::remove_file(&p).is_err() {
                    break;
                }
            }
        }
        for name in [
            "offsets.bin",
            "offsets.bin.tmp",
            "manifest.bin.tmp",
            "journal.bin",
            "journal.bin.tmp",
        ] {
            // lint: allow(result, "cleanup in a destructor is best-effort; there is no caller to fail")
            let _ = std::fs::remove_file(self.dir.join(name));
        }
        if self.created_dir {
            // lint: allow(result, "cleanup in a destructor is best-effort; there is no caller to fail")
            let _ = std::fs::remove_dir(&self.dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::storage::ScratchDir;

    fn scratch(name: &str) -> ScratchDir {
        ScratchDir::new(&std::env::temp_dir(), &format!("decolor-storage-{name}"))
    }

    fn assert_matches_graph(sc: &ShardedCsr, g: &Graph) {
        assert_eq!(sc.num_vertices(), g.num_vertices());
        assert_eq!(sc.num_edges(), g.num_edges());
        assert_eq!(GraphView::max_degree(sc), g.max_degree());
        for v in g.vertices() {
            assert_eq!(GraphView::degree(sc, v), g.degree(v));
            let mut ports = Vec::new();
            sc.for_each_port(v, |u, e| ports.push((u, e)));
            assert_eq!(ports, g.incidence(v).to_vec(), "incidence of {v}");
            for (p, &pair) in g.incidence(v).iter().enumerate() {
                assert_eq!(GraphView::port(sc, v, p), Some(pair));
            }
            assert_eq!(GraphView::port(sc, v, g.degree(v)), None);
        }
        for (e, ep) in g.edge_list() {
            assert_eq!(GraphView::endpoints(sc, e), ep);
        }
    }

    #[test]
    fn spilled_graph_serves_identical_csr() {
        let dir = scratch("spill");
        let g = generators::gnm(200, 900, 3).unwrap();
        let sc = ShardedCsr::from_graph(&dir, &g).unwrap();
        assert_matches_graph(&sc, &g);
        sc.verify().unwrap();
    }

    #[test]
    fn tiny_shards_straddle_boundaries() {
        let dir = scratch("tiny");
        // shard_bits = 4 → 16 entries per shard; a Δ=40 star's incidence
        // run spans several shards.
        let g = generators::star(41).unwrap();
        let mut b = ShardedCsrBuilder::with_shard_bits(&dir, 41, 4).unwrap();
        for (_, [u, v]) in g.edge_list() {
            b.push_edge(u.index(), v.index()).unwrap();
        }
        let sc = b.finish().unwrap();
        assert!(sc.adj.len() > 1, "test must span multiple shards");
        assert_matches_graph(&sc, &g);
    }

    #[test]
    fn open_round_trips() {
        let dir = scratch("open");
        let g = generators::grid(9, 13).unwrap();
        let built = ShardedCsr::from_graph(&dir, &g).unwrap();
        drop(built);
        let sc = ShardedCsr::open(&dir).unwrap();
        assert_matches_graph(&sc, &g);
        sc.verify().unwrap();
    }

    #[test]
    fn builder_validates_like_the_in_memory_one() {
        let dir = scratch("validate");
        let mut b = ShardedCsrBuilder::create(&dir, 3).unwrap();
        assert!(matches!(
            b.push_edge(0, 5),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            b.push_edge(1, 1),
            Err(GraphError::SelfLoop { .. })
        ));
        b.push_edge(2, 0).unwrap();
        let sc = b.finish().unwrap();
        // Endpoints normalize ascending like GraphBuilder.
        assert_eq!(
            GraphView::endpoints(&sc, EdgeId::new(0)),
            [VertexId::new(0), VertexId::new(2)]
        );
    }

    #[test]
    fn reset_discards_streamed_edges() {
        let dir = scratch("reset");
        let mut b = ShardedCsrBuilder::with_shard_bits(&dir, 10, 4).unwrap();
        for v in 1..10 {
            b.push_edge(0, v).unwrap();
        }
        b.reset().unwrap();
        b.push_edge(3, 4).unwrap();
        let sc = b.finish().unwrap();
        assert_eq!(sc.num_edges(), 1);
        assert_eq!(GraphView::degree(&sc, VertexId::new(0)), 0);
        assert_eq!(GraphView::degree(&sc, VertexId::new(3)), 1);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let dir = scratch("edgeless");
        let g = crate::GraphBuilder::new(5).build();
        let sc = ShardedCsr::from_graph(&dir, &g).unwrap();
        assert_eq!(sc.num_edges(), 0);
        assert_eq!(GraphView::max_degree(&sc), 0);
        let mut seen = 0;
        sc.for_each_port(VertexId::new(0), |_, _| seen += 1);
        assert_eq!(seen, 0);
        sc.verify().unwrap();
    }

    #[test]
    fn open_rejects_corrupt_stores() {
        let dir = scratch("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        // A v1 meta.bin is a version mismatch, not a panic or a garbage map.
        std::fs::write(dir.join("meta.bin"), [0u8; 40]).unwrap();
        let err = ShardedCsr::open(&dir).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt { .. }), "{err}");
        assert!(ShardedCsr::open(scratch("does-not-exist")).is_err());
    }

    #[test]
    fn truncated_shard_and_bit_rot_surface_as_corrupt() {
        let dir = scratch("integrity");
        let g = generators::gnm(60, 240, 11).unwrap();
        let mut b = ShardedCsrBuilder::with_shard_bits(&dir, 60, 5).unwrap();
        for (_, [u, v]) in g.edge_list() {
            b.push_edge(u.index(), v.index()).unwrap();
        }
        drop(b.finish().unwrap());
        // Truncating a shard breaks the length check in open().
        let ep1 = dir.join("ep.1");
        let orig = std::fs::read(&ep1).unwrap();
        std::fs::write(&ep1, &orig[..orig.len() - ENTRY]).unwrap();
        assert!(matches!(
            ShardedCsr::open(&dir),
            Err(GraphError::Corrupt { .. })
        ));
        // Same-length bit rot passes open() but fails verify().
        let mut rotted = orig.clone();
        rotted[5] ^= 0x20;
        std::fs::write(&ep1, &rotted).unwrap();
        let sc = ShardedCsr::open(&dir).unwrap();
        assert!(matches!(sc.verify(), Err(GraphError::Corrupt { .. })));
    }

    #[test]
    fn dropped_builder_cleans_partial_files() {
        let dir = scratch("cleanup");
        let mut b = ShardedCsrBuilder::with_shard_bits(&dir, 50, 4).unwrap();
        for v in 1..50 {
            b.push_edge(0, v).unwrap();
        }
        assert!(dir.join("ep.0").exists());
        drop(b);
        assert!(!dir.exists(), "aborted build must remove its directory");
        // keep_partial_on_drop() opts out (models a hard kill).
        let mut b = ShardedCsrBuilder::with_shard_bits(&dir, 50, 4).unwrap();
        b.push_edge(1, 2).unwrap();
        b.keep_partial_on_drop();
        drop(b);
        assert!(dir.join("ep.0").exists());
    }

    #[test]
    fn journaled_build_resumes_byte_identical() {
        let dir_a = scratch("resume-a");
        let dir_b = scratch("resume-b");
        let g = generators::gnm(80, 400, 9).unwrap();
        let edges: Vec<[usize; 2]> = g
            .edge_list()
            .map(|(_, [u, v])| [u.index(), v.index()])
            .collect();
        // Uninterrupted journaled reference build.
        let opts = BuildOptions {
            shard_bits: 5,
            journal_every: 64,
        };
        let mut b = ShardedCsrBuilder::with_options(&dir_a, 80, opts).unwrap();
        for &[u, v] in &edges {
            b.push_edge(u, v).unwrap();
        }
        drop(b.finish().unwrap());
        // Interrupted build: stop partway (no finish, hard-kill model).
        let mut b = ShardedCsrBuilder::with_options(&dir_b, 80, opts).unwrap();
        for &[u, v] in &edges[..300] {
            b.push_edge(u, v).unwrap();
        }
        b.keep_partial_on_drop();
        drop(b);
        // Resume replays the full deterministic stream.
        let mut b = ShardedCsrBuilder::resume(&dir_b).unwrap();
        assert_eq!(b.durable_edges(), 256, "last checkpoint at cadence 64");
        assert_eq!(b.pending_replay(), 256);
        for &[u, v] in &edges {
            b.push_edge(u, v).unwrap();
        }
        drop(b.finish().unwrap());
        // Byte-identical stores, file by file.
        for name in ["manifest.bin", "offsets.bin", "ep.0", "adj.0"] {
            assert_eq!(
                std::fs::read(dir_a.join(name)).unwrap(),
                std::fs::read(dir_b.join(name)).unwrap(),
                "{name} differs between resumed and uninterrupted builds"
            );
        }
    }

    #[test]
    fn diverging_replay_is_corrupt() {
        let dir = scratch("diverge");
        let opts = BuildOptions {
            shard_bits: 4,
            journal_every: 8,
        };
        let mut b = ShardedCsrBuilder::with_options(&dir, 20, opts).unwrap();
        for v in 1..17 {
            b.push_edge(0, v).unwrap();
        }
        b.keep_partial_on_drop();
        drop(b);
        let mut b = ShardedCsrBuilder::resume(&dir).unwrap();
        let replay = b.pending_replay();
        assert!(replay > 0);
        // Replay a *different* stream: the prefix CRC cannot match.
        let mut saw_corrupt = false;
        for v in 1..=replay {
            match b.push_edge(1, v + 1) {
                Ok(()) => {}
                Err(GraphError::Corrupt { .. }) => {
                    saw_corrupt = true;
                    break;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(saw_corrupt, "diverging replay must surface as Corrupt");
        drop(b);
    }

    #[test]
    fn resume_refuses_complete_stores() {
        let dir = scratch("complete");
        let g = generators::grid(4, 4).unwrap();
        drop(ShardedCsr::from_graph(&dir, &g).unwrap());
        assert!(matches!(
            ShardedCsrBuilder::resume(&dir),
            Err(GraphError::InvalidParameters { .. })
        ));
    }
}
