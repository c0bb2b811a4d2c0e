//! Out-of-core graph storage: a **sharded, mmap-backed CSR** with
//! crash-safe builds and checksummed integrity.
//!
//! [`ShardedCsr`] serves the exact CSR arrays a [`Graph`](crate::Graph)
//! holds in RAM — per-vertex `(neighbor, edge)` incidence runs, per-edge
//! endpoint pairs, and the offset table — from files under a directory,
//! mapped with `memmap2` and paged in on demand. It implements
//! [`GraphView`](crate::subgraph::GraphView), the topology trait the
//! LOCAL cost ledger and every recursive pipeline are generic over, so
//! `Network`, the vertex pipeline, CD-Coloring, and the Section 4/5
//! edge-coloring theorems run **unmodified** on graphs that do not fit
//! comfortably in RAM.
//!
//! The adjacency and endpoint arrays are split into fixed-size **shards**
//! (2^`shard_bits` 8-byte entries per file) so no single mapping needs a
//! contiguous multi-gigabyte address range and partial workloads only
//! touch the shards they read. Layout under the directory:
//!
//! | File | Contents |
//! |------|----------|
//! | `manifest.bin` | magic + format version + `n`, `m`, Δ, `shard_bits`, per-file length + CRC32, self-CRC (written **last**, atomically) |
//! | `offsets.bin` | `n + 1` × u64 LE CSR offsets |
//! | `adj.<k>` | incidence slots `[k·2^b, (k+1)·2^b)`: neighbor u32 LE + edge u32 LE |
//! | `ep.<k>` | endpoint pairs by edge id: lo u32 LE + hi u32 LE |
//! | `journal.bin` | build checkpoint of an in-progress journaled build (absent from complete stores) |
//!
//! [`ShardedCsrBuilder`] builds the files **streaming**: edges arrive one
//! at a time (from the streaming generators or any other source), are
//! spooled to the endpoint shards while degrees are counted, and a second
//! pass scatters the adjacency exactly like `Graph::from_parts` — same
//! edge order, same per-vertex incidence order — so a [`ShardedCsr`] is
//! **bit-identical** to the in-memory CSR of the same edge stream, which
//! the storage-equivalence tests pin. Peak RAM of the build is O(n) words
//! (degree counts + scatter cursors), never O(n + m).
//!
//! # Crash safety
//!
//! One writer and one codec carry every durability guarantee. Every file
//! is written through a [`FileWriter`] (1 MiB buffer, rolling CRC32,
//! [`FaultPlan`] consulted at each step). The files a crash must never
//! leave torn — `offsets.bin`, `manifest.bin`, `journal.bin`, and the
//! chunked-Linial round checkpoints in `decolor-core` — are staged in a
//! tmp sibling and committed: fsync, atomic rename, directory fsync.
//! The manifest, the journal and the checkpoint header share one
//! [`record`] framing (tag, version, body words, self-CRC), checked in
//! one place. The spool shards are fsynced before the offset table and
//! manifest are committed, and the manifest — carrying a length and
//! CRC32 for every data file — is committed **last**, so its presence
//! marks a complete store. [`ShardedCsr::open`] validates the manifest
//! and every file length (a cheap O(#files) pass) and surfaces
//! [`GraphError::Corrupt`] instead of mmapping garbage;
//! [`ShardedCsr::verify`] recomputes every checksum. With
//! [`BuildOptions::journal_every`] set, the builder additionally
//! journals its durable edge count + prefix CRC so an interrupted build
//! [`resume`](ShardedCsrBuilder::resume)s from the last checkpoint and
//! provably reproduces the uninterrupted result. The [`FaultPlan`] seam
//! lets the crash-recovery suite kill, tear, or ENOSPC-fail any of these
//! steps deterministically.

mod checksum;
mod csr;
mod fault;
mod journal;
mod manifest;
pub mod record;
mod scratch;
mod writer;

pub use checksum::{crc32, Crc32};
pub use csr::{BuildOptions, ShardedCsr, ShardedCsrBuilder, DEFAULT_SHARD_BITS};
pub use fault::{FaultKind, FaultPlan};
pub use journal::BuildJournal;
pub use manifest::{FileRecord, Manifest, FORMAT_VERSION};
pub use scratch::ScratchDir;
pub use writer::FileWriter;

use std::path::Path;

use crate::error::GraphError;

/// Wraps a std I/O failure with the operation and path it hit.
pub(crate) fn io_err(what: &str, path: &Path, e: std::io::Error) -> GraphError {
    GraphError::Io {
        reason: format!("{what} {}: {e}", path.display()),
    }
}
