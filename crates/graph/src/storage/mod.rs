//! Out-of-core graph storage: a **sharded, mmap-backed CSR** with
//! crash-safe builds and checksummed integrity.
//!
//! [`ShardedCsr`] serves the exact CSR arrays a [`Graph`](crate::Graph)
//! holds in RAM — per-vertex `(neighbor, edge)` incidence runs, per-edge
//! endpoint pairs, and the offset table — from files under a directory,
//! mapped with `memmap2` and paged in on demand. It implements
//! [`GraphView`](crate::subgraph::GraphView), the topology trait the
//! LOCAL simulator and every recursive pipeline are generic over, so
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
//! The store has a defined durability order: spool shards are fsynced,
//! the offset table and manifest are staged to tmp files, fsynced, and
//! atomically renamed into place, and the manifest — carrying a length
//! and CRC32 for every data file plus a self-checksum — is written
//! **last**, so its presence marks a complete store. [`ShardedCsr::open`]
//! validates the manifest and every file length (a cheap O(#files) pass)
//! and surfaces [`GraphError::Corrupt`]
//! instead of mmapping garbage; [`ShardedCsr::verify`] recomputes every
//! checksum. With [`BuildOptions::journal_every`] set, the builder
//! additionally journals its durable edge count + prefix CRC so an
//! interrupted build [`resume`](ShardedCsrBuilder::resume)s from the last
//! checkpoint and provably reproduces the uninterrupted result. The
//! [`FaultPlan`] seam lets the crash-recovery suite kill, tear, or
//! ENOSPC-fail any of these steps deterministically.

mod checksum;
mod csr;
mod fault;
mod journal;
mod manifest;

pub use checksum::{crc32, Crc32};
pub use csr::{BuildOptions, ShardedCsr, ShardedCsrBuilder, DEFAULT_SHARD_BITS};
pub use fault::{FaultKind, FaultPlan};
pub use journal::{read_file, write_file_durable, write_file_durable_with, BuildJournal};
pub use manifest::{FileRecord, Manifest, FORMAT_VERSION};

use std::path::Path;

use crate::error::GraphError;

/// Wraps a std I/O failure with the operation and path it hit.
pub(crate) fn io_err(what: &str, path: &Path, e: std::io::Error) -> GraphError {
    GraphError::Io {
        reason: format!("{what} {}: {e}", path.display()),
    }
}

/// Reads u64 LE word `i` of a byte buffer (caller guarantees bounds).
pub(crate) fn read_word(bytes: &[u8], i: usize) -> u64 {
    // lint: allow(arith, "callers index within a buffer whose length they have already validated")
    let b = &bytes[i * 8..i * 8 + 8];
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Serializes u64 words to LE bytes.
pub(crate) fn word_bytes(words: &[u64]) -> Vec<u8> {
    // lint: allow(arith, "words is an in-memory &[u64], so 8 * len <= isize::MAX by allocation")
    let mut bytes = Vec::with_capacity(words.len() * 8);
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    bytes
}
