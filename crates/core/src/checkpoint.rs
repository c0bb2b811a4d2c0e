//! Round checkpoints for the chunked Linial realization.
//!
//! A [`RoundCheckpoint`] persists the complete inter-round state of
//! [`linial_coloring_chunked`](crate::linial::linial_coloring_chunked) —
//! the double-buffered color array plus the palette/round/ledger counters
//! — after every completed round, so a killed n = 10⁸ run resumes
//! mid-algorithm instead of restarting from nothing. Because a round's
//! recoloring decisions depend only on the previous round's colors, a
//! resumed run is **byte-identical** to an uninterrupted one (pinned by
//! the crash-recovery suite).
//!
//! The file is written atomically (tmp → fsync → rename → directory
//! fsync, via the storage layer's durable-write helper) and carries two
//! CRC32s — one over the header+trace, one over the color words — plus an
//! input **fingerprint** (over `n`, edge count, Δ, and the initial
//! coloring) so a checkpoint can never silently resume a *different*
//! run: every mismatch surfaces as
//! [`GraphError::Corrupt`].

use std::io::Read;
use std::path::Path;

use decolor_graph::storage::{crc32, write_file_durable_with, Crc32};
use decolor_graph::{num, GraphError};

/// Checkpoint magic tag ("DCLR CKP").
const CKPT_TAG: u64 = 0x4443_4c52_434b_5000;
/// Checkpoint format version.
const CKPT_VERSION: u64 = 1;
/// Fixed header words before the palette trace.
const HEADER_WORDS: usize = 10;
/// Byte length of the fixed header.
// lint: allow(arith, "const context: overflow is a compile-time error")
const HEADER_BYTES: usize = HEADER_WORDS * 8;
/// Color words converted per I/O chunk.
const CHUNK_WORDS: usize = 1 << 17;
/// Byte length of one I/O chunk.
// lint: allow(arith, "const context: overflow is a compile-time error")
const CHUNK_BYTES: usize = CHUNK_WORDS * 8;

/// Inter-round state of a chunked Linial run (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundCheckpoint {
    /// Vertex count of the run.
    pub n: u64,
    /// Maximum degree of the run's graph.
    pub delta: u64,
    /// Fingerprint of the run's input (graph shape + initial coloring).
    pub fingerprint: u32,
    /// Current palette size.
    pub m: u64,
    /// Communication rounds completed so far.
    pub rounds: u64,
    /// Messages charged so far.
    pub messages: u64,
    /// Payload bytes charged so far.
    pub payload_bytes: u64,
    /// Palette sizes after each round (starting palette first).
    pub trace: Vec<u64>,
    /// The color of every vertex after the last completed round.
    pub colors: Vec<u64>,
}

/// Fingerprint binding a checkpoint to one specific run: graph shape
/// (`n`, `m`, Δ) plus the full initial coloring.
pub fn input_fingerprint(n: usize, m: usize, delta: usize, palette: u64, initial: &[u32]) -> u32 {
    let mut crc = Crc32::new();
    for w in [num::to_u64(n), num::to_u64(m), num::to_u64(delta), palette] {
        crc.update(&w.to_le_bytes());
    }
    for &c in initial {
        crc.update(&c.to_le_bytes());
    }
    crc.finish()
}

fn corrupt(path: &Path, reason: String) -> GraphError {
    GraphError::Corrupt {
        path: path.display().to_string(),
        reason,
    }
}

fn read_word_at(bytes: &[u8], i: usize) -> u64 {
    // lint: allow(arith, "callers index within buffers whose length they sized or validated")
    let b = &bytes[i * 8..i * 8 + 8];
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

impl RoundCheckpoint {
    /// Durably writes the checkpoint, atomically replacing any previous
    /// one at `path`. Layout: header words + trace + header CRC, then
    /// the color words + colors CRC (all u64 LE; CRCs widen to a word).
    ///
    /// # Errors
    ///
    /// [`GraphError::Io`] on any filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), GraphError> {
        // lint: allow(arith, "capacity hint; the trace holds one word per round, far below usize::MAX")
        let mut head: Vec<u64> = Vec::with_capacity(HEADER_WORDS + self.trace.len());
        head.extend([
            CKPT_TAG,
            CKPT_VERSION,
            self.n,
            self.delta,
            u64::from(self.fingerprint),
            self.m,
            self.rounds,
            self.messages,
            self.payload_bytes,
            num::to_u64(self.trace.len()),
        ]);
        head.extend_from_slice(&self.trace);
        let mut head_bytes = Vec::with_capacity(num::byte_len(num::add(head.len(), 1)?, 8)?);
        for w in &head {
            head_bytes.extend_from_slice(&w.to_le_bytes());
        }
        let head_crc = crc32(&head_bytes);
        head_bytes.extend_from_slice(&u64::from(head_crc).to_le_bytes());
        write_file_durable_with(path, |w| {
            w.write_all(&head_bytes)?;
            // Colors stream through a bounded chunk buffer: no n-word
            // byte copy, so checkpointing never doubles peak RAM.
            let mut crc = Crc32::new();
            let mut buf = Vec::with_capacity(CHUNK_BYTES);
            for chunk in self.colors.chunks(CHUNK_WORDS) {
                buf.clear();
                for c in chunk {
                    buf.extend_from_slice(&c.to_le_bytes());
                }
                crc.update(&buf);
                w.write_all(&buf)?;
            }
            w.write_all(&u64::from(crc.finish()).to_le_bytes())
        })
    }

    /// Loads a checkpoint, or `Ok(None)` when none exists at `path`.
    ///
    /// # Errors
    ///
    /// [`GraphError::Corrupt`] for any torn, truncated, or inconsistent
    /// checkpoint; [`GraphError::Io`] for filesystem failures other than
    /// absence.
    pub fn load(path: &Path) -> Result<Option<RoundCheckpoint>, GraphError> {
        let mut f = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(GraphError::Io {
                    reason: format!("cannot open {}: {e}", path.display()),
                })
            }
        };
        let short = |what: &str| corrupt(path, format!("checkpoint truncated in {what}"));
        let mut fixed = vec![0u8; HEADER_BYTES];
        f.read_exact(&mut fixed).map_err(|_| short("header"))?;
        if read_word_at(&fixed, 0) != CKPT_TAG {
            return Err(corrupt(
                path,
                format!("bad checkpoint magic {:#018x}", read_word_at(&fixed, 0)),
            ));
        }
        if read_word_at(&fixed, 1) != CKPT_VERSION {
            return Err(corrupt(
                path,
                format!(
                    "checkpoint format version {} (this build reads {CKPT_VERSION})",
                    read_word_at(&fixed, 1)
                ),
            ));
        }
        let n = read_word_at(&fixed, 2);
        let trace_len = read_word_at(&fixed, 9);
        if n > 1 << 48 || trace_len > 1 << 16 {
            return Err(corrupt(
                path,
                format!("implausible checkpoint header n = {n}, trace_len = {trace_len}"),
            ));
        }
        let trace_words = num::to_usize(trace_len)?;
        // lint: allow(arith, "trace_len <= 2^16 is validated just above")
        let mut rest = vec![0u8; (trace_words + 1) * 8];
        f.read_exact(&mut rest)
            .map_err(|_| short("palette trace"))?;
        let mut head_crc = Crc32::new();
        head_crc.update(&fixed);
        // lint: allow(arith, "trace_words <= 2^16, and rest holds trace_words + 1 words")
        head_crc.update(&rest[..trace_words * 8]);
        if u64::from(head_crc.finish()) != read_word_at(&rest, trace_words) {
            return Err(corrupt(path, "checkpoint header checksum mismatch".into()));
        }
        let trace: Vec<u64> = (0..trace_words).map(|i| read_word_at(&rest, i)).collect();

        let n_words = num::to_usize(n)?;
        let mut colors: Vec<u64> = Vec::with_capacity(n_words);
        let mut crc = Crc32::new();
        let mut buf = vec![0u8; CHUNK_BYTES];
        let mut left = n_words;
        while left > 0 {
            let take = CHUNK_WORDS.min(left);
            // lint: allow(arith, "take <= CHUNK_WORDS, so take * 8 <= CHUNK_BYTES")
            let take_bytes = take * 8;
            f.read_exact(&mut buf[..take_bytes])
                .map_err(|_| short("colors"))?;
            crc.update(&buf[..take_bytes]);
            for i in 0..take {
                colors.push(read_word_at(&buf, i));
            }
            left -= take;
        }
        let mut tail = [0u8; 8];
        f.read_exact(&mut tail)
            .map_err(|_| short("colors checksum"))?;
        if u64::from(crc.finish()) != u64::from_le_bytes(tail) {
            return Err(corrupt(path, "checkpoint colors checksum mismatch".into()));
        }
        Ok(Some(RoundCheckpoint {
            n,
            delta: read_word_at(&fixed, 3),
            fingerprint: u32::try_from(read_word_at(&fixed, 4))
                .map_err(|_| corrupt(path, "checkpoint fingerprint word exceeds u32".into()))?,
            m: read_word_at(&fixed, 5),
            rounds: read_word_at(&fixed, 6),
            messages: read_word_at(&fixed, 7),
            payload_bytes: read_word_at(&fixed, 8),
            trace,
            colors,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::storage::ScratchDir;

    fn scratch() -> ScratchDir {
        let dir = ScratchDir::new(&std::env::temp_dir(), "decolor-ckpt");
        std::fs::create_dir_all(dir.path()).unwrap();
        dir
    }

    fn sample() -> RoundCheckpoint {
        RoundCheckpoint {
            n: 5,
            delta: 3,
            fingerprint: 0xABCD_1234,
            m: 49,
            rounds: 2,
            messages: 40,
            payload_bytes: 320,
            trace: vec![1000, 169, 49],
            colors: vec![3, 14, 15, 9, 26],
        }
    }

    #[test]
    fn save_load_round_trips() {
        let dir = scratch();
        let p = dir.path().join("roundtrip.bin");
        let c = sample();
        c.save(&p).unwrap();
        assert_eq!(RoundCheckpoint::load(&p).unwrap(), Some(c));
    }

    #[test]
    fn absent_checkpoint_is_none() {
        let dir = scratch();
        assert_eq!(
            RoundCheckpoint::load(&dir.path().join("nope.bin")).unwrap(),
            None
        );
    }

    #[test]
    fn torn_and_rotted_checkpoints_are_corrupt() {
        let dir = scratch();
        let p = dir.path().join("torn.bin");
        let c = sample();
        c.save(&p).unwrap();
        let good = std::fs::read(&p).unwrap();
        // Truncation at every region boundary.
        for cut in [4, HEADER_WORDS * 8 + 3, good.len() - 5] {
            std::fs::write(&p, &good[..cut]).unwrap();
            assert!(
                matches!(RoundCheckpoint::load(&p), Err(GraphError::Corrupt { .. })),
                "cut at {cut}"
            );
        }
        // Bit flips in header, trace, colors, and checksums.
        for i in [8, 30, HEADER_WORDS * 8 + 2, good.len() - 20, good.len() - 2] {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            std::fs::write(&p, &bad).unwrap();
            assert!(
                matches!(RoundCheckpoint::load(&p), Err(GraphError::Corrupt { .. })),
                "flip at {i}"
            );
        }
    }

    #[test]
    fn fingerprint_tracks_every_input_dimension() {
        let base = input_fingerprint(10, 20, 4, 100, &[1, 2, 3]);
        assert_ne!(base, input_fingerprint(11, 20, 4, 100, &[1, 2, 3]));
        assert_ne!(base, input_fingerprint(10, 21, 4, 100, &[1, 2, 3]));
        assert_ne!(base, input_fingerprint(10, 20, 5, 100, &[1, 2, 3]));
        assert_ne!(base, input_fingerprint(10, 20, 4, 101, &[1, 2, 3]));
        assert_ne!(base, input_fingerprint(10, 20, 4, 100, &[1, 2, 4]));
    }
}
