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
//! The file is written through the storage layer's staged
//! [`FileWriter`] (tmp → fsync → rename → directory fsync), like a
//! store's manifest. Its header and palette trace are one storage
//! [`record`] (tag, version, body, self-CRC); the color words follow
//! with their own CRC32, taken from the writer and read back by
//! [`record::read_words`]. An input **fingerprint** (over `n`, edge
//! count, Δ, and the initial coloring) binds a checkpoint to its run, so
//! it can never silently resume a *different* one: every mismatch
//! surfaces as [`GraphError::Corrupt`].

use std::io::Read;
use std::path::Path;

use decolor_graph::storage::record::{self, read_word};
use decolor_graph::storage::{Crc32, FileWriter};
use decolor_graph::{num, GraphError};

/// Checkpoint magic tag ("DCLR CKP").
const CKPT_TAG: u64 = 0x4443_4c52_434b_5000;
/// Checkpoint format version.
const CKPT_VERSION: u64 = 1;
/// Fixed header words (tag and version included) before the palette
/// trace.
const HEADER_WORDS: usize = 10;
/// Byte length of the fixed header.
// lint: allow(arith, "const context: overflow is a compile-time error")
const HEADER_BYTES: usize = HEADER_WORDS * 8;

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

impl RoundCheckpoint {
    /// Durably writes the checkpoint, atomically replacing any previous
    /// one at `path`. Layout: one record (header words + trace), then the
    /// color words + colors CRC (all u64 LE; CRCs widen to a word).
    ///
    /// # Errors
    ///
    /// [`GraphError::Io`] on any filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), GraphError> {
        let mut body = vec![
            self.n,
            self.delta,
            u64::from(self.fingerprint),
            self.m,
            self.rounds,
            self.messages,
            self.payload_bytes,
            num::to_u64(self.trace.len()),
        ];
        body.extend_from_slice(&self.trace);
        let mut w = FileWriter::stage(path, "checkpoint")?;
        w.write(&record::encode(CKPT_TAG, CKPT_VERSION, &body), None)?;
        // Restart the writer's CRC: the colors CRC covers the colors only.
        w.take_crc();
        // Colors stream through the writer's bounded buffer: no n-word
        // byte copy, so checkpointing never doubles peak RAM.
        for c in &self.colors {
            w.write(&c.to_le_bytes(), None)?;
        }
        let colors_crc = w.take_crc();
        w.write(&u64::from(colors_crc).to_le_bytes(), None)?;
        w.commit(None)
    }

    /// Loads a checkpoint, or `Ok(None)` when none exists at `path`.
    ///
    /// # Errors
    ///
    /// [`GraphError::Corrupt`] for any torn, truncated, or inconsistent
    /// checkpoint; [`GraphError::Io`] for filesystem failures other than
    /// absence.
    pub fn load(path: &Path) -> Result<Option<RoundCheckpoint>, GraphError> {
        let io = |e: std::io::Error| GraphError::Io {
            reason: format!("cannot open {}: {e}", path.display()),
        };
        let mut f = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io(e)),
        };
        let file_len = f.metadata().map_err(io)?.len();
        let short =
            |what: &str| GraphError::corrupt(path, format!("checkpoint truncated in {what}"));
        let mut head = vec![0u8; HEADER_BYTES];
        f.read_exact(&mut head).map_err(|_| short("header"))?;
        let (n, trace_len) = (read_word(&head, 2), read_word(&head, 9));
        if n > 1 << 48 || trace_len > 1 << 16 {
            return Err(GraphError::corrupt(
                path,
                format!("implausible checkpoint header n = {n}, trace_len = {trace_len}"),
            ));
        }
        // The header, trace and header CRC, then n colors and their CRC:
        // the file must hold exactly that before anything is allocated.
        // lint: allow(arith, "trace_len <= 2^16 is validated just above")
        let head_words = num::to_u64(HEADER_WORDS) + trace_len + 1;
        // lint: allow(arith, "n <= 2^48 and head_words <= 2^17, so the sum times 8 fits u64")
        let want_len = (head_words + n + 1) * 8;
        if file_len != want_len {
            return Err(GraphError::corrupt(
                path,
                format!("checkpoint has {file_len} bytes, its header declares {want_len}"),
            ));
        }
        head.resize(num::byte_len(num::to_usize(head_words)?, 8)?, 0);
        f.read_exact(&mut head[HEADER_BYTES..])
            .map_err(|_| short("palette trace"))?;
        let body = record::decode(path, &head, CKPT_TAG, CKPT_VERSION)?;
        let [_, delta, fingerprint, m, rounds, messages, payload_bytes, _, ref trace @ ..] =
            body[..]
        else {
            return Err(short("header"));
        };
        Ok(Some(RoundCheckpoint {
            n,
            delta,
            fingerprint: u32::try_from(fingerprint).map_err(|_| {
                GraphError::corrupt(path, "checkpoint fingerprint word exceeds u32")
            })?,
            m,
            rounds,
            messages,
            payload_bytes,
            trace: trace.to_vec(),
            colors: record::read_words(&mut f, path, num::to_usize(n)?)?,
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
    fn header_declaring_more_colors_than_the_file_holds_is_corrupt() {
        let dir = scratch();
        let p = dir.path().join("huge.bin");
        // A valid header and header CRC declaring n = 2^40 colors (below
        // the plausibility bound), with no colors behind it: 88 bytes.
        let head = record::encode(CKPT_TAG, CKPT_VERSION, &[1 << 40, 4, 0, 9, 1, 0, 0, 0]);
        assert_eq!(head.len(), 88);
        std::fs::write(&p, &head).unwrap();
        assert!(matches!(
            RoundCheckpoint::load(&p),
            Err(GraphError::Corrupt { .. })
        ));
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
