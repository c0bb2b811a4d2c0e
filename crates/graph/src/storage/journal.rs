//! The streaming build journal.
//!
//! The [`BuildJournal`] is the crash-safety record of a streaming
//! [`ShardedCsrBuilder`](crate::storage::ShardedCsrBuilder) run: after
//! every durable batch it records how many edges have reached the
//! endpoint spool (`durable_edges`) and a CRC32 over exactly those
//! spooled records (`prefix_crc`). An interrupted build resumes by
//! replaying the same deterministic edge stream: the builder skips the
//! first `durable_edges` edges while re-deriving their CRC, and refuses
//! to continue (typed [`GraphError::Corrupt`]) if the replayed stream
//! does not match the spooled prefix — a resumed build can therefore
//! never silently diverge from an uninterrupted one.
//!
//! `journal.bin` is one [`record`](super::record) (body: `n`,
//! `shard_bits`, `journal_every`, `durable_edges`, `prefix_crc`) written
//! through the staged [`FileWriter`], like the manifest and the round
//! checkpoints, so a crash leaves the old journal or the new one.

use std::path::Path;

use crate::error::GraphError;

use super::checksum::Crc32;
use super::fault::FaultPlan;
use super::io_err;
use super::record;
use super::writer::FileWriter;

/// Journal file name inside a store directory.
pub(crate) const JOURNAL_FILE: &str = "journal.bin";

/// Journal magic tag ("DCLR JNL").
const JOURNAL_TAG: u64 = 0x4443_4c52_4a4e_4c00;
/// Journal format version.
const JOURNAL_VERSION: u64 = 1;

/// The checkpoint record of an in-progress streaming build (see the
/// module docs for the resume protocol).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BuildJournal {
    /// Vertex count of the build.
    pub n: u64,
    /// Shard size exponent of the build.
    pub shard_bits: u64,
    /// Checkpoint cadence (edges per journal update).
    pub journal_every: u64,
    /// Edges durable in the endpoint spool.
    pub durable_edges: u64,
    /// CRC32 over the first `durable_edges` spooled 8-byte records.
    pub prefix_crc: u32,
}

impl BuildJournal {
    /// Serializes the journal as one [`record`].
    pub(crate) fn encode(&self) -> Vec<u8> {
        let body = [
            self.n,
            self.shard_bits,
            self.journal_every,
            self.durable_edges,
            u64::from(self.prefix_crc),
        ];
        record::encode(JOURNAL_TAG, JOURNAL_VERSION, &body)
    }

    /// Parses and integrity-checks a journal file's bytes.
    ///
    /// # Errors
    ///
    /// [`GraphError::Corrupt`] naming `path` on any malformation.
    pub(crate) fn decode(path: &Path, bytes: &[u8]) -> Result<BuildJournal, GraphError> {
        let corrupt = |reason: String| GraphError::corrupt(path, reason);
        let body = record::decode(path, bytes, JOURNAL_TAG, JOURNAL_VERSION)?;
        let [n, shard_bits, journal_every, durable_edges, prefix_crc] = body[..] else {
            return Err(corrupt(format!(
                "journal has {} body words, expected 5",
                body.len()
            )));
        };
        Ok(BuildJournal {
            n,
            shard_bits,
            journal_every,
            durable_edges,
            prefix_crc: u32::try_from(prefix_crc)
                .map_err(|_| corrupt("journal prefix CRC word exceeds u32".into()))?,
        })
    }

    /// Loads the journal of `dir`, or `Ok(None)` when no journal exists.
    ///
    /// # Errors
    ///
    /// [`GraphError::Corrupt`] for an unreadable or inconsistent journal,
    /// [`GraphError::Io`] for filesystem failures other than absence.
    pub fn load(dir: &Path) -> Result<Option<BuildJournal>, GraphError> {
        let path = dir.join(JOURNAL_FILE);
        match std::fs::read(&path) {
            Ok(bytes) => Ok(Some(BuildJournal::decode(&path, &bytes)?)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("cannot read", &path, e)),
        }
    }

    /// Durably writes the journal into `dir` through a staged
    /// [`FileWriter`].
    pub(crate) fn store(&self, dir: &Path, faults: Option<&FaultPlan>) -> Result<(), GraphError> {
        let mut w = FileWriter::stage(&dir.join(JOURNAL_FILE), "journal")?;
        w.write(&self.encode(), faults)?;
        w.commit(faults)
    }
}

/// A rolling CRC over spooled endpoint records, updated pair by pair in
/// exactly the byte layout the spool uses — the builder keeps one for the
/// live stream and the resume path re-derives one from the replay.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EdgeCrc(Crc32);

impl EdgeCrc {
    pub(crate) fn update(&mut self, lo: u32, hi: u32) {
        self.0.update(&lo.to_le_bytes());
        self.0.update(&hi.to_le_bytes());
    }

    pub(crate) fn finish(&self) -> u32 {
        self.0.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::ScratchDir;

    fn scratch(name: &str) -> ScratchDir {
        let dir = ScratchDir::new(&std::env::temp_dir(), &format!("decolor-journal-{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn journal_round_trips() {
        let dir = scratch("roundtrip");
        let j = BuildJournal {
            n: 1000,
            shard_bits: 16,
            journal_every: 4096,
            durable_edges: 12345,
            prefix_crc: 0xDEAD_BEEF,
        };
        j.store(&dir, None).unwrap();
        assert_eq!(BuildJournal::load(&dir).unwrap(), Some(j));
        assert!(!crate::storage::writer::tmp_path(&dir.join(JOURNAL_FILE)).exists());
    }

    #[test]
    fn missing_journal_is_none() {
        let dir = scratch("missing");
        assert_eq!(BuildJournal::load(&dir).unwrap(), None);
    }

    #[test]
    fn torn_journal_is_corrupt() {
        let dir = scratch("torn");
        let j = BuildJournal {
            n: 10,
            shard_bits: 4,
            journal_every: 8,
            durable_edges: 5,
            prefix_crc: 7,
        };
        let mut bytes = j.encode();
        bytes.truncate(bytes.len() - 3);
        std::fs::write(dir.join(JOURNAL_FILE), &bytes).unwrap();
        assert!(matches!(
            BuildJournal::load(&dir),
            Err(GraphError::Corrupt { .. })
        ));
        // Flipped byte with intact length: self-CRC catches it.
        let mut bytes = j.encode();
        bytes[20] ^= 0x40;
        std::fs::write(dir.join(JOURNAL_FILE), &bytes).unwrap();
        assert!(matches!(
            BuildJournal::load(&dir),
            Err(GraphError::Corrupt { .. })
        ));
    }
}
