//! The store manifest: the single source of truth for a complete
//! [`ShardedCsr`](crate::storage::ShardedCsr) directory.
//!
//! `manifest.bin` replaces the v1 `meta.bin` and carries, besides the
//! graph header (`n`, `m`, Δ, `shard_bits`), the **byte length and CRC32
//! of every data file** in the store — `offsets.bin` and each `adj.<k>` /
//! `ep.<k>` shard — plus a trailing self-checksum. It is written *last*
//! and *atomically* through the staged [`FileWriter`] (tmp → fsync →
//! rename → dir fsync), so its presence marks a complete, internally
//! consistent store:
//!
//! * a crash before the rename leaves no manifest — `open` fails with a
//!   typed error instead of mmapping garbage;
//! * a truncated or swapped shard no longer matches its recorded length —
//!   `open` reports [`GraphError::Corrupt`] naming the file;
//! * silent bit rot is caught by the full checksum pass behind
//!   [`ShardedCsr::verify`](crate::storage::ShardedCsr::verify) (and the
//!   CLI's `store verify` / `--verify`), which is kept out of `open`
//!   because it reads every byte of a potentially multi-GB store.
//!
//! The file is one [`record`](super::record) whose body is `n`, `m`, Δ,
//! `shard_bits`, `#ep shards`, `#adj shards`, then `(len, crc)` word
//! pairs for `offsets.bin`, each `ep.<k>`, each `adj.<k>`.

use std::path::{Path, PathBuf};

use crate::error::GraphError;
use crate::num;

use super::checksum::Crc32;
use super::fault::FaultPlan;
use super::io_err;
use super::record;
use super::writer::FileWriter;

/// Manifest file name inside a store directory.
pub(crate) const MANIFEST_FILE: &str = "manifest.bin";
/// The v1 metadata file, recognized only to report a version mismatch.
pub(crate) const LEGACY_META_FILE: &str = "meta.bin";

/// Manifest magic tag ("DCLR CSR").
const MANIFEST_TAG: u64 = 0x4443_4c52_4353_5200;
/// Current store format version (v1 was the unchecksummed `meta.bin`).
pub const FORMAT_VERSION: u64 = 2;

/// Recorded length + checksum of one data file in the store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileRecord {
    /// Byte length of the file.
    pub len: u64,
    /// CRC32 of the file's contents.
    pub crc: u32,
}

/// Parsed contents of `manifest.bin` (see the module docs for layout).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Number of vertices.
    pub n: u64,
    /// Number of edges.
    pub m: u64,
    /// Maximum degree.
    pub max_degree: u64,
    /// Shard size exponent (2^`shard_bits` entries per shard file).
    pub shard_bits: u64,
    /// Record for `offsets.bin`.
    pub offsets: FileRecord,
    /// Records for `ep.0` .. `ep.<k>`, in order.
    pub ep: Vec<FileRecord>,
    /// Records for `adj.0` .. `adj.<k>`, in order.
    pub adj: Vec<FileRecord>,
}

impl Manifest {
    /// Serializes the manifest as one [`record`].
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut body = vec![
            self.n,
            self.m,
            self.max_degree,
            self.shard_bits,
            num::to_u64(self.ep.len()),
            num::to_u64(self.adj.len()),
        ];
        for rec in std::iter::once(&self.offsets)
            .chain(&self.ep)
            .chain(&self.adj)
        {
            body.push(rec.len);
            body.push(u64::from(rec.crc));
        }
        record::encode(MANIFEST_TAG, FORMAT_VERSION, &body)
    }

    /// Parses and integrity-checks manifest bytes.
    ///
    /// # Errors
    ///
    /// [`GraphError::Corrupt`] naming `path` on any malformation.
    pub(crate) fn decode(path: &Path, bytes: &[u8]) -> Result<Manifest, GraphError> {
        let corrupt = |reason: String| GraphError::corrupt(path, reason);
        let body = record::decode(path, bytes, MANIFEST_TAG, FORMAT_VERSION)?;
        let [n, m, max_degree, shard_bits, ep_count, adj_count, ref pairs @ ..] = body[..] else {
            return Err(corrupt(format!(
                "manifest has {} body words, expected at least 6",
                body.len()
            )));
        };
        // The declared shard counts must match the (len, crc) pairs the
        // file holds; comparing against the pair count, never computing
        // from the declared counts, keeps a crafted count from
        // overflowing or sizing an allocation.
        let records = pairs.len() / 2;
        if !pairs.len().is_multiple_of(2)
            || records == 0
            || ep_count > num::to_u64(records - 1)
            || adj_count != num::to_u64(records - 1) - ep_count
        {
            return Err(corrupt(format!(
                "manifest has {} record words, expected offsets + {ep_count} ep + {adj_count} adj (len, crc) pairs",
                pairs.len()
            )));
        }
        let mut recs = Vec::with_capacity(records);
        for pair in pairs.chunks_exact(2) {
            recs.push(FileRecord {
                len: pair[0],
                crc: u32::try_from(pair[1])
                    .map_err(|_| corrupt("manifest CRC word exceeds u32".into()))?,
            });
        }
        let adj = recs.split_off(1 + num::to_usize(ep_count)?);
        let ep = recs.split_off(1);
        Ok(Manifest {
            n,
            m,
            max_degree,
            shard_bits,
            offsets: recs[0],
            ep,
            adj,
        })
    }

    /// Loads and integrity-checks the manifest of `dir`.
    ///
    /// # Errors
    ///
    /// [`GraphError::Corrupt`] for a malformed manifest — or for a
    /// directory holding only a v1 `meta.bin` (version mismatch) or no
    /// metadata at all despite shard files being present (incomplete
    /// build); [`GraphError::Io`] for other filesystem failures.
    pub fn load(dir: &Path) -> Result<Manifest, GraphError> {
        let path = dir.join(MANIFEST_FILE);
        match std::fs::read(&path) {
            Ok(bytes) => Manifest::decode(&path, &bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let reason = if dir.join(LEGACY_META_FILE).exists() {
                    format!(
                        "legacy v1 `meta.bin` store (this build reads format version {FORMAT_VERSION}); rebuild the store"
                    )
                } else if dir.join("offsets.bin").exists() || dir.join("ep.0").exists() {
                    "no manifest despite shard files present (incomplete or interrupted build)"
                        .to_string()
                } else {
                    return Err(io_err("cannot open", &path, e));
                };
                Err(GraphError::corrupt(dir, reason))
            }
            Err(e) => Err(io_err("cannot read", &path, e)),
        }
    }

    /// Durably writes the manifest into `dir` through a staged
    /// [`FileWriter`], consulting `faults` at each step.
    pub(crate) fn store(&self, dir: &Path, faults: Option<&FaultPlan>) -> Result<(), GraphError> {
        let mut w = FileWriter::stage(&dir.join(MANIFEST_FILE), "manifest")?;
        w.write(&self.encode(), faults)?;
        w.commit(faults)
    }

    /// The data files the manifest covers, in manifest order, with their
    /// recorded lengths and checksums.
    pub(crate) fn files(&self, dir: &Path) -> Vec<(PathBuf, FileRecord)> {
        // lint: allow(arith, "capacity hint; shard counts are small and bounded by open files on disk")
        let mut out = Vec::with_capacity(1 + self.ep.len() + self.adj.len());
        out.push((dir.join("offsets.bin"), self.offsets));
        for (k, rec) in self.ep.iter().enumerate() {
            out.push((dir.join(format!("ep.{k}")), *rec));
        }
        for (k, rec) in self.adj.iter().enumerate() {
            out.push((dir.join(format!("adj.{k}")), *rec));
        }
        out
    }

    /// Cheap integrity pass run by every `open`: each covered file must
    /// exist with exactly its recorded length.
    ///
    /// # Errors
    ///
    /// [`GraphError::Corrupt`] naming the first mismatching file.
    pub fn validate_lengths(&self, dir: &Path) -> Result<(), GraphError> {
        for (path, rec) in self.files(dir) {
            let len = std::fs::metadata(&path)
                .map(|m| m.len())
                .map_err(|e| match e.kind() {
                    std::io::ErrorKind::NotFound => {
                        GraphError::corrupt(&path, "file listed in manifest is missing")
                    }
                    _ => io_err("cannot stat", &path, e),
                })?;
            if len != rec.len {
                return Err(GraphError::corrupt(
                    &path,
                    format!("has {len} bytes, manifest records {}", rec.len),
                ));
            }
        }
        Ok(())
    }

    /// Full integrity pass: recomputes every covered file's CRC32 and
    /// compares against the manifest. Reads every byte of the store.
    ///
    /// # Errors
    ///
    /// [`GraphError::Corrupt`] naming the first file whose checksum (or
    /// length) disagrees with the manifest.
    pub fn verify_checksums(&self, dir: &Path) -> Result<(), GraphError> {
        use std::io::Read as _;
        self.validate_lengths(dir)?;
        let mut buf = vec![0u8; 1 << 20];
        for (path, rec) in self.files(dir) {
            let mut f = std::fs::File::open(&path).map_err(|e| io_err("cannot open", &path, e))?;
            let mut crc = Crc32::new();
            loop {
                let got = f
                    .read(&mut buf)
                    .map_err(|e| io_err("cannot read", &path, e))?;
                if got == 0 {
                    break;
                }
                crc.update(&buf[..got]);
            }
            if crc.finish() != rec.crc {
                return Err(GraphError::corrupt(
                    &path,
                    format!(
                        "checksum {:#010x} does not match manifest {:#010x}",
                        crc.finish(),
                        rec.crc
                    ),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{crc32, ScratchDir};

    fn sample() -> Manifest {
        Manifest {
            n: 100,
            m: 400,
            max_degree: 17,
            shard_bits: 8,
            offsets: FileRecord {
                len: 808,
                crc: 0x1111,
            },
            ep: vec![
                FileRecord {
                    len: 2048,
                    crc: 0x2222,
                },
                FileRecord {
                    len: 1152,
                    crc: 0x3333,
                },
            ],
            adj: vec![
                FileRecord {
                    len: 2048,
                    crc: 0x4444,
                },
                FileRecord {
                    len: 2048,
                    crc: 0x5555,
                },
                FileRecord {
                    len: 2304,
                    crc: 0x6666,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let m = sample();
        let bytes = m.encode();
        let back = Manifest::decode(Path::new("x"), &bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn decode_rejects_every_malformation() {
        let m = sample();
        let good = m.encode();
        let p = Path::new("x");
        // Truncation.
        assert!(matches!(
            Manifest::decode(p, &good[..good.len() - 8]),
            Err(GraphError::Corrupt { .. })
        ));
        // Bit flip anywhere trips the self-CRC.
        for i in [0, 9, 40, good.len() - 9] {
            let mut bad = good.clone();
            bad[i] ^= 0x04;
            assert!(
                matches!(Manifest::decode(p, &bad), Err(GraphError::Corrupt { .. })),
                "flip at {i}"
            );
        }
        // Wrong version, with a recomputed (valid) self-CRC: still rejected.
        let mut v = Manifest::decode(p, &good).unwrap();
        v.n = m.n;
        let mut words_bad = good.clone();
        words_bad[8] = 99; // version word → 99
        let payload = words_bad.len() - 8;
        let crc = crc32(&words_bad[..payload]);
        words_bad[payload..].copy_from_slice(&u64::from(crc).to_le_bytes());
        let err = Manifest::decode(p, &words_bad).unwrap_err();
        assert!(err.to_string().contains("format version"), "{err}");
        let _ = v;
        // Shard counts of 2^62 each under a valid self-CRC: the declared
        // counts disagree with the one record pair present.
        let crafted = record::encode(
            MANIFEST_TAG,
            FORMAT_VERSION,
            &[4, 3, 2, 4, 1 << 62, 1 << 62, 0, 0],
        );
        assert_eq!(crafted.len(), 11 * 8);
        assert!(matches!(
            Manifest::decode(p, &crafted),
            Err(GraphError::Corrupt { .. })
        ));
    }

    #[test]
    fn legacy_meta_reports_version_mismatch() {
        let dir = ScratchDir::new(&std::env::temp_dir(), "decolor-manifest-legacy");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(LEGACY_META_FILE), [0u8; 40]).unwrap();
        let err = Manifest::load(&dir).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt { .. }));
        assert!(err.to_string().contains("legacy"), "{err}");
    }

    #[test]
    fn length_and_checksum_validation() {
        let dir = ScratchDir::new(&std::env::temp_dir(), "decolor-manifest-check");
        std::fs::create_dir_all(&dir).unwrap();
        let offsets = vec![7u8; 16];
        let ep0 = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        let adj0 = vec![9u8; 16];
        std::fs::write(dir.join("offsets.bin"), &offsets).unwrap();
        std::fs::write(dir.join("ep.0"), &ep0).unwrap();
        std::fs::write(dir.join("adj.0"), &adj0).unwrap();
        let m = Manifest {
            n: 1,
            m: 1,
            max_degree: 1,
            shard_bits: 4,
            offsets: FileRecord {
                len: 16,
                crc: crc32(&offsets),
            },
            ep: vec![FileRecord {
                len: 8,
                crc: crc32(&ep0),
            }],
            adj: vec![FileRecord {
                len: 16,
                crc: crc32(&adj0),
            }],
        };
        m.validate_lengths(&dir).unwrap();
        m.verify_checksums(&dir).unwrap();
        // Truncate a shard: length check catches it.
        std::fs::write(dir.join("ep.0"), &ep0[..4]).unwrap();
        assert!(matches!(
            m.validate_lengths(&dir),
            Err(GraphError::Corrupt { .. })
        ));
        // Same-length bit flip: only the checksum pass catches it.
        let mut flipped = ep0.clone();
        flipped[3] ^= 0x80;
        std::fs::write(dir.join("ep.0"), &flipped).unwrap();
        m.validate_lengths(&dir).unwrap();
        assert!(matches!(
            m.verify_checksums(&dir),
            Err(GraphError::Corrupt { .. })
        ));
    }
}
