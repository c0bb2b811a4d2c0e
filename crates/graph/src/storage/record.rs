//! The one record codec behind `manifest.bin`, `journal.bin` and the
//! round-checkpoint header.
//!
//! A record is u64 LE words: a magic tag, a format version, the body
//! words, then the CRC32 of every byte before it. [`encode`] frames a
//! body; [`decode`] checks the length, the self-CRC, the tag and the
//! version — in that order — and hands back the body, so each record
//! parses only its own fields. [`read_words`] streams the other framing
//! the checkpoint uses: a run of words followed by their CRC32, as a
//! [`FileWriter`](super::FileWriter) leaves it when its CRC is taken.

use std::io::Read;
use std::path::Path;

use crate::error::GraphError;
use crate::num;

use super::checksum::{crc32, Crc32};

/// Bytes [`read_words`] reads per chunk.
const CHUNK_BYTES: usize = 1 << 20;

/// Reads u64 LE word `i` of a byte buffer.
///
/// # Panics
///
/// If `bytes` holds fewer than `i + 1` words; callers index within a
/// length they have already validated.
#[inline]
pub fn read_word(bytes: &[u8], i: usize) -> u64 {
    // lint: allow(arith, "callers index within a buffer whose length they have already validated")
    let b = &bytes[i * 8..i * 8 + 8];
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Frames `body` as a record: `tag`, `version`, the body, then the CRC32
/// of all preceding bytes.
pub fn encode(tag: u64, version: u64, body: &[u64]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for w in [tag, version].iter().chain(body) {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    let self_crc = crc32(&bytes);
    bytes.extend_from_slice(&u64::from(self_crc).to_le_bytes());
    bytes
}

/// Checks a record's length, self-CRC, tag and version, and returns its
/// body words.
///
/// # Errors
///
/// [`GraphError::Corrupt`] naming `path` on the first failed check.
pub fn decode(path: &Path, bytes: &[u8], tag: u64, version: u64) -> Result<Vec<u64>, GraphError> {
    let corrupt = |reason: String| GraphError::corrupt(path, reason);
    if bytes.len() < 3 * 8 || !bytes.len().is_multiple_of(8) {
        return Err(corrupt(format!(
            "record has {} bytes, not a whole number of at least 3 words",
            bytes.len()
        )));
    }
    let words = bytes.len() / 8;
    // lint: allow(arith, "words = bytes.len() / 8 >= 3, so (words - 1) * 8 < bytes.len()")
    let payload = &bytes[..(words - 1) * 8];
    if u64::from(crc32(payload)) != read_word(bytes, words - 1) {
        return Err(corrupt(
            "self-checksum mismatch (torn write or bit rot)".into(),
        ));
    }
    if read_word(bytes, 0) != tag {
        return Err(corrupt(format!(
            "bad magic {:#018x} (expected {tag:#018x})",
            read_word(bytes, 0)
        )));
    }
    if read_word(bytes, 1) != version {
        return Err(corrupt(format!(
            "format version {} (this build reads {version})",
            read_word(bytes, 1)
        )));
    }
    Ok((2..words - 1).map(|i| read_word(bytes, i)).collect())
}

/// Reads `count` u64 LE words and then the word holding their CRC32.
/// Allocates `count` words up front, so the caller bounds `count` by the
/// file's length first.
///
/// # Errors
///
/// [`GraphError::Corrupt`] naming `path` for a short read or a CRC
/// mismatch.
pub fn read_words(r: &mut impl Read, path: &Path, count: usize) -> Result<Vec<u64>, GraphError> {
    let corrupt = |reason: &str| GraphError::corrupt(path, reason);
    let mut left = num::byte_len(count, 8)?;
    let mut words = Vec::with_capacity(count);
    let mut crc = Crc32::new();
    let mut buf = vec![0u8; CHUNK_BYTES];
    while left > 0 {
        let chunk = &mut buf[..left.min(CHUNK_BYTES)];
        r.read_exact(chunk)
            .map_err(|_| corrupt("truncated in a checksummed word run"))?;
        crc.update(chunk);
        words.extend((0..chunk.len() / 8).map(|i| read_word(chunk, i)));
        left -= chunk.len();
    }
    let mut tail = [0u8; 8];
    r.read_exact(&mut tail)
        .map_err(|_| corrupt("truncated before a word run's checksum"))?;
    if u64::from(crc.finish()) != u64::from_le_bytes(tail) {
        return Err(corrupt("word run checksum mismatch"));
    }
    Ok(words)
}
