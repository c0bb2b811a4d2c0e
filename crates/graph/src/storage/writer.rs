//! The one durable writer every store file and checkpoint goes through.
//!
//! A [`FileWriter`] buffers 1 MiB, keeps a rolling CRC32 of everything
//! written through it, and consults an optional [`FaultPlan`] at each
//! step. Spool shards are written in place; a file that must never be
//! seen torn — `offsets.bin`, `manifest.bin`, `journal.bin`, a round
//! checkpoint — is [staged](FileWriter::stage) in a tmp sibling and
//! [committed](FileWriter::commit): **write → `fsync` → atomic `rename` →
//! parent-directory `fsync`**, so a crash at any instant leaves either
//! the old file or the new one.

use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::error::GraphError;

use super::checksum::Crc32;
use super::fault::{barrier, injected, FaultDecision, FaultPlan};
use super::io_err;

/// Buffered bytes a writer accumulates before hitting the file.
pub(crate) const WRITER_BUF: usize = 1 << 20;

/// Syncs a directory's entry table (required after `rename`/`remove` for
/// the new name itself to be durable; on Linux a directory opens
/// read-only like any file and `fsync` applies).
pub(crate) fn fsync_dir(dir: &Path) -> Result<(), GraphError> {
    let f = File::open(dir).map_err(|e| io_err("cannot open directory", dir, e))?;
    f.sync_all()
        .map_err(|e| io_err("cannot fsync directory", dir, e))
}

/// The tmp sibling a staged write goes to before the rename.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// A buffered writer over one file with the fault seam and a rolling
/// CRC of everything written through it (see the module docs).
///
/// Fault points, in order: `<label>.write` at each buffer flush (carrying
/// the payload, so a short-write plan tears the file), `<label>.fsync`,
/// and for a staged file `<label>.rename` and `<label>.dirsync`.
#[derive(Debug)]
pub struct FileWriter {
    path: PathBuf,
    /// Where [`FileWriter::commit`] renames `path` to (staged writers).
    target: Option<PathBuf>,
    label: String,
    file: File,
    buf: Vec<u8>,
    crc: Crc32,
}

impl FileWriter {
    fn open(path: PathBuf, target: Option<PathBuf>, label: &str, file: File) -> FileWriter {
        FileWriter {
            path,
            target,
            label: label.to_string(),
            file,
            buf: Vec::with_capacity(WRITER_BUF),
            crc: Crc32::new(),
        }
    }

    /// Creates (or truncates) `path` and writes it in place.
    pub(crate) fn create(path: PathBuf, label: &str) -> Result<FileWriter, GraphError> {
        let file = File::create(&path).map_err(|e| io_err("cannot create", &path, e))?;
        Ok(FileWriter::open(path, None, label, file))
    }

    /// Reopens an existing file for appending (the build-resume path).
    pub(crate) fn append(path: PathBuf, label: &str) -> Result<FileWriter, GraphError> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| io_err("cannot open for append", &path, e))?;
        Ok(FileWriter::open(path, None, label, file))
    }

    /// Stages a replacement for `path` in its tmp sibling;
    /// [`commit`](FileWriter::commit) moves it into place.
    ///
    /// # Errors
    ///
    /// [`GraphError::Io`] if the tmp file cannot be created.
    pub fn stage(path: &Path, label: &str) -> Result<FileWriter, GraphError> {
        let tmp = tmp_path(path);
        let file = File::create(&tmp).map_err(|e| io_err("cannot create", &tmp, e))?;
        Ok(FileWriter::open(tmp, Some(path.to_path_buf()), label, file))
    }

    /// Appends `bytes`, flushing once the buffer holds 1 MiB.
    ///
    /// # Errors
    ///
    /// [`GraphError::Io`] on a failed (or injected) write.
    pub fn write(&mut self, bytes: &[u8], faults: Option<&FaultPlan>) -> Result<(), GraphError> {
        self.crc.update(bytes);
        self.buf.extend_from_slice(bytes);
        if self.buf.len() >= WRITER_BUF {
            self.flush(faults)?;
        }
        Ok(())
    }

    /// The CRC32 of everything written since the last call (or since the
    /// writer opened); the digest restarts.
    pub fn take_crc(&mut self) -> u32 {
        std::mem::take(&mut self.crc).finish()
    }

    pub(crate) fn flush(&mut self, faults: Option<&FaultPlan>) -> Result<(), GraphError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let label = format!("{}.write", self.label);
        match faults.map_or(FaultDecision::Proceed, |p| p.decide(&label, self.buf.len())) {
            FaultDecision::Proceed => {}
            FaultDecision::Short(k) => {
                // Torn write: a prefix reaches the file, then the
                // failure surfaces.
                // lint: allow(result, "fault injection models a torn write; the prefix is best-effort by design")
                let _ = self.file.write_all(&self.buf[..k]);
                return Err(injected(&label));
            }
            FaultDecision::Fail => return Err(injected(&label)),
        }
        self.file
            .write_all(&self.buf)
            .map_err(|e| io_err("cannot write", &self.path, e))?;
        self.buf.clear();
        Ok(())
    }

    pub(crate) fn sync(&mut self, faults: Option<&FaultPlan>) -> Result<(), GraphError> {
        self.flush(faults)?;
        barrier(faults, &format!("{}.fsync", self.label))?;
        self.file
            .sync_all()
            .map_err(|e| io_err("cannot fsync", &self.path, e))
    }

    /// Makes a [staged](FileWriter::stage) file durable and atomically
    /// replaces its target: fsync, rename, then fsync the directory.
    ///
    /// # Errors
    ///
    /// [`GraphError::Io`] on any failed (or injected) step, or for a
    /// writer that was not staged.
    pub fn commit(mut self, faults: Option<&FaultPlan>) -> Result<(), GraphError> {
        self.sync(faults)?;
        let FileWriter {
            path,
            target,
            label,
            file,
            ..
        } = self;
        drop(file);
        let target = target.ok_or_else(|| GraphError::Io {
            reason: format!("{} was written in place, not staged", path.display()),
        })?;
        barrier(faults, &format!("{label}.rename"))?;
        std::fs::rename(&path, &target)
            .map_err(|e| io_err("cannot rename into place", &target, e))?;
        barrier(faults, &format!("{label}.dirsync"))?;
        fsync_dir(target.parent().unwrap_or(Path::new(".")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::ScratchDir;

    fn replace(path: &Path, bytes: &[u8], faults: Option<&FaultPlan>) -> Result<(), GraphError> {
        let mut w = FileWriter::stage(path, "value")?;
        w.write(bytes, faults)?;
        w.commit(faults)
    }

    #[test]
    fn durable_write_replaces_atomically() {
        let dir = ScratchDir::new(&std::env::temp_dir(), "decolor-writer");
        std::fs::create_dir_all(dir.path()).unwrap();
        let path = dir.path().join("value.bin");
        replace(&path, b"first", None).unwrap();
        replace(&path, b"second", None).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
    }

    #[test]
    fn faulted_durable_write_leaves_target_untouched() {
        let dir = ScratchDir::new(&std::env::temp_dir(), "decolor-writer");
        std::fs::create_dir_all(dir.path()).unwrap();
        let path = dir.path().join("value.bin");
        replace(&path, b"old", None).unwrap();
        for k in 0..3 {
            // Points 0..=2 (write, fsync, rename) all fire before the
            // rename lands, so the old content must survive.
            let plan = FaultPlan::kill_at(k);
            let err = replace(&path, b"new", Some(&plan)).unwrap_err();
            assert!(err.to_string().contains("injected"), "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), b"old", "kill at {k}");
        }
        // Short write tears only the tmp file.
        let plan = FaultPlan::short_write_at(0, 42);
        replace(&path, b"new", Some(&plan)).unwrap_err();
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
    }
}
