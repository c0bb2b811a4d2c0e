//! A scratch directory that removes itself.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A scratch directory that is removed, with everything under it, when
/// the guard drops — on success and error exits alike.
///
/// [`ScratchDir::new`] only names the directory (the first writer, such
/// as [`ShardedCsrBuilder::create`](super::ShardedCsrBuilder::create),
/// creates it). The guard derefs to its [`Path`], so `&dir` and
/// `dir.join(..)` work as on a `PathBuf`. Declare the guard before the
/// [`ShardedCsr`](super::ShardedCsr) it holds, so the mapping drops
/// first.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A fresh directory `{tag}-{pid}-{seq}` under `root`: the process id
    /// and a per-process counter, so neither concurrent processes nor
    /// repeated calls share one.
    pub fn new(root: &Path, tag: &str) -> ScratchDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        ScratchDir(root.join(format!("{tag}-{}-{seq}", std::process::id())))
    }

    /// The guarded directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl std::ops::Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for ScratchDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // lint: allow(result, "best-effort scratch cleanup in Drop; a leftover dir is harmless")
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_removed_on_drop() {
        let root = std::env::temp_dir();
        let a = ScratchDir::new(&root, "scratch");
        let b = ScratchDir::new(&root, "scratch");
        assert_ne!(a.path(), b.path());
        std::fs::create_dir_all(a.path().join("nested")).unwrap();
        std::fs::write(a.path().join("nested/file"), b"x").unwrap();
        let path = a.path().to_path_buf();
        drop(a);
        assert!(!path.exists());
    }
}
