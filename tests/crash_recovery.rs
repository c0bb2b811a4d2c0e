//! Crash-recovery suite: every way the out-of-core pipeline can die must
//! leave either a store that reopens **byte-identical** to an
//! uninterrupted build, or a clean typed error — never a silently wrong
//! store or coloring.
//!
//! The sweeps are driven by the storage layer's seeded
//! [`FaultPlan`](decolor::graph::storage::FaultPlan): each build is
//! killed (or torn, or ENOSPC-failed) at fault point `k`, for every `k`
//! from 0 until a build completes untripped, so every durability step —
//! shard writes, fsyncs, atomic renames, journal checkpoints, the final
//! manifest — is crashed at least once. Everything is counter-driven and
//! seeded: no wall-clock, identical at any `DECOLOR_THREADS` (the
//! matrix script runs this suite at pool widths 1 and 4).
//!
//! The `million_vertex_*` test is `#[ignore]`d under plain `cargo test`
//! (it is sized for release builds) and run by
//! `scripts/test-matrix.sh`'s crash-recovery smoke leg.

use std::collections::BTreeMap;
use std::path::Path;

use decolor::core::linial::linial_coloring_chunked;
use decolor::core::AlgoError;
use decolor::graph::storage::{BuildOptions, FaultPlan, ScratchDir, ShardedCsr, ShardedCsrBuilder};
use decolor::graph::{generators, GraphError};
use decolor::runtime::IdAssignment;

/// Grid workload for the build sweeps: n = 80, m = 142, Δ = 4.
const ROWS: usize = 10;
const COLS: usize = 8;

fn scratch(name: &str) -> ScratchDir {
    ScratchDir::new(&std::env::temp_dir(), &format!("decolor-crash-{name}"))
}

/// Every file of a store directory, by name — the byte-identity oracle.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("store dir readable") {
        let entry = entry.unwrap();
        out.insert(
            entry.file_name().to_string_lossy().into_owned(),
            std::fs::read(entry.path()).unwrap(),
        );
    }
    out
}

/// One (possibly faulted) grid build. On fault the partial files are
/// kept, exactly as a hard kill would leave them.
fn build_grid(
    dir: &Path,
    journal_every: usize,
    plan: Option<FaultPlan>,
) -> Result<ShardedCsr, GraphError> {
    let mut b = ShardedCsrBuilder::with_options(
        dir,
        ROWS * COLS,
        BuildOptions {
            shard_bits: 4,
            journal_every,
        },
    )?;
    if let Some(plan) = plan {
        b.set_fault_plan(plan);
        b.keep_partial_on_drop();
    }
    generators::grid_stream(ROWS, COLS, &mut b)?;
    b.finish()
}

/// Reference store built with no faults.
fn reference(name: &str, journal_every: usize) -> (ScratchDir, BTreeMap<String, Vec<u8>>) {
    let dir = scratch(name);
    build_grid(&dir, journal_every, None).expect("uninterrupted build succeeds");
    let bytes = dir_bytes(&dir);
    (dir, bytes)
}

/// The post-crash invariant for a store directory: reopening either
/// fails with a typed error, or yields a complete store byte-identical
/// to `want` — never a readable-but-different store.
fn assert_recovered_or_typed_error(dir: &Path, want: &BTreeMap<String, Vec<u8>>, ctx: &str) {
    match ShardedCsr::open(dir) {
        Ok(sc) => {
            sc.verify()
                .unwrap_or_else(|e| panic!("{ctx}: store opened but fails verify: {e}"));
            assert_eq!(&dir_bytes(dir), want, "{ctx}: store opened but diverges");
        }
        Err(GraphError::Corrupt { .. } | GraphError::Io { .. }) => {}
        Err(other) => panic!("{ctx}: unexpected error class: {other}"),
    }
}

/// Sweeps a fault at every point of a **non-journaled** build: each
/// crash must leave a directory that reopens as Corrupt/Io or as the
/// byte-identical complete store.
#[test]
fn every_kill_point_leaves_corrupt_or_identical_store() {
    let (_ref_dir, want) = reference("kill-ref", 0);
    let dir = scratch("kill-sweep");
    let mut k = 0u64;
    loop {
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan::kill_at(k);
        match build_grid(&dir, 0, Some(plan.clone())) {
            Ok(_) => {
                assert!(plan.tripped().is_none(), "build succeeded past a trip");
                assert_eq!(dir_bytes(&dir), want, "untripped build diverges");
                break;
            }
            Err(GraphError::Io { .. } | GraphError::Corrupt { .. }) => {
                assert!(plan.tripped().is_some(), "failure without a tripped fault");
                assert_recovered_or_typed_error(&dir, &want, &format!("kill at {k}"));
            }
            Err(other) => panic!("kill at {k}: unexpected error class: {other}"),
        }
        k += 1;
        assert!(k < 10_000, "sweep did not terminate");
    }
    assert!(k > 20, "sweep covered only {k} fault points — seam lost?");
}

/// Sweeps torn writes (seeded short-write prefixes) and ENOSPC failures
/// over every fault point of a non-journaled build.
#[test]
fn torn_writes_and_enospc_never_yield_a_wrong_store() {
    let (_ref_dir, want) = reference("torn-ref", 0);
    for (tag, mk) in [
        (
            "short",
            (|k| FaultPlan::short_write_at(k, 0xDEC0)) as fn(u64) -> FaultPlan,
        ),
        ("enospc", FaultPlan::enospc_at as fn(u64) -> FaultPlan),
    ] {
        let dir = scratch(&format!("{tag}-sweep"));
        let mut k = 0u64;
        loop {
            let _ = std::fs::remove_dir_all(&dir);
            let plan = mk(k);
            match build_grid(&dir, 0, Some(plan.clone())) {
                Ok(_) => {
                    assert!(plan.tripped().is_none());
                    assert_eq!(dir_bytes(&dir), want, "untripped {tag} build diverges");
                    break;
                }
                Err(GraphError::Io { .. } | GraphError::Corrupt { .. }) => {
                    assert_recovered_or_typed_error(&dir, &want, &format!("{tag} at {k}"));
                }
                Err(other) => panic!("{tag} at {k}: unexpected error class: {other}"),
            }
            k += 1;
            assert!(k < 10_000, "{tag} sweep did not terminate");
        }
    }
}

/// Sweeps a kill at every point of a **journaled** build, then resumes
/// each crashed build from its journal and finishes it: the recovered
/// store must be byte-identical to the uninterrupted one.
#[test]
fn journaled_builds_resume_byte_identical_from_every_kill_point() {
    let (_ref_dir, want) = reference("resume-ref", 32);
    let dir = scratch("resume-sweep");
    let mut k = 0u64;
    let mut resumed = 0u32;
    loop {
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan::kill_at(k);
        match build_grid(&dir, 32, Some(plan.clone())) {
            Ok(_) => {
                assert!(plan.tripped().is_none());
                assert_eq!(dir_bytes(&dir), want, "untripped journaled build diverges");
                break;
            }
            Err(GraphError::Io { .. } | GraphError::Corrupt { .. }) => {
                match ShardedCsrBuilder::resume(&dir) {
                    Ok(mut b) => {
                        generators::grid_stream(ROWS, COLS, &mut b)
                            .unwrap_or_else(|e| panic!("resume replay at {k}: {e}"));
                        b.finish()
                            .unwrap_or_else(|e| panic!("resume finish at {k}: {e}"));
                        assert_eq!(
                            dir_bytes(&dir),
                            want,
                            "kill at {k}: resumed store diverges from uninterrupted build"
                        );
                        resumed += 1;
                    }
                    // The crash landed after the manifest rename (e.g. at
                    // the journal-removal step): the store is already
                    // complete and must match; only a stale journal.bin
                    // may linger, which `open` rightly ignores.
                    Err(GraphError::InvalidParameters { .. }) => {
                        let mut got = dir_bytes(&dir);
                        got.remove("journal.bin");
                        assert_eq!(got, want, "kill at {k}: complete store diverges");
                        ShardedCsr::open(&dir)
                            .unwrap_or_else(|e| panic!("complete store at {k} fails open: {e}"));
                    }
                    Err(e) => panic!("kill at {k}: resume failed: {e}"),
                }
            }
            Err(other) => panic!("kill at {k}: unexpected error class: {other}"),
        }
        k += 1;
        assert!(k < 10_000, "journaled sweep did not terminate");
    }
    assert!(resumed > 20, "only {resumed} kill points actually resumed");
}

/// The journaled sweep under explicit worker-pool widths 1 and 4 — the
/// recovery path is thread-count-invariant like everything else.
#[test]
fn recovery_is_pool_width_invariant() {
    for threads in [1usize, 4] {
        rayon::with_num_threads(threads, || {
            let (_ref_dir, want) = reference(&format!("pool-ref-{threads}"), 16);
            let dir = scratch(&format!("pool-sweep-{threads}"));
            // Three representative kill points: mid-spool, mid-scatter,
            // and during the manifest dance (past the last journal sync).
            for k in [3u64, 30, 60] {
                let _ = std::fs::remove_dir_all(&dir);
                let plan = FaultPlan::kill_at(k);
                match build_grid(&dir, 16, Some(plan.clone())) {
                    Ok(_) => assert_eq!(dir_bytes(&dir), want),
                    Err(_) => match ShardedCsrBuilder::resume(&dir) {
                        Ok(mut b) => {
                            generators::grid_stream(ROWS, COLS, &mut b).unwrap();
                            b.finish().unwrap();
                            assert_eq!(dir_bytes(&dir), want, "threads={threads} kill={k}");
                        }
                        Err(GraphError::InvalidParameters { .. }) => {
                            let mut got = dir_bytes(&dir);
                            got.remove("journal.bin");
                            assert_eq!(got, want);
                        }
                        Err(e) => panic!("threads={threads} kill={k}: {e}"),
                    },
                }
            }
        });
    }
}

/// A chunked Linial run killed between every pair of rounds (modeled by
/// `round_budget = 1`) and resumed from its checkpoint produces the
/// exact coloring, palette trace, and ledger of an uninterrupted run.
#[test]
fn checkpointed_linial_survives_kills_between_every_round() {
    let dir = scratch("linial-ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let g = generators::grid(60, 50).unwrap();
    let ids = IdAssignment::shuffled(3000, 7);
    let straight = linial_coloring_chunked(&g, &ids, None, None).unwrap();
    let (straight, straight_stats) = (straight.result, straight.stats);

    let ckpt = dir.join("round.ckpt");
    let mut last = None;
    let mut resumes = 0u32;
    for _ in 0..200 {
        let out = linial_coloring_chunked(&g, &ids, Some(&ckpt), Some(1)).unwrap();
        if out.resumed_at_round.is_some() {
            resumes += 1;
        }
        if out.completed {
            last = Some(out);
            break;
        }
    }
    let out = last.expect("interrupted run eventually completes");
    assert!(resumes >= 1, "the loop never exercised a resume");
    assert!(!ckpt.exists(), "checkpoint must be removed on completion");
    assert_eq!(out.result.coloring, straight.coloring, "coloring diverges");
    assert_eq!(out.result.palette_trace, straight.palette_trace);
    assert_eq!(out.stats, straight_stats, "ledger diverges");
}

/// A damaged or foreign checkpoint must surface as `Corrupt` — a
/// resumed run can never silently continue from the wrong state.
#[test]
fn damaged_or_foreign_checkpoints_are_rejected() {
    let dir = scratch("linial-ckpt-bad");
    std::fs::create_dir_all(&dir).unwrap();
    let g = generators::grid(60, 50).unwrap();
    let ids = IdAssignment::shuffled(3000, 3);
    let ckpt = dir.join("round.ckpt");

    // Leave a valid mid-run checkpoint behind.
    let out = linial_coloring_chunked(&g, &ids, Some(&ckpt), Some(1)).unwrap();
    assert!(!out.completed && ckpt.exists());

    // Bit-rot it: the resume must fail typed, not resume wrong state.
    let good = std::fs::read(&ckpt).unwrap();
    let mut bad = good.clone();
    bad[good.len() / 2] ^= 0x20;
    std::fs::write(&ckpt, &bad).unwrap();
    match linial_coloring_chunked(&g, &ids, Some(&ckpt), None) {
        Err(AlgoError::Graph(GraphError::Corrupt { .. })) => {}
        other => panic!("rotted checkpoint accepted: {other:?}"),
    }

    // Restore it but change the run's inputs: fingerprint mismatch.
    std::fs::write(&ckpt, &good).unwrap();
    let other_ids = IdAssignment::shuffled(3000, 4);
    match linial_coloring_chunked(&g, &other_ids, Some(&ckpt), None) {
        Err(AlgoError::Graph(GraphError::Corrupt { .. })) => {}
        other => panic!("foreign checkpoint accepted: {other:?}"),
    }
}

/// The acceptance-scale run: a million-vertex grid (Δ = 4) streamed to a
/// journaled sharded CSR, the build killed once mid-stream and resumed,
/// then chunked Linial killed after its first round and resumed — final
/// coloring, trace, and ledger byte-identical to the uninterrupted run.
/// Sized for release builds: run via `scripts/test-matrix.sh` (crash
/// smoke leg) or `cargo test --release -- --ignored`.
#[test]
#[ignore = "million-vertex scale; run in release via scripts/test-matrix.sh"]
fn million_vertex_resumed_run_is_byte_identical() {
    let (rows, cols) = (1000, 1000);
    let n = rows * cols;
    let opts = BuildOptions {
        shard_bits: 18,
        journal_every: 1 << 18,
    };

    // Uninterrupted reference store + run.
    let ref_dir = scratch("million-ref");
    let mut b = ShardedCsrBuilder::with_options(&ref_dir, n, opts).unwrap();
    generators::grid_stream(rows, cols, &mut b).unwrap();
    let sc_ref = b.finish().unwrap();
    let ids = IdAssignment::sparse(n, 4, 1);
    let straight = linial_coloring_chunked(&sc_ref, &ids, None, None).unwrap();
    let (straight, straight_stats) = (straight.result, straight.stats);
    let want = dir_bytes(&ref_dir);

    // Interrupted store: kill the builder deep into the spool (fault
    // points advance once per journal checkpoint, so point 20 lands
    // mid-stream), resume, finish.
    let dir = scratch("million-crash");
    let mut b = ShardedCsrBuilder::with_options(&dir, n, opts).unwrap();
    let plan = FaultPlan::kill_at(20);
    b.set_fault_plan(plan.clone());
    b.keep_partial_on_drop();
    let killed = generators::grid_stream(rows, cols, &mut b);
    assert!(killed.is_err(), "the planned kill fired");
    drop(b);
    let mut b = ShardedCsrBuilder::resume(&dir).unwrap();
    assert!(b.durable_edges() > 0, "resume starts from a durable prefix");
    generators::grid_stream(rows, cols, &mut b).unwrap();
    let sc = b.finish().unwrap();
    assert_eq!(dir_bytes(&dir), want, "resumed store diverges");

    // Interrupted algorithm: one round, kill, resume to completion.
    let ckpt = dir.join("linial.ckpt");
    let first = linial_coloring_chunked(&sc, &ids, Some(&ckpt), Some(1)).unwrap();
    assert!(!first.completed, "round budget stops after round 1");
    let out = linial_coloring_chunked(&sc, &ids, Some(&ckpt), None).unwrap();
    assert!(out.completed && out.resumed_at_round == Some(1));
    assert_eq!(out.result.coloring, straight.coloring, "coloring diverges");
    assert_eq!(out.result.palette_trace, straight.palette_trace);
    assert_eq!(out.stats, straight_stats);
}
