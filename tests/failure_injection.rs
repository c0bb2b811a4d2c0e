//! Failure-injection tests: malformed inputs and violated preconditions
//! must surface as structured errors, never as wrong answers.

use decolor::core::arboricity::{theorem52, theorem54};
use decolor::core::cd_coloring::{cd_coloring, CdParams};
use decolor::core::connectors::clique::clique_connector;
use decolor::core::crossing_merge::color_crossing_edges;
use decolor::core::delta_plus_one::{vertex_coloring_with_target, Seed, SubroutineConfig};
use decolor::core::h_partition::h_partition;
use decolor::core::AlgoError;
use decolor::graph::cliques::CliqueCover;
use decolor::graph::coloring::VertexColoring;
use decolor::graph::{generators, EdgeId, VertexId};
use decolor::runtime::{IdAssignment, Network};

/// An intentionally inconsistent clique cover: cliques that do not cover
/// all edges make the diversity-based degree bounds wrong; CD-Coloring
/// must detect the lemma violation instead of producing garbage.
#[test]
fn cd_coloring_detects_inconsistent_cover() {
    let g = generators::complete(8).unwrap();
    // Cover that misses most edges: each vertex alone.
    let singletons: Vec<Vec<VertexId>> = (0..8).map(|v| vec![VertexId::new(v)]).collect();
    let bad = CliqueCover::new_unchecked(8, singletons).unwrap();
    assert!(bad.validate(&g).is_err(), "cover really is inconsistent");
    let ids = IdAssignment::sequential(8);
    let params = CdParams {
        t: 2,
        x: 1,
        ..CdParams::default()
    };
    let err = cd_coloring(&g, &bad, &params, &ids).unwrap_err();
    match err {
        AlgoError::InvariantViolated { reason } => {
            assert!(reason.contains("Lemma"), "unexpected reason: {reason}");
        }
        other => panic!("expected InvariantViolated, got {other}"),
    }
}

#[test]
fn connector_rejects_undersized_t_before_touching_the_graph() {
    let g = generators::complete(5).unwrap();
    let cover = decolor::graph::cliques::cover_from_all_maximal_cliques(&g).unwrap();
    assert!(matches!(
        clique_connector(&g, &cover, 1),
        Err(AlgoError::InvalidParameters { .. })
    ));
}

#[test]
fn h_partition_stall_is_reported_with_context() {
    let g = generators::complete(10).unwrap(); // min degree 9
    let err = h_partition(&g, 3).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("stuck"), "got: {msg}");
    assert!(msg.contains("d = 3"), "got: {msg}");
}

#[test]
fn arboricity_underestimate_stalls_cleanly() {
    // A graph with arboricity ~4 but claimed a = 1 with q = 2: threshold 2
    // cannot peel the dense core.
    let g = generators::gnm(60, 60 * 8, 1).unwrap();
    let res = theorem52(&g, 1, 2.0, SubroutineConfig::default());
    assert!(
        res.is_err(),
        "must not silently succeed with a wrong arboricity"
    );
}

#[test]
fn crossing_merge_rejects_inconsistent_partition() {
    let g = generators::complete_bipartite(3, 3).unwrap();
    let mut colors = vec![None; g.num_edges()];
    // Claim everything is in A: crossing edges then have two A endpoints.
    let in_a = vec![true; 6];
    let mut net = Network::new(&g);
    let all: Vec<EdgeId> = g.edges().collect();
    assert!(color_crossing_edges(&mut net, &in_a, &mut colors, &all, 100).is_err());
}

#[test]
fn subroutine_rejects_short_seed_coloring() {
    let g = generators::path(5).unwrap();
    let short = VertexColoring::new(vec![0, 1], 2).unwrap();
    assert!(vertex_coloring_with_target(
        &g,
        Seed::Coloring(&short),
        3,
        SubroutineConfig::default()
    )
    .is_err());
}

#[test]
fn theorem54_rejects_zero_levels_and_low_q() {
    let g = generators::forest_union(50, 2, 4, 2).unwrap();
    assert!(theorem54(&g, 2, 2.5, 0, SubroutineConfig::default()).is_err());
    assert!(theorem52(&g, 2, 1.5, SubroutineConfig::default()).is_err());
}

#[test]
fn errors_are_displayable_and_sourced() {
    let g = generators::complete(4).unwrap();
    let cover = decolor::graph::cliques::cover_from_all_maximal_cliques(&g).unwrap();
    let err = clique_connector(&g, &cover, 0).unwrap_err();
    assert!(!err.to_string().is_empty());
    // Graph errors nest as sources.
    let gerr: AlgoError = decolor::graph::GraphError::SelfLoop { vertex: 1 }.into();
    assert!(std::error::Error::source(&gerr).is_some());
}

/// IDs exceeding u32 (not O(log n)-bit) are rejected by Linial's entry.
#[test]
fn oversized_ids_rejected() {
    let g = generators::path(3).unwrap();
    let ids = IdAssignment::from_ids(vec![0, 1, u64::from(u32::MAX) + 10]);
    let mut net = Network::new(&g);
    assert!(decolor::core::linial::linial_coloring(&mut net, &ids).is_err());
}

/// Damaged on-disk stores surface as `GraphError::Corrupt` — the mmap
/// pipeline refuses to open (or verify) them, so a damaged store can
/// never feed the algorithms a silently wrong topology.
#[test]
fn damaged_stores_are_corrupt_never_wrong() {
    use decolor::graph::storage::{ScratchDir, ShardedCsr, ShardedCsrBuilder};
    use decolor::graph::GraphError;

    let dir = ScratchDir::new(&std::env::temp_dir(), "decolor-fi-store");
    let g = generators::grid(9, 8).unwrap();
    let mut b = ShardedCsrBuilder::with_shard_bits(&dir, g.num_vertices(), 4).unwrap();
    for e in g.edges() {
        let [u, v] = g.endpoints(e);
        b.push_edge(u.index(), v.index()).unwrap();
    }
    drop(b.finish().unwrap());
    let manifest = std::fs::read(dir.join("manifest.bin")).unwrap();
    let is_corrupt = |r: Result<ShardedCsr, GraphError>, what: &str| match r {
        Err(GraphError::Corrupt { reason, .. }) => {
            assert!(!reason.is_empty(), "{what}: empty reason");
        }
        Ok(_) => panic!("{what}: damaged store opened"),
        Err(other) => panic!("{what}: wrong error class: {other}"),
    };

    // Bad magic in the manifest.
    let mut bad = manifest.clone();
    bad[0] ^= 0xFF;
    std::fs::write(dir.join("manifest.bin"), &bad).unwrap();
    is_corrupt(ShardedCsr::open(&dir), "bad magic");

    // Unknown format version.
    let mut bad = manifest.clone();
    bad[8] = 99;
    std::fs::write(dir.join("manifest.bin"), &bad).unwrap();
    is_corrupt(ShardedCsr::open(&dir), "version mismatch");

    // A flipped bit anywhere in the manifest fails its self-checksum.
    let mut bad = manifest.clone();
    bad[40] ^= 0x04;
    std::fs::write(dir.join("manifest.bin"), &bad).unwrap();
    is_corrupt(ShardedCsr::open(&dir), "manifest bit flip");
    std::fs::write(dir.join("manifest.bin"), &manifest).unwrap();

    // Truncated endpoint shard: the length check at open() catches it.
    let ep = std::fs::read(dir.join("ep.0")).unwrap();
    std::fs::write(dir.join("ep.0"), &ep[..ep.len() - 4]).unwrap();
    is_corrupt(ShardedCsr::open(&dir), "truncated ep shard");

    // Same-length bit rot: open() succeeds (lengths match) but the
    // checksum audit must flag the flipped shard by name.
    let mut rot = ep.clone();
    rot[7] ^= 0x01;
    std::fs::write(dir.join("ep.0"), &rot).unwrap();
    let sc = ShardedCsr::open(&dir).expect("lengths are intact");
    match sc.verify() {
        Err(GraphError::Corrupt { path, .. }) => assert!(path.contains("ep.0"), "{path}"),
        other => panic!("bit rot not flagged: {other:?}"),
    }
    drop(sc);
    std::fs::write(dir.join("ep.0"), &ep).unwrap();

    // Missing manifest with shard files present: an interrupted build,
    // reported as such (not a bare "file not found").
    std::fs::remove_file(dir.join("manifest.bin")).unwrap();
    is_corrupt(ShardedCsr::open(&dir), "missing manifest");
}
