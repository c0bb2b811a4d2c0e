//! Regenerates the **Section 5 results**: Theorem 5.2 (Δ + O(a)),
//! Theorem 5.3 (Δ + O(√(Δa))), Theorem 5.4 (x levels) and Corollary 5.5
//! (automatic Δ(1 + o(1))), on bounded-arboricity workloads, against the
//! 4Δ star-partition and the centralized Vizing floor.
//!
//! `cargo run --release -p decolor-bench --bin section5 [-- --quick]`

use decolor_baselines::misra_gries::misra_gries_edge_coloring;
use decolor_bench::{append_record, arboricity_workload, markdown_table, Record};
use decolor_core::algorithms::Algorithm;
use decolor_core::arboricity::Corollary55Params;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (nproc, threads) = decolor_bench::pool_provenance();
    let configs: &[(usize, usize, usize)] = if quick {
        &[(400, 2, 16), (400, 4, 8)]
    } else {
        &[(1500, 2, 32), (1500, 4, 16), (1500, 8, 8), (3000, 2, 64)]
    };
    let q = 2.5f64;

    println!("# Section 5 — (Δ + o(Δ))-edge-coloring of bounded-arboricity graphs\n");
    println!(
        "Workloads: unions of `a` bounded-degree forests (arboricity ≤ a \
         by construction). Palette reported as Δ + excess.\n"
    );
    for &(n, a, cap) in configs {
        let g = arboricity_workload(n, a, cap, 0x5ec5 + a as u64);
        let delta = g.max_degree();
        let excess = |palette: u64| format!("Δ+{}", palette as i64 - delta as i64);

        let central = misra_gries_edge_coloring(&g);
        let mut rows = vec![vec![
            "Vizing (central)".into(),
            format!("Δ+1 = {}", delta + 1),
            excess(central.palette()),
            "—".into(),
        ]];
        // The 4Δ star partition for contrast, then the Section 5 results;
        // bounds and round shapes come from the algorithm table.
        for (algo, x) in [
            (Algorithm::Star { x: 1 }, 1),
            (Algorithm::T52 { a, q }, 1),
            (Algorithm::T53 { a, q }, 1),
            (Algorithm::T54 { a, q, x: 2 }, 2),
            (Algorithm::T54 { a, q, x: 3 }, 3),
            (Algorithm::C55 { a }, Corollary55Params::select(delta, a).x),
        ] {
            let (coloring, stats) = algo
                .run(&g, None)
                .unwrap_or_else(|e| panic!("{algo} failed: {e}"));
            assert!(coloring.is_proper(&g));
            let bound = algo.palette_bound(delta);
            rows.push(vec![
                algo.label(delta),
                format!("{} = {bound}", algo.claim()),
                excess(coloring.palette()),
                format!("{}", stats.rounds),
            ]);
            if matches!(algo, Algorithm::Star { .. }) {
                continue;
            }
            append_record(&Record {
                experiment: algo.name().into(),
                workload: format!("forest_union(n={n}, a={a}, cap={cap})"),
                n,
                m: g.num_edges(),
                delta,
                x: x as u32,
                palette: coloring.palette(),
                colors_used: coloring.distinct_colors(),
                bound,
                rounds: stats.rounds,
                messages: stats.messages,
                wall_s: 0.0,
                time_shape: algo.round_shape(g.num_vertices(), delta),
                nproc,
                threads,
            });
        }

        println!("## n = {n}, a = {a}, Δ = {delta}, m = {}\n", g.num_edges());
        println!(
            "{}",
            markdown_table(&["algorithm", "paper bound", "palette", "rounds"], &rows)
        );
    }
}
