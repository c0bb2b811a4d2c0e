//! `decolor analyze <spec>`.

use decolor_graph::properties;

use crate::args::Parsed;
use crate::spec::build_graph;

/// Prints the structural parameters the paper's theorems key on.
///
/// # Errors
///
/// Malformed spec.
pub fn run(parsed: &mut Parsed) -> Result<String, String> {
    parsed.accept(&[])?;
    let spec = parsed
        .positional(0)
        .ok_or("analyze needs a graph spec")?
        .to_string();
    let g = build_graph(&spec)?;
    let stats = properties::degree_stats(&g);
    let degeneracy = properties::degeneracy_ordering(&g).degeneracy;
    let a_lo = properties::arboricity_lower_bound(&g);
    let lg_feasible = g.line_graph_edge_count() <= 2_000_000;
    let mut out = String::new();
    out.push_str(&format!("graph           {spec}\n"));
    out.push_str(&format!("vertices        {}\n", g.num_vertices()));
    out.push_str(&format!("edges           {}\n", g.num_edges()));
    out.push_str(&format!("Δ (max degree)  {}\n", stats.max));
    out.push_str(&format!(
        "min/mean degree {} / {:.2}\n",
        stats.min, stats.mean
    ));
    out.push_str(&format!("degeneracy      {degeneracy}\n"));
    out.push_str(&format!(
        "arboricity      in [{}, {}]\n",
        a_lo.max(1).min(degeneracy.max(1)),
        degeneracy.max(1)
    ));
    out.push_str(&format!(
        "connected       {}\n",
        properties::is_connected(&g)
    ));
    out.push_str(&format!("forest          {}\n", properties::is_forest(&g)));
    if lg_feasible {
        let lg = decolor_graph::line_graph::LineGraph::new(&g);
        out.push_str(&format!(
            "line graph      n = {}, Δ = {}, diversity = {}\n",
            lg.graph.num_vertices(),
            lg.graph.max_degree(),
            lg.cover.diversity()
        ));
    }
    // Paper guidance: which Section 5 regime applies.
    let delta = stats.max.max(1) as f64;
    let a = degeneracy.max(1) as f64;
    let hint = if a <= delta.powf(0.75) {
        "a = o(Δ)-ish: Theorems 5.2–5.4 give Δ + o(Δ) colors (try `color t52`)"
    } else {
        "arboricity close to Δ: use the star partition (try `color star:x=1`)"
    };
    out.push_str(&format!("hint            {hint}\n"));
    Ok(out)
}
