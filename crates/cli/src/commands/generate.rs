//! `decolor generate <spec>`.

use crate::args::Parsed;
use crate::spec::build_graph;

/// Generates a graph and reports its headline numbers.
///
/// # Errors
///
/// Malformed spec or unwritable output paths.
pub fn run(parsed: &mut Parsed) -> Result<String, String> {
    parsed.accept(&super::ARTIFACT_OPTIONS)?;
    let spec = parsed
        .positional(0)
        .ok_or("generate needs a graph spec")?
        .to_string();
    let g = build_graph(&spec)?;
    let mut out = format!(
        "generated {spec}: n = {}, m = {}, Δ = {}\n",
        g.num_vertices(),
        g.num_edges(),
        g.max_degree()
    );
    out.push_str(&super::write_artifacts(parsed, &g, None)?);
    Ok(out)
}
