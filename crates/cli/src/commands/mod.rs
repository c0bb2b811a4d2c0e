//! CLI subcommands.

pub mod analyze;
pub mod color;
pub mod generate;
pub mod store;

use decolor_graph::coloring::EdgeColoring;
use decolor_graph::dot::{render, DotOptions};
use decolor_graph::Graph;

/// The options [`write_artifacts`] reads.
pub(crate) const ARTIFACT_OPTIONS: [&str; 3] = ["json", "dimacs", "dot"];

/// Writes optional `--json` / `--dot` artifacts for a graph (+ coloring).
pub(crate) fn write_artifacts(
    parsed: &crate::args::Parsed,
    g: &Graph,
    coloring: Option<&EdgeColoring>,
) -> Result<String, String> {
    let mut notes = String::new();
    if let Some(path) = parsed.option("json") {
        let payload = match coloring {
            None => serde_json::to_string_pretty(&decolor_graph::io::GraphData::from_graph(g)),
            Some(c) => serde_json::to_string_pretty(&serde_json::json!({
                "graph": decolor_graph::io::GraphData::from_graph(g),
                "edge_colors": c.as_slice(),
                "palette": c.palette(),
            })),
        }
        .map_err(|e| e.to_string())?;
        std::fs::write(path, payload).map_err(|e| format!("cannot write {path}: {e}"))?;
        notes.push_str(&format!("wrote {path}\n"));
    }
    if let Some(path) = parsed.option("dimacs") {
        std::fs::write(path, decolor_graph::io::to_dimacs(g))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        notes.push_str(&format!("wrote {path}\n"));
    }
    if let Some(path) = parsed.option("dot") {
        let opts = DotOptions {
            edge_coloring: coloring.cloned(),
            ..Default::default()
        };
        std::fs::write(path, render(g, &opts)).map_err(|e| format!("cannot write {path}: {e}"))?;
        notes.push_str(&format!("wrote {path}\n"));
    }
    Ok(notes)
}
