//! Graph-spec parsing: `family:key=value,...` strings to graphs.

use decolor_core::algorithms::Params;
use decolor_core::AlgoError;
use decolor_graph::io::GraphData;
use decolor_graph::{generators, ops, Graph};

/// Builds a graph from a spec string (see `decolor help` for the list).
///
/// # Errors
///
/// Human-readable description of the malformed spec or generator failure.
pub fn build_graph(spec: &str) -> Result<Graph, String> {
    let (family, params) = spec.split_once(':').unwrap_or((spec, ""));
    if family == "dimacs" {
        if params.is_empty() {
            return Err("dimacs spec needs a path: dimacs:graph.col".into());
        }
        let text =
            std::fs::read_to_string(params).map_err(|e| format!("cannot read {params}: {e}"))?;
        return decolor_graph::io::from_dimacs(&text).map_err(|e| e.to_string());
    }
    if family == "file" {
        if params.is_empty() {
            return Err("file spec needs a path: file:graph.json".into());
        }
        let text =
            std::fs::read_to_string(params).map_err(|e| format!("cannot read {params}: {e}"))?;
        let data: GraphData =
            serde_json::from_str(&text).map_err(|e| format!("bad JSON in {params}: {e}"))?;
        return data.to_graph().map_err(|e| e.to_string());
    }
    generate(family, params).map_err(|e| e.to_string())
}

/// A generator family with its `key=value` parameters; every key must
/// be one the family reads.
fn generate(family: &str, params: &str) -> Result<Graph, AlgoError> {
    let mut p = Params::parse(params)?;
    let g = match family {
        "gnm" => generators::gnm(p.require("n")?, p.require("m")?, p.get("seed", 0)?),
        "gnp" => generators::gnp(p.require("n")?, p.get("p", 0.1)?, p.get("seed", 0)?),
        "regular" => {
            generators::random_regular(p.require("n")?, p.require("d")?, p.get("seed", 0)?)
        }
        "grid" => generators::grid(p.require("rows")?, p.require("cols")?),
        "torus" => generators::torus(p.require("rows")?, p.require("cols")?),
        "tree" => generators::random_tree(p.require("n")?, p.get("seed", 0)?),
        "forest" => generators::forest_union(
            p.require("n")?,
            p.get("a", 2)?,
            p.get("cap", 8)?,
            p.get("seed", 0)?,
        ),
        "unitdisk" => generators::unit_disk(p.require("n")?, p.get("r", 0.1)?, p.get("seed", 0)?),
        "hypercube" => generators::hypercube(p.require("dim")?),
        "ba" => generators::barabasi_albert(p.require("n")?, p.get("k", 3)?, p.get("seed", 0)?),
        "rooks" => ops::rooks_graph(p.require("p")?, p.require("q")?).map(|(g, _)| g),
        "complete" => generators::complete(p.require("n")?),
        "star" => generators::star(p.require("n")?),
        "cycle" => generators::cycle(p.require("n")?),
        "path" => generators::path(p.require("n")?),
        other => {
            return Err(AlgoError::InvalidParameters {
                reason: format!("unknown graph family `{other}`"),
            })
        }
    };
    p.finish()?;
    Ok(g?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::storage::ScratchDir;

    #[test]
    fn builds_each_family() {
        for spec in [
            "gnm:n=20,m=30,seed=1",
            "gnp:n=15,p=0.2",
            "regular:n=16,d=4",
            "grid:rows=3,cols=4",
            "torus:rows=3,cols=3",
            "tree:n=10",
            "forest:n=30,a=2,cap=4",
            "unitdisk:n=20,r=0.3",
            "hypercube:dim=4",
            "ba:n=20,k=2",
            "rooks:p=3,q=4",
            "complete:n=5",
            "star:n=6",
            "cycle:n=7",
            "path:n=8",
        ] {
            let g = build_graph(spec);
            assert!(g.is_ok(), "{spec}: {}", g.unwrap_err());
            assert!(g.unwrap().num_vertices() > 0, "{spec}");
        }
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(build_graph("gnm:n=10")
            .unwrap_err()
            .contains("missing parameter `m`"));
        assert!(build_graph("martian:n=1")
            .unwrap_err()
            .contains("unknown graph family"));
        assert!(build_graph("file:").unwrap_err().contains("needs a path"));
        assert!(build_graph("gnm:n=3,m=99").unwrap_err().contains("exceeds"));
        let err = build_graph("regular:n=16,d=4,sed=1").unwrap_err();
        assert!(err.contains("unknown parameter `sed`"), "{err}");
        assert!(build_graph("grid:rows=3,cols=3,rows=4").is_err());
    }

    #[test]
    fn dimacs_spec_roundtrip() {
        let g = generators::cycle(6).unwrap();
        let dir = ScratchDir::new(&std::env::temp_dir(), "decolor-cli-test");
        std::fs::create_dir_all(dir.path()).unwrap();
        let path = dir.path().join("g.col");
        std::fs::write(&path, decolor_graph::io::to_dimacs(&g)).unwrap();
        let loaded = build_graph(&format!("dimacs:{}", path.display())).unwrap();
        assert_eq!(loaded, g);
    }

    #[test]
    fn file_roundtrip() {
        let g = generators::cycle(5).unwrap();
        let data = decolor_graph::io::GraphData::from_graph(&g);
        let dir = ScratchDir::new(&std::env::temp_dir(), "decolor-cli-test");
        std::fs::create_dir_all(dir.path()).unwrap();
        let path = dir.path().join("g.json");
        std::fs::write(&path, serde_json::to_string(&data).unwrap()).unwrap();
        let loaded = build_graph(&format!("file:{}", path.display())).unwrap();
        assert_eq!(loaded, g);
    }
}
