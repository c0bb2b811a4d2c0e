//! End-to-end CLI tests driving the actual binary.

use std::process::Command;

use decolor_graph::storage::ScratchDir;

fn decolor(args: &[&str]) -> (bool, String, String) {
    let exe = env!("CARGO_BIN_EXE_decolor");
    let out = Command::new(exe).args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_lists_commands() {
    let (ok, stdout, _) = decolor(&["help"]);
    assert!(ok);
    assert!(stdout.contains("generate"));
    assert!(stdout.contains("Theorem 5.2"));
}

#[test]
fn generate_analyze_color_pipeline() {
    let scratch = ScratchDir::new(&std::env::temp_dir(), "decolor-cli-e2e");
    let dir = scratch.path();
    std::fs::create_dir_all(dir).unwrap();
    let json = dir.join("g.json");
    let json_s = json.to_string_lossy().into_owned();

    let (ok, stdout, stderr) = decolor(&["generate", "grid:rows=6,cols=7", "--json", &json_s]);
    assert!(ok, "generate failed: {stderr}");
    assert!(stdout.contains("n = 42"));
    assert!(json.exists());

    let spec = format!("file:{json_s}");
    let (ok, stdout, stderr) = decolor(&["analyze", &spec]);
    assert!(ok, "analyze failed: {stderr}");
    assert!(stdout.contains("degeneracy"));

    let dot = dir.join("colored.dot");
    let (ok, stdout, stderr) =
        decolor(&["color", "star:x=1", &spec, "--dot", &dot.to_string_lossy()]);
    assert!(ok, "color failed: {stderr}");
    assert!(stdout.contains("palette"));
    let dot_text = std::fs::read_to_string(&dot).unwrap();
    assert!(dot_text.starts_with("graph G {"));
}

#[test]
fn mmap_backend_colors_out_of_core() {
    // The CLI names its scratch dirs `decolor-cli-mmap-<pid>-<seq>`;
    // after a child process exits — success or error — none may remain.
    let leftover = || -> Vec<std::path::PathBuf> {
        std::fs::read_dir(std::env::temp_dir())
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| {
                        e.file_name()
                            .to_string_lossy()
                            .starts_with("decolor-cli-mmap-")
                    })
                    .map(|e| e.path())
                    .collect()
            })
            .unwrap_or_default()
    };
    for stale in leftover() {
        let _ = std::fs::remove_dir_all(stale);
    }

    // Every paper algorithm runs end-to-end on mmap, and the scratch
    // directory is gone after each successful exit.
    for algo in decolor_core::algorithms::Algorithm::NAMES {
        let (ok, stdout, stderr) = decolor(&[
            "color",
            algo,
            "forest:n=200,a=2,cap=8,seed=1",
            "--backend",
            "mmap",
        ]);
        assert!(ok, "{algo} on mmap failed: {stderr}");
        assert!(stdout.contains("mmap backend"), "{stdout}");
        assert!(stdout.contains("palette"), "{stdout}");
        let left = leftover();
        assert!(left.is_empty(), "{algo} left mmap scratch behind: {left:?}");
    }

    // Error exit *after* the graph was spilled (an â = ⌈q·a⌉ past usize
    // passes the spec parser and fails inside the algorithm): scratch
    // must be gone too.
    let (ok, _, stderr) = decolor(&[
        "color",
        "t52:a=2,q=1e300",
        "grid:rows=5,cols=5",
        "--backend",
        "mmap",
    ]);
    assert!(!ok, "an overflowing â should fail");
    assert!(stderr.contains("q"), "{stderr}");
    let left = leftover();
    assert!(
        left.is_empty(),
        "error exit left mmap scratch behind: {left:?}"
    );

    // Unsupported algorithm on the mmap backend: clean error, exit 1,
    // listing the supported table.
    let (ok, _, stderr) = decolor(&["color", "misra", "grid:rows=5,cols=5", "--backend", "mmap"]);
    assert!(!ok);
    assert!(
        stderr.contains("does not support --backend mmap"),
        "{stderr}"
    );
    assert!(stderr.contains("star, cd, t52, t53, t54, c55"), "{stderr}");

    // Unknown backend: clean error.
    let (ok, _, stderr) = decolor(&["color", "star:x=1", "grid:rows=5,cols=5", "--backend", "zz"]);
    assert!(!ok);
    assert!(stderr.contains("unknown --backend"), "{stderr}");
}

#[test]
fn bad_input_fails_with_message() {
    let (ok, _, stderr) = decolor(&["color", "star:x=1", "gnm:n=10"]);
    assert!(!ok);
    assert!(stderr.contains("missing parameter"));

    let (ok, _, stderr) = decolor(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn invalid_spec_is_a_clean_error_not_a_panic() {
    for spec in [
        "martian:n=10",                                        // unknown family
        "gnm:n=10,m",                                          // malformed key=value
        "gnm:n=3,m=99",                                        // m > C(n,2)
        "regular:n=9999999999999999999,d=9999999999999999998", // n·d overflow
        "hypercube:dim=99999999999",                           // dim out of u32 range
        "file:/no/such/file.json",                             // unreadable path
    ] {
        let (ok, stdout, stderr) = decolor(&["color", "star:x=1", spec]);
        assert!(!ok, "{spec} unexpectedly succeeded: {stdout}");
        assert!(
            stderr.starts_with("error: "),
            "{spec}: stderr not a clean message: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{spec}: the CLI panicked: {stderr}"
        );
    }
}

#[test]
fn unknown_algorithm_is_a_clean_error_not_a_panic() {
    let (ok, _, stderr) = decolor(&["color", "zzz", "grid:rows=3,cols=3"]);
    assert!(!ok);
    assert!(stderr.contains("unknown algorithm `zzz`"), "{stderr}");
    assert!(stderr.contains("decolor help"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // Algorithm parameters that fail preconditions also report cleanly.
    let (ok, _, stderr) = decolor(&["color", "t52:a=2,q=1.0", "grid:rows=3,cols=3"]);
    assert!(!ok);
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn store_build_verify_and_corruption_reporting() {
    let dir = ScratchDir::new(&std::env::temp_dir(), "decolor-e2e-store");
    let dir_s = dir.to_string_lossy().into_owned();

    let (ok, stdout, stderr) = decolor(&[
        "store",
        "build",
        "grid:rows=12,cols=12",
        &dir_s,
        "--shard-bits",
        "6",
        "--journal-every",
        "50",
        "--verify",
    ]);
    assert!(ok, "store build failed: {stderr}");
    assert!(stdout.contains("n = 144"), "{stdout}");
    assert!(stdout.contains("checksums verified"), "{stdout}");
    assert!(
        !dir.join("journal.bin").exists(),
        "journal must be pruned from a complete store"
    );

    let (ok, stdout, stderr) = decolor(&["store", "verify", &dir_s]);
    assert!(ok, "store verify failed: {stderr}");
    assert!(stdout.contains("OK"), "{stdout}");

    // Flip one byte in a data shard: verify must exit 1 with a typed
    // corruption message, never print a wrong store summary as success.
    let shard = dir.join("ep.0");
    let mut bytes = std::fs::read(&shard).unwrap();
    bytes[5] ^= 0x10;
    std::fs::write(&shard, &bytes).unwrap();
    let (ok, _, stderr) = decolor(&["store", "verify", &dir_s]);
    assert!(!ok);
    assert!(stderr.contains("corrupt storage artifact"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // Truncate the shard instead: open() itself must refuse.
    std::fs::write(&shard, &bytes[..bytes.len() - 8]).unwrap();
    let (ok, _, stderr) = decolor(&["store", "verify", &dir_s]);
    assert!(!ok);
    assert!(stderr.contains("corrupt storage artifact"), "{stderr}");

    let (ok, _, stderr) = decolor(&["store", "frobnicate", &dir_s]);
    assert!(!ok);
    assert!(stderr.contains("unknown store action"), "{stderr}");
}

#[test]
fn malformed_graph_json_is_a_clean_error() {
    let dir = ScratchDir::new(&std::env::temp_dir(), "decolor-e2e-badjson");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, payload) in [
        ("syntax.json", "{\"n\": 5, \"edges\": [[0,"),
        ("missing.json", "{\"edges\": []}"),
        ("range.json", "{\"n\": 3, \"edges\": [[0, 7]]}"),
        ("loop.json", "{\"n\": 3, \"edges\": [[1, 1]]}"),
        ("huge.json", "{\"n\": 18446744073709551615, \"edges\": []}"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, payload).unwrap();
        let spec = format!("file:{}", path.to_string_lossy());
        let (ok, stdout, stderr) = decolor(&["color", "star:x=1", &spec]);
        assert!(!ok, "{name} unexpectedly succeeded: {stdout}");
        assert!(
            stderr.starts_with("error: "),
            "{name}: stderr not a clean message: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{name}: panic: {stderr}");
    }
}

#[test]
fn degenerate_theorem_parameters_are_rejected() {
    for algo in ["t52:q=inf", "t52:q=NaN", "t52:a=0"] {
        let (ok, stdout, stderr) = decolor(&["color", algo, "grid:rows=6,cols=6", "--verify"]);
        assert!(!ok, "{algo} accepted: {stdout}");
        assert!(stderr.contains("invalid parameters"), "{algo}: {stderr}");
    }
}

#[test]
fn strict_inputs_reject_unknown_keys_and_options() {
    // Unknown algorithm key: no silent default, no silent ram fallback.
    let (ok, stdout, stderr) = decolor(&["color", "star:x=1,bogus=7", "regular:n=64,d=8,seed=1"]);
    assert!(!ok, "unknown algorithm key accepted: {stdout}");
    assert!(stderr.contains("unknown parameter `bogus`"), "{stderr}");

    // Mistyped graph-spec key (`sed` for `seed`).
    let (ok, stdout, stderr) = decolor(&["color", "star:x=1", "regular:n=64,d=8,sed=1"]);
    assert!(!ok, "mistyped spec key accepted: {stdout}");
    assert!(stderr.contains("unknown parameter `sed`"), "{stderr}");

    // Mistyped option (`--backnd` for `--backend`).
    let (ok, stdout, stderr) = decolor(&[
        "color",
        "star:x=1",
        "regular:n=64,d=8,seed=1",
        "--backnd",
        "mmap",
    ]);
    assert!(!ok, "mistyped option accepted: {stdout}");
    assert!(stderr.contains("unknown option `--backnd`"), "{stderr}");

    // Baselines take only their own keys; other commands their own options.
    let (ok, _, stderr) = decolor(&["color", "misra:seed=1", "grid:rows=3,cols=3"]);
    assert!(!ok);
    assert!(stderr.contains("unknown parameter `seed`"), "{stderr}");
    let (ok, _, stderr) = decolor(&["analyze", "grid:rows=3,cols=3", "--json", "x.json"]);
    assert!(!ok);
    assert!(stderr.contains("unknown option `--json`"), "{stderr}");
}

#[test]
fn value_options_without_a_value_fail() {
    let dir = ScratchDir::new(&std::env::temp_dir(), "decolor-e2e-novalue");
    std::fs::create_dir_all(&dir).unwrap();
    for option in [
        "--json",
        "--dot",
        "--dimacs",
        "--backend",
        "--shard-bits",
        "--journal-every",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_decolor"))
            .args(["color", "star:x=1", "gnm:n=10,m=20", option])
            .current_dir(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{option}: {stderr}");
        assert!(stderr.contains("needs a value"), "{option}: {stderr}");
    }
    assert!(
        !dir.join("true").exists(),
        "a value-less option wrote `true`"
    );
}

#[test]
fn boolean_flags_never_swallow_the_next_token() {
    let (ok, stdout, stderr) = decolor(&["color", "--verify", "star:x=1", "gnm:n=10,m=20"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains('✓') && !stdout.contains('✗'), "{stdout}");
}

#[test]
fn verify_certifies_every_paper_algorithm() {
    for algo in decolor_core::algorithms::Algorithm::NAMES {
        let (ok, stdout, stderr) =
            decolor(&["color", algo, "forest:n=200,a=2,cap=8,seed=1", "--verify"]);
        assert!(ok, "{algo} --verify failed: {stderr}");
        assert!(
            stdout.matches('✓').count() == 2 && !stdout.contains('✗'),
            "{algo}: {stdout}"
        );
        assert!(stdout.contains("rounds"), "{algo}: {stdout}");
    }
}
