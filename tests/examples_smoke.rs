//! Smoke coverage for every example: each must build and run to completion
//! at small shapes (`--quick` where the example supports it).
//!
//! Examples are the documented entry points of the workspace (the README
//! and the facade rustdoc both link to them), so a broken example is a
//! broken deliverable even when the library tests pass.

use std::process::Command;

/// Run one example through `cargo run --example` and assert success.
///
/// Uses the same cargo binary that is running this test (`CARGO` is set by
/// cargo for test processes) so toolchain selection is inherited; cargo's
/// own build lock serializes the nested invocation against other builds.
fn run_example(name: &str, quick: bool) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut cmd = Command::new(cargo);
    cmd.current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["run", "--example", name]);
    if quick {
        cmd.args(["--", "--quick"]);
    }
    let output = cmd
        .output()
        .unwrap_or_else(|e| panic!("spawning cargo for {name}: {e}"));
    assert!(
        output.status.success(),
        "example {name} failed with {}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
}

#[test]
fn quickstart_runs() {
    run_example("quickstart", false);
}

#[test]
fn adaptive_serving_runs() {
    run_example("adaptive_serving", true);
}

#[test]
fn batched_serving_runs() {
    run_example("batched_serving", true);
}

#[test]
fn bigbird_inference_runs() {
    run_example("bigbird_inference", true);
}

#[test]
fn continuous_serving_runs() {
    run_example("continuous_serving", true);
}

#[test]
fn custom_graph_mask_runs() {
    run_example("custom_graph_mask", true);
}

#[test]
fn genomics_longnet_runs() {
    run_example("genomics_longnet", true);
}

#[test]
fn incremental_decode_runs() {
    run_example("incremental_decode", true);
}

#[test]
fn longformer_document_runs() {
    run_example("longformer_document", true);
}

#[test]
fn model_serving_runs() {
    run_example("model_serving", true);
}
