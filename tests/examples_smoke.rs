//! Smoke coverage for every example: each must build and run to completion
//! at small shapes (`--quick` where the example supports it).
//!
//! Examples are the documented entry points of the workspace (the README
//! and the facade rustdoc both link to them), so a broken example is a
//! broken deliverable even when the library tests pass.

use std::process::Command;
use std::sync::OnceLock;

/// Run one example through `cargo run --example`, assert success and
/// return its stdout.
///
/// Uses the same cargo binary that is running this test (`CARGO` is set by
/// cargo for test processes) so toolchain selection is inherited; cargo's
/// own build lock serializes the nested invocation against other builds.
fn run_example(name: &str, quick: bool) -> String {
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
    String::from_utf8(output.stdout).expect("example prints UTF-8")
}

/// The stdout of `continuous_serving --quick`, run once and shared by the
/// three tests that check its parts: the whole walkthrough, its `Auto`
/// requests, and its decoder-stack requests.
fn continuous_serving() -> &'static str {
    static STDOUT: OnceLock<String> = OnceLock::new();
    STDOUT.get_or_init(|| run_example("continuous_serving", true))
}

/// The first line of `stdout` that contains `label`.
fn line_with<'a>(stdout: &'a str, label: &str) -> &'a str {
    stdout
        .lines()
        .find(|line| line.contains(label))
        .unwrap_or_else(|| panic!("no line with {label:?} in:\n{stdout}"))
}

#[test]
fn quickstart_runs() {
    run_example("quickstart", false);
}

/// `Auto` requests are served and verified bitwise in
/// `continuous_serving`; `Auto` must have resolved at least once.
#[test]
fn adaptive_serving_runs() {
    let stdout = continuous_serving();
    let resolved = line_with(stdout, "Auto resolved under pool pressure:");
    assert!(
        resolved.contains("× "),
        "no Auto request resolved: {resolved}"
    );
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
    let stdout = continuous_serving();
    assert!(
        line_with(stdout, "outputs bitwise equal").starts_with("all "),
        "{stdout}"
    );
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

/// The 12-layer `FFFSSSSSSFFF` stack is served and verified bitwise in
/// `continuous_serving`; the trace must hold at least one stack.
#[test]
fn model_serving_runs() {
    let stdout = continuous_serving();
    assert!(
        line_with(stdout, "model:").contains("12 layers (FFFSSSSSSFFF)"),
        "{stdout}"
    );
    let workload = line_with(stdout, "workload:");
    assert!(
        !workload.contains("(0 stacks)") && workload.contains(" stacks)"),
        "no stack in the trace: {workload}"
    );
}
