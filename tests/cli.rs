//! Error paths of the `cli` binary: bad input exits 1 with a message
//! that names the actual problem.

use std::process::Command;

/// Runs the CLI and returns (exit code, stderr).
fn cli(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cli"))
        .args(args)
        .output()
        .expect("cli binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn consensus_rejects_more_faulty_nodes_than_the_pool() {
    // Node 0 is always spared, so path:4 has 3 corruptible nodes.
    let (code, stderr) = cli(&[
        "consensus",
        "--topology",
        "path:4",
        "--faulty",
        "4",
        "--trials",
        "1",
    ]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("cannot corrupt f = 4 nodes: only 3 nodes are corruptible"),
        "stderr: {stderr}"
    );
}
