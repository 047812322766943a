//! How the `pacer` binary writes its output: a stdout reader that has
//! gone away ends the run quietly with the command's own exit code, and
//! any other write failure is a one-line error with exit code 1.

use std::process::{Command, Output, Stdio};

fn pacer_with_stdout(stdout: impl Into<Stdio>, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pacer"))
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn pacer")
}

#[test]
fn closed_stdout_reader_ends_quietly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = pacer_with_stdout(writer, &["--help"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
}

#[cfg(target_os = "linux")]
#[test]
fn failed_stdout_write_is_a_one_line_error() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let out = pacer_with_stdout(full, &["--help"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.starts_with("pacer: cannot write output: ") && stderr.lines().count() == 1,
        "stderr: {stderr}"
    );
}
