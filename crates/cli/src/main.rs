//! The `pacer` binary: see [`pacer_cli::run`] for the command reference.

use std::io::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match pacer_cli::run(&args) {
        Ok(output) => {
            let mut stdout = std::io::stdout().lock();
            match stdout
                .write_all(output.text.as_bytes())
                .and_then(|()| stdout.flush())
            {
                Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
                    eprintln!("pacer: cannot write output: {e}");
                    ExitCode::FAILURE
                }
                // Written, or the reader went away (`pacer replay … | head`)
                // and wants no more: the command's own code. 0 = clean,
                // 2 = completed with quarantined trials.
                _ => ExitCode::from(output.code),
            }
        }
        Err(e) => {
            eprintln!("pacer: {e}");
            ExitCode::FAILURE
        }
    }
}
