//! The `mvrc` binary: static robustness analysis against multi-version Read Committed.

use std::io::{self, ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match mvrc_cli::run(&args) {
        Ok(mut output) => {
            if !output.text.ends_with('\n') {
                output.text.push('\n');
            }
            let mut stdout = io::stdout().lock();
            match stdout
                .write_all(output.text.as_bytes())
                .and_then(|()| stdout.flush())
            {
                // A reader that stopped early (`| head`) is not an error of the command.
                Err(err) if err.kind() != ErrorKind::BrokenPipe => {
                    report(&format!("mvrc: cannot write the output: {err}"));
                    ExitCode::from(2)
                }
                _ => ExitCode::from(output.exit_code as u8),
            }
        }
        Err(err) => {
            // The usage text helps with a malformed command line; after any other error it
            // would only bury the one line that matters.
            if matches!(err, mvrc_cli::CliError::Usage(_)) {
                report(&format!("mvrc: {err}\n\n{}", mvrc_cli::USAGE));
            } else {
                report(&format!("mvrc: {err}"));
            }
            ExitCode::from(2)
        }
    }
}

/// Writes `text` and a newline to stderr. A closed stderr loses the text but is not a panic:
/// the exit code still reports the error.
fn report(text: &str) {
    let _ = writeln!(io::stderr().lock(), "{text}");
}
