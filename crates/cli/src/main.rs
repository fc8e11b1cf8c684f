//! The `mvrc` binary: static robustness analysis against multi-version Read Committed.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match mvrc_cli::run(&args) {
        Ok(output) => {
            print!("{}", output.text);
            if !output.text.ends_with('\n') {
                println!();
            }
            ExitCode::from(output.exit_code as u8)
        }
        Err(err) => {
            eprintln!("mvrc: {err}");
            // The usage text helps with a malformed command line; after any other error it
            // would only bury the one line that matters.
            if matches!(err, mvrc_cli::CliError::Usage(_)) {
                eprintln!();
                eprintln!("{}", mvrc_cli::USAGE);
            }
            ExitCode::from(2)
        }
    }
}
