//! Error type of the command-line front-end.

use std::fmt;

/// Errors surfaced to the `mvrc` user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The command line itself was malformed (unknown command, missing argument, …). The
    /// message is shown together with the usage text.
    Usage(String),
    /// A workload file could not be read.
    Io {
        /// The path that failed.
        path: String,
        /// The underlying error message.
        message: String,
    },
    /// The workload file could not be parsed or translated into BTPs.
    Workload(String),
    /// A `shard plan|work|merge` step failed (snapshot, plan, verdict or barrier error).
    Shard(String),
    /// A `serve` / `client` step failed (bind, connect, tenant boot or server-side error).
    Serve(String),
    /// `subsets` was asked to sweep more programs than the sweep accepts.
    TooManyPrograms(mvrc_robustness::TooManyPrograms),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Io { path, message } => write!(f, "cannot read `{path}`: {message}"),
            CliError::Workload(msg) => write!(f, "invalid workload: {msg}"),
            CliError::Shard(msg) => write!(f, "shard error: {msg}"),
            CliError::Serve(msg) => write!(f, "serve error: {msg}"),
            CliError::TooManyPrograms(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_with_context() {
        assert!(CliError::Usage("missing file".into())
            .to_string()
            .contains("usage error"));
        let io = CliError::Io {
            path: "w.sql".into(),
            message: "no such file".into(),
        };
        assert!(io.to_string().contains("w.sql"));
        assert!(CliError::Workload("bad".into())
            .to_string()
            .contains("invalid workload"));
    }
}
