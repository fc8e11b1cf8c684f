//! Command implementations: loading workloads and producing the report text.

use crate::args::{ClientOp, Command, Format, Input};
use crate::error::CliError;
use mvrc_benchmarks::Workload;
use mvrc_btp::sql::{check_workload_ltps, parse_workload_file, MAX_WORKLOAD_LTPS};
use mvrc_btp::unfold_set_le2;
use mvrc_btp::BtpError;
use mvrc_robustness::{
    abbreviate_program_name, explore_subsets, to_dot, AnalysisSettings, DotOptions,
    RobustnessSession, TooManyPrograms,
};
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

/// The result of running a command: the text to print and the process exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandOutput {
    /// The report text (printed to stdout).
    pub text: String,
    /// Process exit code: `0` success / robust, `1` not robust.
    pub exit_code: i32,
}

impl CommandOutput {
    fn ok(text: String) -> Self {
        CommandOutput { text, exit_code: 0 }
    }
}

/// Executes a parsed command.
pub fn execute(command: Command) -> Result<CommandOutput, CliError> {
    match command {
        Command::Help => Ok(CommandOutput::ok(crate::args::USAGE.to_string())),
        Command::Analyze {
            input,
            settings,
            format,
        } => analyze(&input, settings, format),
        Command::Lint {
            input,
            settings,
            format,
        } => lint(&input, settings, format),
        Command::Certify {
            input,
            settings,
            format,
            programs,
        } => certify(&input, settings, format, programs.as_deref()),
        Command::Subsets {
            input,
            settings,
            format,
            snapshot,
        } => subsets(&input, settings, format, snapshot.as_deref()),
        Command::Graph {
            input,
            settings,
            labels,
        } => graph(&input, settings, labels),
        Command::Programs { input } => programs(&input),
        Command::Serve {
            listen,
            tenants,
            persist_secs,
            port_file,
            require_warm,
        } => serve(
            &listen,
            &tenants,
            persist_secs,
            port_file.as_deref(),
            require_warm,
        ),
        Command::Client { addr, op, settings } => client(&addr, &op, settings),
    }
}

/// Runs the `mvrc serve` daemon: boots every tenant, binds, and blocks until a drain
/// (SIGTERM or a wire-level `shutdown` op), persisting snapshot-backed tenants on the way
/// out. Progress goes to stderr so stdout stays clean for scripts.
fn serve(
    listen: &str,
    tenant_specs: &[(String, String)],
    persist_secs: Option<u64>,
    port_file: Option<&str>,
    require_warm: bool,
) -> Result<CommandOutput, CliError> {
    mvrc_serve::signal::install_shutdown_handler();
    let mut tenants = Vec::new();
    for (name, path) in tenant_specs {
        let tenant =
            mvrc_serve::Tenant::from_path(name, Path::new(path)).map_err(CliError::Serve)?;
        let boot = tenant.boot();
        if require_warm && !boot.is_warm() {
            return Err(CliError::Serve(format!(
                "tenant `{name}` did not boot warm (source: {}, graph constructions: {}, \
                 closure rebuilds: {})",
                boot.source.label(),
                boot.constructions,
                boot.closures
            )));
        }
        let (_, session) = tenant.cell().load();
        // Progress lines are best effort: a closed stderr does not stop the daemon.
        let _ = writeln!(
            io::stderr().lock(),
            "mvrc-serve: tenant `{name}`: {} programs from {} ({}{})",
            session.program_names().len(),
            path,
            boot.source.label(),
            if boot.is_warm() { ", warm" } else { "" },
        );
        tenants.push(tenant);
    }
    let config = mvrc_serve::ServeConfig {
        listen: listen.to_string(),
        port_file: port_file.map(std::path::PathBuf::from),
        persist_secs,
    };
    let server = mvrc_serve::Server::bind(&config, tenants).map_err(CliError::Serve)?;
    let addr = server.local_addr().map_err(CliError::Serve)?;
    let _ = writeln!(io::stderr().lock(), "mvrc-serve: listening on {addr}");
    server.run().map_err(CliError::Serve)?;
    Ok(CommandOutput::ok("mvrc-serve: drained cleanly".to_string()))
}

/// Runs one `mvrc client` request and renders the result.
fn client(
    addr: &str,
    op: &ClientOp,
    settings: AnalysisSettings,
) -> Result<CommandOutput, CliError> {
    let mut client = mvrc_serve::Client::connect(addr)
        .map_err(|e| CliError::Serve(format!("connecting {addr}: {e}")))?;
    let settings_value = serde_json::to_value(&settings);
    let request = match op {
        ClientOp::Ping => serde_json::json!({ "op": "ping" }),
        ClientOp::Stats => serde_json::json!({ "op": "stats" }),
        ClientOp::Shutdown => serde_json::json!({ "op": "shutdown" }),
        ClientOp::Analyze { tenant } => serde_json::json!({
            "op": "analyze", "tenant": tenant, "settings": settings_value,
        }),
        ClientOp::IsRobust { tenant } => serde_json::json!({
            "op": "is_robust", "tenant": tenant, "settings": settings_value,
        }),
        ClientOp::Subsets { tenant } => serde_json::json!({
            "op": "explore_subsets", "tenant": tenant, "settings": settings_value,
        }),
        ClientOp::Lint { tenant } => serde_json::json!({
            "op": "lint", "tenant": tenant, "settings": settings_value,
        }),
        ClientOp::AddProgram { tenant, file } => serde_json::json!({
            "op": "add_program", "tenant": tenant, "program_sql": read_program_file(file)?,
        }),
        ClientOp::RemoveProgram { tenant, name } => serde_json::json!({
            "op": "remove_program", "tenant": tenant, "name": name,
        }),
        ClientOp::ReplaceProgram { tenant, file } => serde_json::json!({
            "op": "replace_program", "tenant": tenant, "program_sql": read_program_file(file)?,
        }),
        ClientOp::Persist { tenant } => serde_json::json!({ "op": "persist", "tenant": tenant }),
    };
    let result = client
        .call(&request)
        .map_err(|e| CliError::Serve(e.to_string()))?;

    // Verdict-carrying replies exit 1 when not robust, mirroring the offline commands.
    let exit_code = match op {
        ClientOp::Analyze { .. } => bool_at(&result, &["report", "outcome", "robust"]),
        ClientOp::IsRobust { .. } => bool_at(&result, &["robust"]),
        ClientOp::Lint { .. } => bool_at(&result, &["robust"]),
        _ => None,
    }
    .map_or(0, |robust| i32::from(!robust));

    let text = match op {
        ClientOp::Ping => "pong".to_string(),
        _ => serde_json::to_string_pretty(&result).expect("reply serializes"),
    };
    Ok(CommandOutput { text, exit_code })
}

/// Reads a `PROGRAM` block file for `client add-program` / `replace-program`.
fn read_program_file(path: &str) -> Result<String, CliError> {
    fs::read_to_string(path).map_err(|e| CliError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })
}

/// Looks up a nested boolean in a JSON reply.
fn bool_at(value: &serde_json::Value, path: &[&str]) -> Option<bool> {
    let mut at = value;
    for key in path {
        at = at.get(key)?;
    }
    at.as_bool()
}

/// Reads and parses a workload file, returning the workload together with the file's text
/// (which `lint` quotes in its diagnostics).
fn read_workload_file(path: &str) -> Result<(Workload, String), CliError> {
    let text = fs::read_to_string(path).map_err(|e| CliError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })?;
    let (schema, programs) =
        parse_workload_file(&text).map_err(|e| CliError::Workload(e.to_string()))?;
    let name = schema.name().to_string();
    Ok((Workload::new(name, schema, programs, &[]), text))
}

/// Loads a workload from a file or resolves a built-in benchmark.
pub fn load_workload(input: &Input) -> Result<Workload, CliError> {
    match input {
        Input::File(path) => read_workload_file(path).map(|(workload, _)| workload),
        Input::Benchmark(name) => {
            let workload = builtin_benchmark(name)?;
            // The bundled files passed the translator's budget; the generated `ycsb-t` and
            // `auction-n` workloads went through no translator, so they are checked here.
            check_workload_ltps(&workload.programs, workload.unfold).map_err(workload_error)?;
            Ok(workload)
        }
    }
}

fn workload_error(e: BtpError) -> CliError {
    CliError::Workload(e.to_string())
}

/// The `--benchmark` workload called `name`.
fn builtin_benchmark(name: &str) -> Result<Workload, CliError> {
    match name {
        "smallbank" => Ok(mvrc_benchmarks::smallbank()),
        "tpcc" | "tpc-c" => Ok(mvrc_benchmarks::tpcc()),
        "auction" => Ok(mvrc_benchmarks::auction()),
        "ycsb-t" | "ycsbt" => Ok(mvrc_benchmarks::ycsb_t(
            mvrc_benchmarks::YcsbtConfig::default(),
        )),
        scaled if scaled.starts_with("auction-n=") => {
            let n: usize = scaled["auction-n=".len()..].parse().map_err(|_| {
                CliError::Usage(format!("invalid scaling factor in `{scaled}`"))
            })?;
            if n == 0 {
                return Err(CliError::Usage(
                    "auction-n needs a scaling factor ≥ 1".into(),
                ));
            }
            // Its items are alike, so the budget can refuse a huge `n` before `2n` programs
            // are built.
            let item = mvrc_benchmarks::auction_n(1);
            let count = check_workload_ltps(&item.programs, item.unfold)
                .map_err(workload_error)?
                .saturating_mul(n as u64);
            if count > MAX_WORKLOAD_LTPS {
                return Err(workload_error(BtpError::TooManyWorkloadLtps {
                    count,
                    limit: MAX_WORKLOAD_LTPS,
                }));
            }
            Ok(mvrc_benchmarks::auction_n(n))
        }
        other => Err(CliError::Usage(format!(
            "unknown benchmark `{other}` (expected smallbank, tpcc, auction, auction-n=<N> or ycsb-t)"
        ))),
    }
}

fn abbreviator(workload: &Workload) -> impl Fn(&str) -> String + '_ {
    move |name: &str| {
        let abbreviated = workload.abbreviate(name);
        if abbreviated == name {
            abbreviate_program_name(name)
        } else {
            abbreviated
        }
    }
}

fn analyze(
    input: &Input,
    settings: AnalysisSettings,
    format: Format,
) -> Result<CommandOutput, CliError> {
    let session = RobustnessSession::new(load_workload(input)?);
    let report = session.analyze(settings);
    let exit_code = if report.is_robust() { 0 } else { 1 };

    let text = match format {
        Format::Json => {
            let value = serde_json::json!({
                "workload": session.workload().name,
                "programs": session.program_names(),
                "report": report,
            });
            serde_json::to_string_pretty(&value).expect("report serializes")
        }
        Format::Text => {
            let mut out = String::new();
            writeln!(out, "workload:           {}", session.workload().name).unwrap();
            writeln!(
                out,
                "programs:           {}",
                session.program_names().join(", ")
            )
            .unwrap();
            writeln!(out, "unfolded LTPs:      {}", session.ltps().len()).unwrap();
            writeln!(out, "{report}").unwrap();
            if report.is_robust() {
                writeln!(
                    out,
                    "\nThe workload is robust against MVRC: it can be executed under isolation\n\
                     level (multi-version) Read Committed without giving up serializability."
                )
                .unwrap();
            } else {
                writeln!(
                    out,
                    "\nThe workload was NOT attested robust. Executing it under Read Committed may\n\
                     produce non-serializable behaviour; run `mvrc subsets` to find robust subsets."
                )
                .unwrap();
            }
            out
        }
    };
    Ok(CommandOutput { text, exit_code })
}

/// `mvrc lint`: dangerous-cycle diagnostics with source spans plus a promotion repair.
///
/// Workload files keep their text here (instead of going through [`load_workload`]) so the
/// diagnostics can quote the offending source lines and prefix locations with the file name.
/// Exit code `1` means diagnostics were reported, matching `analyze`'s not-robust contract.
fn lint(
    input: &Input,
    settings: AnalysisSettings,
    format: Format,
) -> Result<CommandOutput, CliError> {
    let (workload, source_name, source_text) = match input {
        Input::File(path) => {
            let (workload, text) = read_workload_file(path)?;
            (workload, Some(path.clone()), Some(text))
        }
        Input::Benchmark(_) => (load_workload(input)?, None, None),
    };
    let report = mvrc_lint::lint_workload(
        &workload,
        &mvrc_lint::LintOptions {
            settings,
            source_name,
            suggest_repairs: true,
        },
    );
    let exit_code = if report.robust { 0 } else { 1 };
    let text = match format {
        Format::Json => serde_json::to_string_pretty(&report).expect("report serializes"),
        Format::Text => mvrc_lint::render_text(&report, source_text.as_deref()),
    };
    Ok(CommandOutput { text, exit_code })
}

fn certify(
    input: &Input,
    settings: AnalysisSettings,
    format: Format,
    programs: Option<&[String]>,
) -> Result<CommandOutput, CliError> {
    let workload = load_workload(input)?;
    let label = workload.name.clone();
    let session = RobustnessSession::new(workload);
    let subset: Vec<&str> = match programs {
        Some(names) => names.iter().map(String::as_str).collect(),
        None => session.program_names().iter().map(String::as_str).collect(),
    };
    match mvrc_hist::certify_subset(&session, &label, &subset, settings) {
        Ok(outcome) => {
            let exit_code = if outcome.is_certified() { 1 } else { 0 };
            let text = match format {
                Format::Json => outcome.to_json_pretty(),
                Format::Text => render_certify_text(&outcome),
            };
            Ok(CommandOutput { text, exit_code })
        }
        Err(mvrc_hist::CertifyError::UnknownProgram(name)) => Err(CliError::Usage(format!(
            "unknown program `{name}` (known programs: {})",
            session.program_names().join(", ")
        ))),
        // Non-robust but no witness realized within the search budget: still exit 1 (the
        // analyzer's verdict stands; only the constructive evidence is missing).
        Err(mvrc_hist::CertifyError::Unrealized { witnesses }) => {
            let text = match format {
                Format::Json => {
                    let value = serde_json::json!({
                        "workload": label,
                        "programs": subset,
                        "settings": settings.label(),
                        "condition": settings.condition.to_string(),
                        "robust": false,
                        "unrealized_witnesses": witnesses.len(),
                        "witnesses": witnesses,
                    });
                    serde_json::to_string_pretty(&value).expect("verdict serializes")
                }
                Format::Text => {
                    let mut out = format!(
                        "{label}: NOT ROBUST ({}); uncertified: none of the {} witness(es) could \
                         be realized as an executed rejected history\n",
                        settings_line(settings),
                        witnesses.len()
                    );
                    for (k, witness) in witnesses.iter().enumerate() {
                        let _ = writeln!(out, "witness {} of {}:", k + 1, witnesses.len());
                        write_witness_edges(&mut out, witness);
                    }
                    out
                }
            };
            Ok(CommandOutput { text, exit_code: 1 })
        }
        Err(e) => Err(CliError::Workload(e.to_string())),
    }
}

fn settings_line(settings: AnalysisSettings) -> String {
    format!("{}, {}", settings.label(), settings.condition)
}

/// One line per blamed edge: its role, then `from[stmt] -> to[stmt]`.
fn write_witness_edges(out: &mut String, edges: &[mvrc_hist::WitnessEdge]) {
    for e in edges {
        let _ = writeln!(
            out,
            "  {:<15} {}[{}] -> {}[{}]",
            e.role, e.from, e.from_stmt, e.to, e.to_stmt
        );
    }
}

fn render_certify_text(outcome: &mvrc_hist::CertifyOutcome) -> String {
    let mut out = String::new();
    match outcome {
        mvrc_hist::CertifyOutcome::Certified(c) => {
            let _ = writeln!(
                out,
                "workload: {} ({}, {})",
                c.workload, c.settings, c.condition
            );
            let _ = writeln!(out, "programs: {}", c.programs.join(", "));
            let _ = writeln!(
                out,
                "verdict:  NOT ROBUST — certified by an executed MVRC history"
            );
            let _ = writeln!(out, "witness ({}):", c.witness_kind);
            write_witness_edges(&mut out, &c.witness);
            let r = &c.realization;
            let _ = writeln!(
                out,
                "execution: {} instance(s) [{}], key plan {}, {} plan actions, commit order {:?}",
                r.instances.len(),
                r.instances.join(", "),
                r.key_variant,
                r.interleaving.len(),
                r.commit_order
            );
            let _ = writeln!(out, "anomaly:   {}", r.anomaly);
            let _ = writeln!(
                out,
                "checker:   non-serializable ({} conflicts, cycle of {} edges)",
                r.verdict.conflicts,
                r.verdict.cycle.len()
            );
        }
        mvrc_hist::CertifyOutcome::Attested(a) => {
            let _ = writeln!(
                out,
                "workload: {} ({}, {})",
                a.workload, a.settings, a.condition
            );
            let _ = writeln!(out, "programs: {}", a.programs.join(", "));
            let _ = writeln!(
                out,
                "verdict:  ROBUST — attested by sampled executions ({} seeds: {} committed, \
                 {} aborted), every committed history serializable",
                a.seeds, a.runs_executed, a.runs_aborted
            );
        }
    }
    out
}

fn subsets(
    input: &Input,
    settings: AnalysisSettings,
    format: Format,
    snapshot: Option<&str>,
) -> Result<CommandOutput, CliError> {
    let session = RobustnessSession::new(load_workload(input)?);
    TooManyPrograms::check(session.program_names().len()).map_err(CliError::TooManyPrograms)?;
    let exploration = explore_subsets(&session, settings);
    if let Some(path) = snapshot {
        mvrc_dist::save_snapshot(&session, path).map_err(|e| CliError::Snapshot(e.to_string()))?;
    }
    let workload = session.workload();

    let text = match format {
        Format::Json => {
            let value = serde_json::json!({
                "workload": workload.name,
                "exploration": exploration,
            });
            serde_json::to_string_pretty(&value).expect("exploration serializes")
        }
        Format::Text => {
            let abbreviate = abbreviator(workload);
            let mut out = String::new();
            writeln!(out, "workload:        {}", workload.name).unwrap();
            writeln!(out, "setting:         {}", settings).unwrap();
            writeln!(out, "programs:        {}", exploration.programs.join(", ")).unwrap();
            writeln!(out, "robust subsets:  {}", exploration.robust.len()).unwrap();
            writeln!(
                out,
                "cycle tests:     {} run, {} pruned via downward and upward closure",
                exploration.cycle_tests, exploration.pruned
            )
            .unwrap();
            writeln!(out, "maximal robust subsets:").unwrap();
            writeln!(out, "  {}", exploration.render_maximal(&abbreviate)).unwrap();
            out
        }
    };
    Ok(CommandOutput::ok(text))
}

fn graph(
    input: &Input,
    settings: AnalysisSettings,
    labels: bool,
) -> Result<CommandOutput, CliError> {
    let session = RobustnessSession::new(load_workload(input)?);
    let graph = session.graph(settings);
    let dot = to_dot(
        &graph,
        DotOptions {
            edge_labels: labels,
        },
    );
    Ok(CommandOutput::ok(dot))
}

fn programs(input: &Input) -> Result<CommandOutput, CliError> {
    let workload = load_workload(input)?;
    let ltps = unfold_set_le2(&workload.programs);
    let mut out = String::new();
    writeln!(out, "workload: {}", workload.name).unwrap();
    writeln!(out, "programs: {}", workload.programs.len()).unwrap();
    writeln!(out, "unfolded linear transaction programs: {}", ltps.len()).unwrap();
    for ltp in &ltps {
        writeln!(out, "  {ltp}").unwrap();
    }
    Ok(CommandOutput::ok(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{Command, Format, Input};
    use mvrc_robustness::AnalysisSettings;

    fn auction_input() -> Input {
        Input::Benchmark("auction".into())
    }

    #[test]
    fn certify_smallbank_exits_one_with_a_rejected_history() {
        let out = execute(Command::Certify {
            input: Input::Benchmark("smallbank".into()),
            settings: AnalysisSettings::paper_default(),
            format: Format::Text,
            programs: None,
        })
        .unwrap();
        assert_eq!(out.exit_code, 1);
        assert!(out.text.contains("NOT ROBUST"), "{}", out.text);
        assert!(out.text.contains("anomaly:"), "{}", out.text);
        assert!(
            out.text.contains("checker:   non-serializable"),
            "{}",
            out.text
        );
    }

    #[test]
    fn certify_auction_attests_and_exits_zero() {
        let out = execute(Command::Certify {
            input: auction_input(),
            settings: AnalysisSettings::paper_default(),
            format: Format::Text,
            programs: None,
        })
        .unwrap();
        assert_eq!(out.exit_code, 0);
        assert!(out.text.contains("ROBUST — attested"), "{}", out.text);
    }

    #[test]
    fn certify_subset_flag_narrows_the_programs() {
        let out = execute(Command::Certify {
            input: Input::Benchmark("smallbank".into()),
            settings: AnalysisSettings::paper_default(),
            format: Format::Json,
            programs: Some(vec!["Balance".into(), "WriteCheck".into()]),
        })
        .unwrap();
        assert_eq!(out.exit_code, 1);
        let v: serde_json::Value = serde_json::from_str(&out.text).expect("valid JSON");
        assert_eq!(v["robust"], false);
        assert_eq!(v["workload"], "SmallBank");
        let unknown = execute(Command::Certify {
            input: Input::Benchmark("smallbank".into()),
            settings: AnalysisSettings::paper_default(),
            format: Format::Text,
            programs: Some(vec!["Nope".into()]),
        });
        assert!(matches!(unknown, Err(CliError::Usage(_))));
    }

    #[test]
    fn certify_json_is_deterministic_across_runs() {
        let run = || {
            execute(Command::Certify {
                input: Input::Benchmark("smallbank".into()),
                settings: AnalysisSettings::paper_default(),
                format: Format::Json,
                programs: None,
            })
            .unwrap()
            .text
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn load_workload_resolves_builtin_benchmarks() {
        assert_eq!(
            load_workload(&Input::Benchmark("smallbank".into()))
                .unwrap()
                .name,
            "SmallBank"
        );
        assert_eq!(
            load_workload(&Input::Benchmark("tpcc".into()))
                .unwrap()
                .name,
            "TPC-C"
        );
        assert_eq!(
            load_workload(&Input::Benchmark("auction".into()))
                .unwrap()
                .name,
            "Auction"
        );
        let scaled = load_workload(&Input::Benchmark("auction-n=3".into())).unwrap();
        assert_eq!(scaled.programs.len(), 6);
        assert!(load_workload(&Input::Benchmark("auction-n=0".into())).is_err());
        assert!(load_workload(&Input::Benchmark("auction-n=x".into())).is_err());
        assert!(load_workload(&Input::Benchmark("nope".into())).is_err());
        // Auction(n) unfolds to 3n LTPs: 341 items fit the workload budget of 1,024, 342 do not.
        assert_eq!(
            load_workload(&Input::Benchmark("auction-n=341".into()))
                .unwrap()
                .programs
                .len(),
            682
        );
        let err = load_workload(&Input::Benchmark("auction-n=342".into())).unwrap_err();
        assert!(matches!(err, CliError::Workload(_)), "{err:?}");
        assert_eq!(
            err.to_string(),
            "invalid workload: the workload's programs unfold to 1026 LTPs under Unfold≤2, \
             more than the workload limit of 1024"
        );
        // A scaling factor far past the budget is refused before its programs are built.
        let err = load_workload(&Input::Benchmark(format!("auction-n={}", usize::MAX)));
        assert!(matches!(err, Err(CliError::Workload(_))));
    }

    #[test]
    fn load_workload_reports_missing_files() {
        let err = load_workload(&Input::File("/definitely/not/here.sql".into())).unwrap_err();
        assert!(matches!(err, CliError::Io { .. }));
    }

    #[test]
    fn analyze_auction_is_robust_with_paper_settings() {
        let out = execute(Command::Analyze {
            input: auction_input(),
            settings: AnalysisSettings::paper_default(),
            format: Format::Text,
        })
        .unwrap();
        assert_eq!(out.exit_code, 0);
        assert!(out.text.contains("robust against MVRC"), "{}", out.text);
    }

    #[test]
    fn analyze_smallbank_full_mix_is_rejected() {
        let out = execute(Command::Analyze {
            input: Input::Benchmark("smallbank".into()),
            settings: AnalysisSettings::paper_default(),
            format: Format::Text,
        })
        .unwrap();
        assert_eq!(out.exit_code, 1);
        assert!(out.text.contains("NOT attested robust"), "{}", out.text);
    }

    #[test]
    fn analyze_json_output_is_valid_json() {
        let out = execute(Command::Analyze {
            input: auction_input(),
            settings: AnalysisSettings::paper_default(),
            format: Format::Json,
        })
        .unwrap();
        let value: serde_json::Value = serde_json::from_str(&out.text).unwrap();
        assert_eq!(value["workload"], "Auction");
        assert_eq!(value["report"]["outcome"]["robust"], true);
    }

    #[test]
    fn lint_auction_benchmark_is_clean_and_exits_zero() {
        let out = execute(Command::Lint {
            input: auction_input(),
            settings: AnalysisSettings::paper_default(),
            format: Format::Text,
        })
        .unwrap();
        assert_eq!(out.exit_code, 0);
        assert!(out.text.contains("robust against MVRC"), "{}", out.text);
        assert!(!out.text.contains("error["), "{}", out.text);
    }

    #[test]
    fn lint_smallbank_file_reports_spans_and_a_repair() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/smallbank.sql");
        let out = execute(Command::Lint {
            input: Input::File(path.to_string()),
            settings: AnalysisSettings::paper_default(),
            format: Format::Text,
        })
        .unwrap();
        assert_eq!(out.exit_code, 1);
        assert!(out.text.contains("error[MVRC002]"), "{}", out.text);
        // The primary location resolves to a real file:line:column in the input SQL.
        assert!(
            out.text.contains("workloads/smallbank.sql:"),
            "{}",
            out.text
        );
        // The quoted source line appears with a caret underline.
        assert!(out.text.contains(" | "), "{}", out.text);
        assert!(
            out.text.contains("help: promote these reads"),
            "{}",
            out.text
        );
        assert!(out.text.contains("repair verified"), "{}", out.text);
    }

    #[test]
    fn lint_json_is_valid_and_machine_checkable() {
        let out = execute(Command::Lint {
            input: Input::Benchmark("smallbank".into()),
            settings: AnalysisSettings::paper_default(),
            format: Format::Json,
        })
        .unwrap();
        assert_eq!(out.exit_code, 1);
        let value: serde_json::Value = serde_json::from_str(&out.text).unwrap();
        assert_eq!(value["workload"], "SmallBank");
        assert_eq!(value["robust"], false);
        assert!(!value["diagnostics"].as_array().unwrap().is_empty());
        assert_eq!(value["repair"]["verified"], true);
    }

    #[test]
    fn subsets_lists_the_figure_6_smallbank_subsets() {
        let out = execute(Command::Subsets {
            input: Input::Benchmark("smallbank".into()),
            settings: AnalysisSettings::paper_default(),
            format: Format::Text,
            snapshot: None,
        })
        .unwrap();
        assert_eq!(out.exit_code, 0);
        for expected in ["Am", "DC", "TS", "Bal"] {
            assert!(
                out.text.contains(expected),
                "missing {expected} in: {}",
                out.text
            );
        }
    }

    #[test]
    fn graph_emits_dot() {
        let out = execute(Command::Graph {
            input: auction_input(),
            settings: AnalysisSettings::paper_default(),
            labels: true,
        })
        .unwrap();
        assert!(out.text.starts_with("digraph"));
        assert!(out.text.contains("FindBids"));
        assert!(
            out.text.contains("style=dashed"),
            "counterflow edges are dashed: {}",
            out.text
        );
    }

    #[test]
    fn programs_lists_unfolded_ltps() {
        let out = execute(Command::Programs {
            input: Input::Benchmark("tpcc".into()),
        })
        .unwrap();
        assert!(
            out.text
                .contains("unfolded linear transaction programs: 13"),
            "{}",
            out.text
        );
    }

    #[test]
    fn help_prints_usage() {
        let out = execute(Command::Help).unwrap();
        assert!(out.text.contains("USAGE"));
    }
}
