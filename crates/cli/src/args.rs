//! Command-line argument parsing (hand-rolled; no external dependency).

use crate::error::CliError;
use mvrc_robustness::{AnalysisSettings, CycleCondition, Granularity};

/// Where the workload comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    /// A self-contained workload file (catalog declarations + `PROGRAM` blocks).
    File(String),
    /// A built-in benchmark: `smallbank`, `tpcc`, `auction` or `auction-n=<N>`.
    Benchmark(String),
}

/// Output format of a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable text (default).
    Text,
    /// Machine-readable JSON.
    Json,
}

/// A fully parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `mvrc analyze <workload>`: robustness verdict for the whole workload.
    Analyze {
        /// Workload source.
        input: Input,
        /// Analysis settings.
        settings: AnalysisSettings,
        /// Output format.
        format: Format,
    },
    /// `mvrc lint <workload>`: compiler-style dangerous-cycle diagnostics with source spans
    /// and a minimal promotion-repair suggestion.
    Lint {
        /// Workload source.
        input: Input,
        /// Analysis settings.
        settings: AnalysisSettings,
        /// Output format.
        format: Format,
    },
    /// `mvrc certify <workload>`: execute the analyzer's verdict — compile a non-robustness
    /// witness into a concrete MVRC history rejected by an independent serializability
    /// checker, or attest a robust subset with sampled executions.
    Certify {
        /// Workload source.
        input: Input,
        /// Analysis settings.
        settings: AnalysisSettings,
        /// Output format.
        format: Format,
        /// `--programs A,B,C`: certify this subset instead of the whole workload.
        programs: Option<Vec<String>>,
    },
    /// `mvrc subsets <workload>`: maximal robust subsets (the Figure 6 / 7 experiment).
    Subsets {
        /// Workload source.
        input: Input,
        /// Analysis settings.
        settings: AnalysisSettings,
        /// Output format.
        format: Format,
        /// `--incremental --cache F`: reuse (and update) the verdicts of the previous run
        /// stored in the snapshot file `F`, re-sweeping only subsets an edit invalidated.
        cache: Option<String>,
    },
    /// `mvrc graph <workload>`: the summary graph as Graphviz DOT.
    Graph {
        /// Workload source.
        input: Input,
        /// Analysis settings.
        settings: AnalysisSettings,
        /// Whether edges carry statement labels.
        labels: bool,
    },
    /// `mvrc programs <workload>`: list the programs and their unfolded LTPs.
    Programs {
        /// Workload source.
        input: Input,
    },
    /// `mvrc shard plan <workload> --dir D`: write a snapshot + shard plan for a distributed
    /// subset sweep.
    ShardPlan {
        /// Workload source.
        input: Input,
        /// Analysis settings.
        settings: AnalysisSettings,
        /// The shard directory to create.
        dir: String,
        /// Number of worker processes the plan fans out to.
        workers: usize,
        /// Upper bound on shards per popcount level (default: `2 × workers`).
        shards_per_level: Option<usize>,
        /// `--resume-from D`: reuse the verdict files of the completed prior run in directory
        /// `D` (may equal `--dir`), dispatching only the subsets the workload edit invalidated.
        resume_from: Option<String>,
    },
    /// `mvrc shard work --dir D --worker I`: run one worker process of a planned sweep.
    ShardWork {
        /// The shard directory holding `plan.json` + snapshot.
        dir: String,
        /// This worker's index (`0..workers`).
        worker: usize,
        /// Barrier timeout in seconds while waiting for peer verdict files.
        wait_secs: u64,
    },
    /// `mvrc shard merge --dir D`: merge every worker's verdicts into the final exploration.
    ShardMerge {
        /// The shard directory.
        dir: String,
        /// Output format.
        format: Format,
    },
    /// `mvrc serve --tenant NAME=PATH …`: host named tenant sessions as a long-lived daemon.
    Serve {
        /// The address to listen on (`host:port`; port 0 picks a free one).
        listen: String,
        /// `(name, path)` tenant specs: a `.mvrcsnap` path warm-opens a snapshot (and persists
        /// back in place), any other path parses as a workload file.
        tenants: Vec<(String, String)>,
        /// Persist every snapshot-backed tenant this often, in seconds.
        persist_secs: Option<u64>,
        /// Write the bound address to this file once listening (for port-0 scripting).
        port_file: Option<String>,
        /// Refuse to start unless every tenant boots warm (zero graph constructions, zero
        /// closure rebuilds — implies every tenant is snapshot-backed).
        require_warm: bool,
    },
    /// `mvrc client --addr A <op> …`: one request against a running daemon.
    Client {
        /// The daemon address (`host:port`).
        addr: String,
        /// The operation to perform.
        op: ClientOp,
        /// Analysis settings sent with query ops.
        settings: AnalysisSettings,
    },
    /// `mvrc help`.
    Help,
}

/// The operation a `mvrc client` invocation performs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientOp {
    /// Liveness probe.
    Ping,
    /// Per-tenant daemon statistics.
    Stats,
    /// Ask the daemon to drain and exit (same path as SIGTERM).
    Shutdown,
    /// Full analysis report for a tenant.
    Analyze {
        /// The tenant to query.
        tenant: String,
    },
    /// Robustness verdict for a tenant.
    IsRobust {
        /// The tenant to query.
        tenant: String,
    },
    /// Maximal robust subsets for a tenant (byte-identical to `mvrc subsets --json`).
    Subsets {
        /// The tenant to query.
        tenant: String,
    },
    /// Compiler-style diagnostics for a tenant.
    Lint {
        /// The tenant to query.
        tenant: String,
    },
    /// Add a program (from a `PROGRAM` block file) to a tenant.
    AddProgram {
        /// The tenant to edit.
        tenant: String,
        /// Path of the file holding exactly one `PROGRAM` block.
        file: String,
    },
    /// Remove a program from a tenant by name.
    RemoveProgram {
        /// The tenant to edit.
        tenant: String,
        /// The program name to remove.
        name: String,
    },
    /// Replace a same-named program (from a `PROGRAM` block file) in a tenant.
    ReplaceProgram {
        /// The tenant to edit.
        tenant: String,
        /// Path of the file holding exactly one `PROGRAM` block.
        file: String,
    },
    /// Persist a tenant's snapshot now.
    Persist {
        /// The tenant to persist.
        tenant: String,
    },
}

/// The usage text shown by `mvrc help` and on usage errors.
pub const USAGE: &str = "\
mvrc — static robustness analysis against multi-version Read Committed

USAGE:
    mvrc <COMMAND> <WORKLOAD> [OPTIONS]

COMMANDS:
    analyze      Decide whether the whole workload is robust against MVRC
    lint         Report each dangerous cycle as a compiler-style diagnostic with source
                 spans, and suggest a minimal set of read-to-update promotions that repairs
                 the workload
    certify      Execute the verdict: compile a non-robustness witness into a concrete MVRC
                 history rejected by an independent serializability checker, or attest a
                 robust workload with sampled executions (exit 1 = certified non-robust)
    subsets      Enumerate the maximal robust program subsets
    graph        Emit the summary graph as Graphviz DOT
    programs     List the programs and their unfolded linear transaction programs
    shard plan   Snapshot the workload and plan a multi-process subset sweep (--dir D)
    shard work   Run one worker process of a planned sweep (--dir D --worker I)
    shard merge  Merge every worker's verdict files into the final exploration (--dir D)
    serve        Host named tenant sessions as a long-lived daemon (--tenant NAME=PATH …);
                 drains gracefully on SIGTERM, persisting snapshot-backed tenants in place
    client       Send one request to a running daemon (--addr host:port <operation>)
    help         Show this message

WORKLOAD:
    <path.sql>            a self-contained workload file (TABLE / FOREIGN KEY / PROGRAM blocks)
    --benchmark <name>    a built-in benchmark: smallbank, tpcc, auction, auction-n=<N>, ycsb-t

OPTIONS:
    --tuple       track dependencies per tuple instead of per attribute ('tpl dep')
    --no-fk       ignore foreign-key constraint annotations
    --type1       use the type-I cycle condition of Alomari & Fekete instead of type-II
    --json        print machine-readable JSON (analyze / lint / certify / subsets / shard merge)
    --programs L  comma-separated program names: certify this subset instead of the whole
                  workload (certify)
    --labels      include statement labels on graph edges (graph)
    --threads N   pin the worker-pool size used by parallel sweeps (default: MVRC_THREADS
                  or the available parallelism); N must be at least 1
    --incremental reuse the previous run's verdicts from the --cache snapshot, re-sweeping
                  only subsets a workload edit invalidated (subsets; requires --cache)
    --cache F     the snapshot file holding the previous run's verdicts; created on the first
                  run, updated on every run (subsets; requires --incremental)
    --dir D       the shard directory shared by plan, work and merge (shard commands)
    --workers N   number of worker processes a shard plan fans out to (plan; default 2)
    --shards N    upper bound on shards per popcount level (plan; default 2 x workers)
    --resume-from D  reuse the verdict files of the completed run in directory D — may equal
                  --dir — so only edit-invalidated subsets are dispatched (plan)
    --worker I    this worker's index, 0-based (work)
    --wait-secs S barrier timeout while waiting for peer verdicts (work; default 120)

SERVE OPTIONS:
    --listen A        address to bind (default 127.0.0.1:7654; port 0 picks a free one)
    --tenant N=P      host tenant N from path P: *.mvrcsnap warm-opens a snapshot (and
                      persists back in place), anything else parses as a workload file
                      (repeatable)
    --persist-secs S  persist every snapshot-backed tenant every S seconds
    --port-file F     write the bound address to F once listening (port-0 scripting)
    --require-warm    refuse to start unless every tenant boots warm (zero graph
                      constructions, zero closure rebuilds)

CLIENT OPERATIONS (each `mvrc client --addr A <operation>`):
    ping | stats | shutdown
    analyze | is-robust | subsets | lint     --tenant N [settings flags]
    add-program | replace-program            --tenant N --file program.sql
    remove-program                           --tenant N --name P
    persist                                  --tenant N
    `client subsets` output is byte-identical to offline `mvrc subsets --json`.

EXIT CODES:
    0  the workload (or every program subset asked about) is robust / command succeeded
    1  the workload is not attested robust (analyze; lint: diagnostics were reported)
    2  usage or input error
";

/// Consumes a global `--threads N` option from the argument list, validating the count.
///
/// `--threads 0` is a usage error with a dedicated message — a zero-sized pool cannot run
/// anything, so the value is rejected here instead of being passed through to the pool
/// configuration.
pub fn extract_threads(args: &mut Vec<String>) -> Result<Option<usize>, CliError> {
    let Some(i) = args.iter().position(|a| a == "--threads") else {
        return Ok(None);
    };
    let Some(value) = args.get(i + 1).cloned() else {
        return Err(CliError::Usage(
            "`--threads` needs a thread count".to_string(),
        ));
    };
    let threads: usize = value.parse().map_err(|_| {
        CliError::Usage(format!(
            "`--threads` needs a positive integer, got `{value}`"
        ))
    })?;
    if threads == 0 {
        return Err(CliError::Usage(
            "`--threads 0` is invalid: the worker pool needs at least one thread".to_string(),
        ));
    }
    args.drain(i..=i + 1);
    Ok(Some(threads))
}

/// Parses the command-line arguments (excluding the binary name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter().map(String::as_str);
    let mut command = match it.next() {
        None | Some("help") | Some("--help") | Some("-h") => return Ok(Command::Help),
        Some(cmd) => cmd.to_string(),
    };
    if command == "shard" {
        let sub = it.next().ok_or_else(|| {
            CliError::Usage("`shard` needs a subcommand: plan, work or merge".to_string())
        })?;
        command = format!("shard {sub}");
    }

    let rest: Vec<&str> = it.collect();

    // `serve` and `client` take their own flag sets (tenant specs, addresses, op names), so
    // they parse in dedicated functions instead of the shared workload-flag loop below.
    if command == "serve" {
        return parse_serve(&rest);
    }
    if command == "client" {
        return parse_client(&rest);
    }

    let mut input: Option<Input> = None;
    let mut settings = AnalysisSettings::paper_default();
    let mut format = Format::Text;
    let mut labels = false;
    let mut dir: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut shards_per_level: Option<usize> = None;
    let mut worker: Option<usize> = None;
    let mut wait_secs: Option<u64> = None;
    let mut incremental = false;
    let mut programs: Option<Vec<String>> = None;
    let mut cache: Option<String> = None;
    let mut resume_from: Option<String> = None;

    // Shared parser for `--flag <positive integer>` values.
    fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(
        flag: &str,
        value: Option<&&str>,
    ) -> Result<T, CliError> {
        value
            .and_then(|v| v.parse::<T>().ok())
            .filter(|v| *v >= T::from(1u8))
            .ok_or_else(|| CliError::Usage(format!("`{flag}` needs a positive integer")))
    }

    let mut i = 0;
    while i < rest.len() {
        match rest[i] {
            "--tuple" => settings.granularity = Granularity::Tuple,
            "--attr" => settings.granularity = Granularity::Attribute,
            "--no-fk" => settings.use_foreign_keys = false,
            "--fk" => settings.use_foreign_keys = true,
            "--type1" => settings.condition = CycleCondition::TypeI,
            "--type2" => settings.condition = CycleCondition::TypeII,
            "--json" => format = Format::Json,
            "--text" => format = Format::Text,
            "--labels" => labels = true,
            "--benchmark" => {
                i += 1;
                let name = rest.get(i).ok_or_else(|| {
                    CliError::Usage("`--benchmark` needs a benchmark name".to_string())
                })?;
                input = Some(Input::Benchmark((*name).to_string()));
            }
            "--dir" => {
                i += 1;
                let path = rest
                    .get(i)
                    .ok_or_else(|| CliError::Usage("`--dir` needs a directory".to_string()))?;
                dir = Some((*path).to_string());
            }
            "--incremental" => incremental = true,
            "--programs" => {
                i += 1;
                let list = rest.get(i).ok_or_else(|| {
                    CliError::Usage(
                        "`--programs` needs a comma-separated list of program names".to_string(),
                    )
                })?;
                let names: Vec<String> = list
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if names.is_empty() {
                    return Err(CliError::Usage(
                        "`--programs` needs at least one program name".to_string(),
                    ));
                }
                programs = Some(names);
            }
            "--cache" => {
                i += 1;
                let path = rest.get(i).ok_or_else(|| {
                    CliError::Usage("`--cache` needs a snapshot file path".to_string())
                })?;
                cache = Some((*path).to_string());
            }
            "--resume-from" => {
                i += 1;
                let path = rest.get(i).ok_or_else(|| {
                    CliError::Usage("`--resume-from` needs a shard directory".to_string())
                })?;
                resume_from = Some((*path).to_string());
            }
            "--workers" => {
                i += 1;
                workers = Some(positive("--workers", rest.get(i))?);
            }
            "--shards" => {
                i += 1;
                shards_per_level = Some(positive("--shards", rest.get(i))?);
            }
            "--worker" => {
                i += 1;
                worker = Some(
                    rest.get(i)
                        .and_then(|v| v.parse::<usize>().ok())
                        .ok_or_else(|| {
                            CliError::Usage("`--worker` needs a 0-based index".to_string())
                        })?,
                );
            }
            "--wait-secs" => {
                i += 1;
                wait_secs = Some(positive("--wait-secs", rest.get(i))?);
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown option `{flag}`")));
            }
            path => {
                if input.is_some() {
                    return Err(CliError::Usage(format!("unexpected argument `{path}`")));
                }
                input = Some(Input::File(path.to_string()));
            }
        }
        i += 1;
    }

    let require_input = |input: Option<Input>| {
        input.ok_or_else(|| {
            CliError::Usage("a workload file or `--benchmark <name>` is required".to_string())
        })
    };
    let require_dir = |dir: Option<String>| {
        dir.ok_or_else(|| CliError::Usage("`--dir <directory>` is required".to_string()))
    };

    // `--incremental` and `--cache` only make sense together (and only for `subsets`).
    if command == "subsets" {
        match (incremental, &cache) {
            (true, None) => {
                return Err(CliError::Usage(
                    "`--incremental` needs `--cache <snapshot file>` to reuse verdicts from"
                        .to_string(),
                ))
            }
            (false, Some(_)) => {
                return Err(CliError::Usage(
                    "`--cache` only applies together with `--incremental`".to_string(),
                ))
            }
            _ => {}
        }
    } else if incremental || cache.is_some() {
        return Err(CliError::Usage(
            "`--incremental`/`--cache` only apply to `subsets`".to_string(),
        ));
    }
    if programs.is_some() && command != "certify" {
        return Err(CliError::Usage(
            "`--programs` only applies to `certify`".to_string(),
        ));
    }
    if resume_from.is_some() && command != "shard plan" {
        return Err(CliError::Usage(
            "`--resume-from` only applies to `shard plan`".to_string(),
        ));
    }

    match command.as_str() {
        "analyze" => Ok(Command::Analyze {
            input: require_input(input)?,
            settings,
            format,
        }),
        "lint" => Ok(Command::Lint {
            input: require_input(input)?,
            settings,
            format,
        }),
        "certify" => Ok(Command::Certify {
            input: require_input(input)?,
            settings,
            format,
            programs,
        }),
        "subsets" => Ok(Command::Subsets {
            input: require_input(input)?,
            settings,
            format,
            cache,
        }),
        "graph" => Ok(Command::Graph {
            input: require_input(input)?,
            settings,
            labels,
        }),
        "programs" => Ok(Command::Programs {
            input: require_input(input)?,
        }),
        "shard plan" => Ok(Command::ShardPlan {
            input: require_input(input)?,
            settings,
            dir: require_dir(dir)?,
            workers: workers.unwrap_or(2),
            shards_per_level,
            resume_from,
        }),
        "shard work" => {
            if input.is_some() {
                return Err(CliError::Usage(
                    "`shard work` reads its workload from the snapshot; drop the workload argument"
                        .to_string(),
                ));
            }
            Ok(Command::ShardWork {
                dir: require_dir(dir)?,
                worker: worker.ok_or_else(|| {
                    CliError::Usage("`shard work` needs `--worker <index>`".to_string())
                })?,
                wait_secs: wait_secs.unwrap_or(120),
            })
        }
        "shard merge" => {
            if input.is_some() {
                return Err(CliError::Usage(
                    "`shard merge` reads its workload from the snapshot; drop the workload argument"
                        .to_string(),
                ));
            }
            Ok(Command::ShardMerge {
                dir: require_dir(dir)?,
                format,
            })
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

/// Parses `mvrc serve` arguments.
fn parse_serve(rest: &[&str]) -> Result<Command, CliError> {
    let mut listen = "127.0.0.1:7654".to_string();
    let mut tenants: Vec<(String, String)> = Vec::new();
    let mut persist_secs: Option<u64> = None;
    let mut port_file: Option<String> = None;
    let mut require_warm = false;

    let mut i = 0;
    while i < rest.len() {
        match rest[i] {
            "--listen" => {
                i += 1;
                listen = rest
                    .get(i)
                    .ok_or_else(|| CliError::Usage("`--listen` needs a host:port".to_string()))?
                    .to_string();
            }
            "--tenant" => {
                i += 1;
                let spec = rest.get(i).ok_or_else(|| {
                    CliError::Usage("`--tenant` needs a NAME=PATH spec".to_string())
                })?;
                let (name, path) = spec.split_once('=').ok_or_else(|| {
                    CliError::Usage(format!("invalid tenant spec `{spec}` (expected NAME=PATH)"))
                })?;
                if name.is_empty() || path.is_empty() {
                    return Err(CliError::Usage(format!(
                        "invalid tenant spec `{spec}` (expected NAME=PATH)"
                    )));
                }
                if tenants.iter().any(|(n, _)| n == name) {
                    return Err(CliError::Usage(format!("duplicate tenant name `{name}`")));
                }
                tenants.push((name.to_string(), path.to_string()));
            }
            "--persist-secs" => {
                i += 1;
                persist_secs = Some(
                    rest.get(i)
                        .and_then(|v| v.parse::<u64>().ok())
                        .filter(|v| *v >= 1)
                        .ok_or_else(|| {
                            CliError::Usage("`--persist-secs` needs a positive integer".to_string())
                        })?,
                );
            }
            "--port-file" => {
                i += 1;
                port_file = Some(
                    rest.get(i)
                        .ok_or_else(|| {
                            CliError::Usage("`--port-file` needs a file path".to_string())
                        })?
                        .to_string(),
                );
            }
            "--require-warm" => require_warm = true,
            flag => {
                return Err(CliError::Usage(format!(
                    "unknown `serve` argument `{flag}`"
                )))
            }
        }
        i += 1;
    }
    if tenants.is_empty() {
        return Err(CliError::Usage(
            "`serve` needs at least one `--tenant NAME=PATH`".to_string(),
        ));
    }
    Ok(Command::Serve {
        listen,
        tenants,
        persist_secs,
        port_file,
        require_warm,
    })
}

/// Parses `mvrc client` arguments.
fn parse_client(rest: &[&str]) -> Result<Command, CliError> {
    let mut addr: Option<String> = None;
    let mut op_name: Option<String> = None;
    let mut tenant: Option<String> = None;
    let mut file: Option<String> = None;
    let mut name: Option<String> = None;
    let mut settings = AnalysisSettings::paper_default();

    let mut i = 0;
    while i < rest.len() {
        match rest[i] {
            "--tuple" => settings.granularity = Granularity::Tuple,
            "--attr" => settings.granularity = Granularity::Attribute,
            "--no-fk" => settings.use_foreign_keys = false,
            "--fk" => settings.use_foreign_keys = true,
            "--type1" => settings.condition = CycleCondition::TypeI,
            "--type2" => settings.condition = CycleCondition::TypeII,
            "--addr" => {
                i += 1;
                addr = Some(
                    rest.get(i)
                        .ok_or_else(|| CliError::Usage("`--addr` needs a host:port".to_string()))?
                        .to_string(),
                );
            }
            "--tenant" => {
                i += 1;
                tenant = Some(
                    rest.get(i)
                        .ok_or_else(|| {
                            CliError::Usage("`--tenant` needs a tenant name".to_string())
                        })?
                        .to_string(),
                );
            }
            "--file" => {
                i += 1;
                file = Some(
                    rest.get(i)
                        .ok_or_else(|| CliError::Usage("`--file` needs a file path".to_string()))?
                        .to_string(),
                );
            }
            "--name" => {
                i += 1;
                name = Some(
                    rest.get(i)
                        .ok_or_else(|| {
                            CliError::Usage("`--name` needs a program name".to_string())
                        })?
                        .to_string(),
                );
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!(
                    "unknown `client` argument `{flag}`"
                )))
            }
            word => {
                if op_name.is_some() {
                    return Err(CliError::Usage(format!("unexpected argument `{word}`")));
                }
                op_name = Some(word.to_string());
            }
        }
        i += 1;
    }

    let addr =
        addr.ok_or_else(|| CliError::Usage("`client` needs `--addr <host:port>`".to_string()))?;
    let op_name = op_name.ok_or_else(|| {
        CliError::Usage(
            "`client` needs an operation: ping, stats, shutdown, analyze, is-robust, subsets, \
             lint, add-program, remove-program, replace-program or persist"
                .to_string(),
        )
    })?;
    let require_tenant = |tenant: Option<String>| {
        tenant.ok_or_else(|| CliError::Usage(format!("`client {op_name}` needs `--tenant <name>`")))
    };
    let require_file = |file: Option<String>| {
        file.ok_or_else(|| {
            CliError::Usage(format!(
                "`client {op_name}` needs `--file <program.sql>` (one PROGRAM block)"
            ))
        })
    };

    let op = match op_name.as_str() {
        "ping" => ClientOp::Ping,
        "stats" => ClientOp::Stats,
        "shutdown" => ClientOp::Shutdown,
        "analyze" => ClientOp::Analyze {
            tenant: require_tenant(tenant)?,
        },
        "is-robust" => ClientOp::IsRobust {
            tenant: require_tenant(tenant)?,
        },
        "subsets" => ClientOp::Subsets {
            tenant: require_tenant(tenant)?,
        },
        "lint" => ClientOp::Lint {
            tenant: require_tenant(tenant)?,
        },
        "add-program" => ClientOp::AddProgram {
            tenant: require_tenant(tenant)?,
            file: require_file(file)?,
        },
        "remove-program" => ClientOp::RemoveProgram {
            tenant: require_tenant(tenant)?,
            name: name.ok_or_else(|| {
                CliError::Usage("`client remove-program` needs `--name <program>`".to_string())
            })?,
        },
        "replace-program" => ClientOp::ReplaceProgram {
            tenant: require_tenant(tenant)?,
            file: require_file(file)?,
        },
        "persist" => ClientOp::Persist {
            tenant: require_tenant(tenant)?,
        },
        other => {
            return Err(CliError::Usage(format!(
                "unknown client operation `{other}`"
            )))
        }
    };
    Ok(Command::Client { addr, op, settings })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_arguments_means_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&args(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&args(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn analyze_with_defaults_uses_the_paper_setting() {
        let cmd = parse_args(&args(&["analyze", "workload.sql"])).unwrap();
        match cmd {
            Command::Analyze {
                input,
                settings,
                format,
            } => {
                assert_eq!(input, Input::File("workload.sql".into()));
                assert_eq!(settings, AnalysisSettings::paper_default());
                assert_eq!(format, Format::Text);
            }
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn lint_parses_like_analyze() {
        let cmd = parse_args(&args(&["lint", "--benchmark", "smallbank", "--json"])).unwrap();
        match cmd {
            Command::Lint {
                input,
                settings,
                format,
            } => {
                assert_eq!(input, Input::Benchmark("smallbank".into()));
                assert_eq!(settings, AnalysisSettings::paper_default());
                assert_eq!(format, Format::Json);
            }
            other => panic!("unexpected command {other:?}"),
        }
        let cmd = parse_args(&args(&["lint", "w.sql", "--type1"])).unwrap();
        assert!(matches!(
            cmd,
            Command::Lint { settings, .. } if settings.condition == CycleCondition::TypeI
        ));
        assert!(matches!(
            parse_args(&args(&["lint"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn certify_parses_subset_and_flags() {
        let cmd = parse_args(&args(&["certify", "--benchmark", "smallbank", "--json"])).unwrap();
        match cmd {
            Command::Certify {
                input,
                settings,
                format,
                programs,
            } => {
                assert_eq!(input, Input::Benchmark("smallbank".into()));
                assert_eq!(settings, AnalysisSettings::paper_default());
                assert_eq!(format, Format::Json);
                assert_eq!(programs, None);
            }
            other => panic!("unexpected command {other:?}"),
        }
        let cmd = parse_args(&args(&[
            "certify",
            "--benchmark",
            "smallbank",
            "--programs",
            "Balance, WriteCheck",
        ]))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Certify { programs: Some(p), .. }
                if p == vec!["Balance".to_string(), "WriteCheck".to_string()]
        ));
        // A workload source is required; `--programs` is certify-only; empty lists are refused.
        assert!(matches!(
            parse_args(&args(&["certify"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["analyze", "w.sql", "--programs", "A"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["certify", "w.sql", "--programs", " , "])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn flags_adjust_settings_and_format() {
        let cmd = parse_args(&args(&[
            "subsets",
            "--benchmark",
            "smallbank",
            "--tuple",
            "--no-fk",
            "--type1",
            "--json",
        ]))
        .unwrap();
        match cmd {
            Command::Subsets {
                input,
                settings,
                format,
                cache,
            } => {
                assert_eq!(input, Input::Benchmark("smallbank".into()));
                assert_eq!(settings.granularity, Granularity::Tuple);
                assert!(!settings.use_foreign_keys);
                assert_eq!(settings.condition, CycleCondition::TypeI);
                assert_eq!(format, Format::Json);
                assert_eq!(cache, None);
            }
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn incremental_subsets_require_and_carry_the_cache() {
        let cmd = parse_args(&args(&[
            "subsets",
            "--benchmark",
            "smallbank",
            "--incremental",
            "--cache",
            "sb.mvrcsnap",
        ]))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Subsets { cache: Some(ref c), .. } if c == "sb.mvrcsnap"
        ));

        // The two flags only work together, and only for `subsets`.
        for bad in [
            vec!["subsets", "--benchmark", "smallbank", "--incremental"],
            vec![
                "subsets",
                "--benchmark",
                "smallbank",
                "--cache",
                "sb.mvrcsnap",
            ],
            vec![
                "analyze",
                "--benchmark",
                "smallbank",
                "--incremental",
                "--cache",
                "f",
            ],
            vec!["subsets", "--benchmark", "smallbank", "--cache"],
        ] {
            assert!(
                matches!(parse_args(&args(&bad)), Err(CliError::Usage(_))),
                "expected a usage error for {bad:?}"
            );
        }
    }

    #[test]
    fn graph_accepts_labels() {
        let cmd = parse_args(&args(&["graph", "w.sql", "--labels"])).unwrap();
        assert!(matches!(cmd, Command::Graph { labels: true, .. }));
    }

    #[test]
    fn shard_subcommands_parse() {
        let cmd = parse_args(&args(&[
            "shard",
            "plan",
            "--benchmark",
            "smallbank",
            "--dir",
            "/tmp/shards",
            "--workers",
            "3",
            "--shards",
            "8",
            "--tuple",
        ]))
        .unwrap();
        match cmd {
            Command::ShardPlan {
                input,
                settings,
                dir,
                workers,
                shards_per_level,
                resume_from,
            } => {
                assert_eq!(input, Input::Benchmark("smallbank".into()));
                assert_eq!(settings.granularity, Granularity::Tuple);
                assert_eq!(dir, "/tmp/shards");
                assert_eq!(workers, 3);
                assert_eq!(shards_per_level, Some(8));
                assert_eq!(resume_from, None);
            }
            other => panic!("unexpected command {other:?}"),
        }

        let cmd = parse_args(&args(&[
            "shard",
            "plan",
            "--benchmark",
            "smallbank",
            "--dir",
            "d2",
            "--resume-from",
            "d1",
        ]))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::ShardPlan { resume_from: Some(ref r), .. } if r == "d1"
        ));
        // `--resume-from` belongs to `shard plan` alone.
        assert!(matches!(
            parse_args(&args(&[
                "shard",
                "merge",
                "--dir",
                "d",
                "--resume-from",
                "d1"
            ])),
            Err(CliError::Usage(_))
        ));

        let cmd = parse_args(&args(&["shard", "work", "--dir", "d", "--worker", "0"])).unwrap();
        assert_eq!(
            cmd,
            Command::ShardWork {
                dir: "d".into(),
                worker: 0,
                wait_secs: 120,
            }
        );
        let cmd = parse_args(&args(&[
            "shard",
            "work",
            "--dir",
            "d",
            "--worker",
            "1",
            "--wait-secs",
            "5",
        ]))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::ShardWork {
                worker: 1,
                wait_secs: 5,
                ..
            }
        ));

        let cmd = parse_args(&args(&["shard", "merge", "--dir", "d", "--json"])).unwrap();
        assert_eq!(
            cmd,
            Command::ShardMerge {
                dir: "d".into(),
                format: Format::Json,
            }
        );
    }

    #[test]
    fn shard_usage_errors_are_reported() {
        for bad in [
            vec!["shard"],
            vec!["shard", "frobnicate", "--dir", "d"],
            vec!["shard", "plan", "--benchmark", "smallbank"], // missing --dir
            vec!["shard", "plan", "--dir", "d"],               // missing workload
            vec![
                "shard",
                "plan",
                "--benchmark",
                "smallbank",
                "--dir",
                "d",
                "--workers",
                "0",
            ],
            vec!["shard", "work", "--dir", "d"], // missing --worker
            vec!["shard", "work", "--worker", "0"], // missing --dir
            vec!["shard", "work", "--dir", "d", "--worker", "x"],
            vec!["shard", "work", "--dir", "d", "--worker", "0", "w.sql"],
            vec!["shard", "merge", "--benchmark", "smallbank", "--dir", "d"],
        ] {
            assert!(
                matches!(parse_args(&args(&bad)), Err(CliError::Usage(_))),
                "expected a usage error for {bad:?}"
            );
        }
    }

    #[test]
    fn threads_extraction_validates_the_count() {
        let mut ok = args(&["analyze", "--threads", "4", "w.sql"]);
        assert_eq!(extract_threads(&mut ok).unwrap(), Some(4));
        assert_eq!(ok, args(&["analyze", "w.sql"]));

        let mut absent = args(&["analyze", "w.sql"]);
        assert_eq!(extract_threads(&mut absent).unwrap(), None);

        // `--threads 0` is rejected with a dedicated message instead of reaching the pool.
        let mut zero = args(&["analyze", "--threads", "0", "w.sql"]);
        match extract_threads(&mut zero).unwrap_err() {
            CliError::Usage(msg) => assert!(msg.contains("--threads 0"), "{msg}"),
            other => panic!("unexpected error {other:?}"),
        }

        let mut garbage = args(&["--threads", "lots"]);
        assert!(matches!(
            extract_threads(&mut garbage),
            Err(CliError::Usage(_))
        ));
        let mut missing = args(&["--threads"]);
        assert!(matches!(
            extract_threads(&mut missing),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn usage_errors_are_reported() {
        assert!(matches!(
            parse_args(&args(&["analyze"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["bogus", "w.sql"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["analyze", "--wat", "w.sql"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["analyze", "a.sql", "b.sql"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&args(&["analyze", "--benchmark"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_parses_tenants_and_options() {
        let cmd = parse_args(&args(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--tenant",
            "bank=bank.mvrcsnap",
            "--tenant",
            "market=tpcc.sql",
            "--persist-secs",
            "30",
            "--port-file",
            "port.txt",
            "--require-warm",
        ]))
        .unwrap();
        match cmd {
            Command::Serve {
                listen,
                tenants,
                persist_secs,
                port_file,
                require_warm,
            } => {
                assert_eq!(listen, "127.0.0.1:0");
                assert_eq!(
                    tenants,
                    vec![
                        ("bank".to_string(), "bank.mvrcsnap".to_string()),
                        ("market".to_string(), "tpcc.sql".to_string()),
                    ]
                );
                assert_eq!(persist_secs, Some(30));
                assert_eq!(port_file.as_deref(), Some("port.txt"));
                assert!(require_warm);
            }
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn serve_rejects_bad_specs() {
        for bad in [
            &["serve"][..],
            &["serve", "--tenant", "no-equals-sign"],
            &["serve", "--tenant", "=path"],
            &["serve", "--tenant", "name="],
            &["serve", "--tenant", "a=x", "--tenant", "a=y"],
            &["serve", "--tenant", "a=x", "--persist-secs", "0"],
            &["serve", "--tenant", "a=x", "--json"],
        ] {
            assert!(
                matches!(parse_args(&args(bad)), Err(CliError::Usage(_))),
                "{bad:?} should be a usage error"
            );
        }
    }

    #[test]
    fn client_parses_ops_and_settings() {
        let cmd = parse_args(&args(&[
            "client",
            "--addr",
            "127.0.0.1:7654",
            "subsets",
            "--tenant",
            "bank",
            "--tuple",
            "--no-fk",
        ]))
        .unwrap();
        match cmd {
            Command::Client { addr, op, settings } => {
                assert_eq!(addr, "127.0.0.1:7654");
                assert_eq!(
                    op,
                    ClientOp::Subsets {
                        tenant: "bank".to_string()
                    }
                );
                assert_eq!(settings.granularity, Granularity::Tuple);
                assert!(!settings.use_foreign_keys);
            }
            other => panic!("unexpected command {other:?}"),
        }

        let cmd = parse_args(&args(&[
            "client",
            "--addr",
            "a:1",
            "remove-program",
            "--tenant",
            "bank",
            "--name",
            "WriteCheck",
        ]))
        .unwrap();
        match cmd {
            Command::Client { op, .. } => assert_eq!(
                op,
                ClientOp::RemoveProgram {
                    tenant: "bank".to_string(),
                    name: "WriteCheck".to_string()
                }
            ),
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn client_rejects_incomplete_requests() {
        for bad in [
            &["client"][..],
            &["client", "ping"],                     // no --addr
            &["client", "--addr", "a:1"],            // no op
            &["client", "--addr", "a:1", "warp"],    // unknown op
            &["client", "--addr", "a:1", "analyze"], // missing --tenant
            &["client", "--addr", "a:1", "add-program", "--tenant", "t"], // missing --file
            &["client", "--addr", "a:1", "remove-program", "--tenant", "t"], // missing --name
            &["client", "--addr", "a:1", "ping", "extra"],
        ] {
            assert!(
                matches!(parse_args(&args(bad)), Err(CliError::Usage(_))),
                "{bad:?} should be a usage error"
            );
        }
    }
}
