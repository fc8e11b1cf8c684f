//! The shard layer: a coordinator/worker protocol that fans the closure-pruned subset sweep
//! out across **processes**, communicating through files only.
//!
//! The protocol has three phases, mirrored by the `mvrc shard plan|work|merge` subcommands:
//!
//! 1. **Plan** ([`create_plan_dir`]): the coordinator saves a session snapshot, walks the
//!    popcount levels in descending order and partitions each level's `C(n, k)` rank space
//!    into [`ShardSpec`]s, assigning shards to workers round-robin. The plan (JSON) and the
//!    snapshot are written into a shared directory.
//! 2. **Work** ([`run_worker`]): each worker process opens the snapshot (verifying the
//!    workload fingerprint), then walks the plan's levels. Per level it sweeps its own shards
//!    through [`RankRangeSweep::run_shard`], writes the *new* verdict bits plus its
//!    [`ShardCounters`] into a per-`(level, worker)` verdict-bitset file, and then blocks at
//!    the **level barrier**: it polls for every peer's verdict file for the same level and
//!    ORs the peers' bits into its sweep before descending. Because a mask's Proposition 5.2
//!    pruning decision reads only the (by then fully merged) verdicts of the level above,
//!    every worker makes exactly the decision the single-process sweep would — verdicts *and*
//!    counters are reproduced exactly, just summed across shards.
//! 3. **Merge** ([`merge_verdicts`]): ORs every verdict file into a fresh sweep and sums the
//!    per-file counters, yielding a [`SubsetExploration`] identical to the single-process
//!    [`mvrc_robustness::explore_subsets`] result.
//!
//! Verdict files are written atomically (temp file + rename) and carry a *run fingerprint*
//! binding them to the snapshot, the analysis settings and the pruning switch, so artifacts
//! from a different run can never be merged by accident.

#![forbid(unsafe_code)]

use crate::codec::{fnv64, Reader, Writer};
use crate::snapshot::{open_snapshot_expecting, save_snapshot, SnapshotError};
use mvrc_robustness::{
    level_size, plan_range_shards, rebase_cached_sweep, undecided_level_runs, AnalysisSettings,
    CachedSweep, CycleCondition, Granularity, RankRangeSweep, RobustnessSession, ShardCounters,
    ShardSpec, SubsetExploration, SweepSeed, TooManyPrograms, MAX_SWEEP_PROGRAMS,
};
use serde_json::Value;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The 8-byte magic at offset 0 of every verdict-bitset file.
pub const VERDICT_MAGIC: [u8; 8] = *b"MVRCVERD";

/// The current verdict-file format version.
pub const VERDICT_FORMAT_VERSION: u32 = 1;

/// The 8-byte magic at offset 0 of a resume seed file.
pub const SEED_MAGIC: [u8; 8] = *b"MVRCSEED";

/// The current seed-file format version.
pub const SEED_FORMAT_VERSION: u32 = 1;

/// File name of the snapshot inside a shard directory.
pub const SNAPSHOT_FILE: &str = "snapshot.mvrcsnap";

/// File name of the plan inside a shard directory.
pub const PLAN_FILE: &str = "plan.json";

/// File name of the resume seed inside a shard directory (only present for resumed runs).
/// Uses the `.verdicts` extension so re-planning a directory cleans it up with the per-level
/// verdict files.
pub const SEED_FILE: &str = "seed.verdicts";

/// Errors of the shard protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The underlying snapshot failed to save, open or verify.
    Snapshot(SnapshotError),
    /// A protocol file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error message.
        message: String,
    },
    /// The plan file is missing, malformed or inconsistent.
    Plan(String),
    /// A verdict file is malformed or belongs to a different run.
    Verdict(String),
    /// A peer's verdict file did not appear within the barrier timeout.
    BarrierTimeout {
        /// The level being waited on.
        level: usize,
        /// The peer worker whose file is missing.
        worker: usize,
        /// How long the barrier waited, in milliseconds.
        waited_ms: u128,
    },
    /// The request contradicts the plan (unknown worker index, wrong program count, …).
    Protocol(String),
    /// The workload has more programs than a subset sweep accepts.
    TooManyPrograms(TooManyPrograms),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Snapshot(e) => write!(f, "{e}"),
            ShardError::Io { path, message } => write!(f, "shard io `{path}`: {message}"),
            ShardError::Plan(msg) => write!(f, "invalid shard plan: {msg}"),
            ShardError::Verdict(msg) => write!(f, "invalid verdict file: {msg}"),
            ShardError::BarrierTimeout {
                level,
                worker,
                waited_ms,
            } => write!(
                f,
                "level {level} barrier timed out after {waited_ms} ms waiting for worker {worker} \
                 (is every `mvrc shard work` process running?)"
            ),
            ShardError::Protocol(msg) => write!(f, "shard protocol error: {msg}"),
            ShardError::TooManyPrograms(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<SnapshotError> for ShardError {
    fn from(e: SnapshotError) -> Self {
        ShardError::Snapshot(e)
    }
}

impl From<TooManyPrograms> for ShardError {
    fn from(e: TooManyPrograms) -> Self {
        ShardError::TooManyPrograms(e)
    }
}

/// One planned shard: a rank-range spec plus the worker it is assigned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedShard {
    /// The rank range to sweep.
    pub spec: ShardSpec,
    /// Index of the worker process that owns this shard.
    pub worker: usize,
}

/// The shard partition of one popcount level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelPlan {
    /// The popcount level.
    pub level: usize,
    /// `C(n, level)`: the size of the level's rank space.
    pub size: usize,
    /// The shards partitioning `0..size`, in rank order.
    pub shards: Vec<PlannedShard>,
}

/// Coordinator options for [`create_plan_dir`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOptions {
    /// Number of worker processes the plan fans out to.
    pub workers: usize,
    /// Upper bound on shards per level (each level gets at most this many, never more than
    /// its size). More shards per worker smooth out load imbalance between rank ranges.
    pub shards_per_level: usize,
    /// Whether the sweep exploits Proposition 5.2 downward-closure pruning.
    pub closure_pruning: bool,
}

impl PlanOptions {
    /// Sensible defaults for `workers` processes: two shards per worker and level, pruning on.
    pub fn for_workers(workers: usize) -> Self {
        PlanOptions {
            workers: workers.max(1),
            shards_per_level: workers.max(1) * 2,
            closure_pruning: true,
        }
    }
}

/// How a resumed plan reuses a prior run: the seed file's content fingerprint, the number of
/// verdicts it carries, and the prior run it was distilled from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeInfo {
    /// FNV-1a over the seed's canonical content (reused count + robust + decided words);
    /// folded into the run fingerprint, so verdict files of a resumed run can never merge
    /// with a differently seeded one.
    pub seed_fingerprint: u64,
    /// Number of non-empty masks whose verdict the seed carries over.
    pub reused: usize,
    /// Run fingerprint of the prior run the seed's verdicts were merged from.
    pub prior_run_fingerprint: u64,
}

/// A complete coordinator plan: identity (fingerprints), analysis configuration and the
/// per-level shard partition, in the descending level order workers must follow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Fingerprint binding verdict files to this run: snapshot fingerprint ⊕ settings ⊕
    /// pruning switch ⊕ worker count ⊕ (for resumed runs) the seed fingerprint (FNV-1a over
    /// their canonical encoding).
    pub run_fingerprint: u64,
    /// Fingerprint of the snapshot file workers must open.
    pub snapshot_fingerprint: u64,
    /// The workload's name (informational).
    pub workload: String,
    /// Number of programs (`n`); the sweep covers masks `1..2^n`.
    pub programs: usize,
    /// The analysis settings of the sweep.
    pub settings: AnalysisSettings,
    /// Whether Proposition 5.2 pruning is enabled.
    pub closure_pruning: bool,
    /// Number of worker processes.
    pub workers: usize,
    /// `Some` when this run resumes a prior run: workers adopt the seed's verdicts and the
    /// levels below only cover the *undecided* rank ranges.
    pub resume: Option<ResumeInfo>,
    /// The levels in descending popcount order, each partitioned into shards. For a fresh run
    /// every level's shards partition its whole rank space `0..C(n, level)`; for a resumed
    /// run they tile exactly the undecided runs of the seed (possibly none).
    pub levels: Vec<LevelPlan>,
}

impl ShardPlan {
    /// Total number of shards across all levels.
    pub fn shard_count(&self) -> usize {
        self.levels.iter().map(|l| l.shards.len()).sum()
    }

    /// Number of shards assigned to one worker.
    pub fn shards_for_worker(&self, worker: usize) -> usize {
        self.levels
            .iter()
            .flat_map(|l| &l.shards)
            .filter(|s| s.worker == worker)
            .count()
    }
}

/// The run fingerprint: FNV-1a over the snapshot fingerprint, settings, pruning switch,
/// worker count and — for resumed runs — the seed fingerprint. The worker count participates
/// because merge reads exactly one verdict file per `(level, worker ∈ 0..workers)` — files
/// from a differently-fanned-out earlier run must not satisfy that schema by accident; the
/// seed fingerprint participates because a resumed run's files only hold the bits the seed
/// did *not* carry.
fn run_fingerprint(
    snapshot_fingerprint: u64,
    settings: AnalysisSettings,
    pruning: bool,
    workers: usize,
    seed_fingerprint: Option<u64>,
) -> u64 {
    let mut w = Writer::new();
    w.u64(snapshot_fingerprint);
    w.u8(match settings.granularity {
        Granularity::Attribute => 0,
        Granularity::Tuple => 1,
    });
    w.bool(settings.use_foreign_keys);
    w.u8(match settings.condition {
        CycleCondition::TypeI => 0,
        CycleCondition::TypeII => 1,
    });
    w.bool(pruning);
    w.u64(workers as u64);
    match seed_fingerprint {
        None => w.bool(false),
        Some(fp) => {
            w.bool(true);
            w.u64(fp);
        }
    }
    fnv64(&w.into_bytes())
}

/// Builds the in-memory plan for a session: descending levels, each level's undecided rank
/// runs partitioned by [`plan_range_shards`], shards assigned to workers round-robin. A fresh
/// run (`resume: None`) has one undecided run per level, its whole rank space; a resumed run
/// covers only the ranks its seed leaves undecided, so the fan-out dispatches exactly the
/// subsets an edit invalidated (after a pure removal: none at all).
///
/// The caller has checked the program count against [`MAX_SWEEP_PROGRAMS`].
fn build_plan(
    session: &RobustnessSession,
    settings: AnalysisSettings,
    options: &PlanOptions,
    snapshot_fingerprint: u64,
    resume: Option<(&SweepSeed, ResumeInfo)>,
) -> ShardPlan {
    let n = session.program_names().len();
    let workers = options.workers.max(1);
    let levels: Vec<LevelPlan> = (1..=n)
        .rev()
        .map(|level| {
            let size = level_size(n, level);
            let runs = match resume {
                Some((seed, _)) => undecided_level_runs(n, level, &seed.decided),
                None => vec![(0, size)],
            };
            let shards = plan_range_shards(level, &runs, options.shards_per_level.max(1))
                .into_iter()
                .enumerate()
                .map(|(i, spec)| PlannedShard {
                    spec,
                    worker: i % workers,
                })
                .collect();
            LevelPlan {
                level,
                size,
                shards,
            }
        })
        .collect();
    let resume = resume.map(|(_, info)| info);
    ShardPlan {
        run_fingerprint: run_fingerprint(
            snapshot_fingerprint,
            settings,
            options.closure_pruning,
            workers,
            resume.map(|info| info.seed_fingerprint),
        ),
        snapshot_fingerprint,
        workload: session.workload().name.clone(),
        programs: n,
        settings,
        closure_pruning: options.closure_pruning,
        workers,
        resume,
        levels,
    }
}

/// Path of the snapshot file inside a shard directory.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

/// Path of the plan file inside a shard directory.
pub fn plan_path(dir: &Path) -> PathBuf {
    dir.join(PLAN_FILE)
}

/// Path of the verdict-bitset file one worker writes for one level.
pub fn verdict_path(dir: &Path, level: usize, worker: usize) -> PathBuf {
    dir.join(format!("level_{level:02}.worker_{worker}.verdicts"))
}

/// Path of the resume seed file inside a shard directory.
pub fn seed_path(dir: &Path) -> PathBuf {
    dir.join(SEED_FILE)
}

/// The coordinator entry point: caches the summary graph for `settings` in the session,
/// saves the snapshot and the plan into `dir` (created if needed) and returns the plan. Fails
/// with [`ShardError::TooManyPrograms`], before touching `dir`, when the session has more than
/// [`MAX_SWEEP_PROGRAMS`] programs.
///
/// Any verdict files left over from an earlier run in the same directory are deleted first —
/// re-planning invalidates them, and a later merge must fail on missing files rather than
/// silently combine runs.
pub fn create_plan_dir(
    session: &RobustnessSession,
    settings: AnalysisSettings,
    options: &PlanOptions,
    dir: &Path,
) -> Result<ShardPlan, ShardError> {
    create_plan_dir_resuming(session, settings, options, dir, None)
}

/// [`create_plan_dir`] with an optional **resume source**: the shard directory of a prior,
/// *completed* run over an edited variant of the same workload (identical schema and
/// unfolding options; programs may have been added, removed, reordered or renamed).
///
/// The coordinator re-validates and merges the prior run's per-level `MVRCVERD` verdict files
/// (re-checking every file's run fingerprint, and folding in the prior run's own seed when it
/// was itself resumed), rebases the merged verdicts onto the session's current program set —
/// programs are matched by name *and* structural LTP fingerprint, so a same-named program
/// whose body changed is re-swept — and writes the carried-over verdicts into `dir` as a
/// [`SEED_FILE`] bound to the new run fingerprint. The plan's levels then cover only the
/// *undecided* rank ranges: after a pure removal no shard is dispatched at all; after an
/// addition only the subsets containing the new program are swept.
///
/// `prior` may be the same directory as `dir` (the prior artifacts are read before the
/// directory is cleaned). When nothing carries over (disjoint program sets), the plan falls
/// back to a fresh full-range run.
pub fn create_plan_dir_resuming(
    session: &RobustnessSession,
    settings: AnalysisSettings,
    options: &PlanOptions,
    dir: &Path,
    prior: Option<&Path>,
) -> Result<ShardPlan, ShardError> {
    TooManyPrograms::check(session.program_names().len())?;
    // Read the resume source *before* cleaning the target: `prior` may be `dir` itself.
    let seed = match prior {
        Some(prior_dir) => prepare_resume_seed(session, settings, prior_dir)?,
        None => None,
    };
    std::fs::create_dir_all(dir).map_err(|e| ShardError::Io {
        path: dir.display().to_string(),
        message: e.to_string(),
    })?;
    let stale = std::fs::read_dir(dir).map_err(|e| ShardError::Io {
        path: dir.display().to_string(),
        message: e.to_string(),
    })?;
    for entry in stale.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|ext| ext == "verdicts") {
            std::fs::remove_file(&path).map_err(|e| ShardError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
        }
    }
    // Build the graph *before* snapshotting so every worker reuses it instead of re-deriving
    // Algorithm 1 edges per process.
    session.graph(settings);
    let snapshot_fingerprint = save_snapshot(session, snapshot_path(dir))?;
    let plan = match seed {
        None => build_plan(session, settings, options, snapshot_fingerprint, None),
        Some((seed, prior_run_fingerprint)) => {
            let info = ResumeInfo {
                seed_fingerprint: seed_content_fingerprint(&seed),
                reused: seed.reused,
                prior_run_fingerprint,
            };
            let plan = build_plan(
                session,
                settings,
                options,
                snapshot_fingerprint,
                Some((&seed, info)),
            );
            write_atomically(&seed_path(dir), &encode_seed(plan.run_fingerprint, &seed))?;
            plan
        }
    };
    let json = serde_json::to_string_pretty(&plan_to_json(&plan)).expect("plan serializes");
    write_atomically(&plan_path(dir), json.as_bytes())?;
    Ok(plan)
}

/// Distills a prior run's artifacts into the [`SweepSeed`] of a resumed run: merges its
/// verdict files (and its own seed, when the prior run was itself resumed) into the full
/// verdict set over the prior program order, then rebases that set onto the session's current
/// programs. Returns `Ok(None)` when no program survived the edit.
fn prepare_resume_seed(
    session: &RobustnessSession,
    settings: AnalysisSettings,
    prior_dir: &Path,
) -> Result<Option<(SweepSeed, u64)>, ShardError> {
    let prior_plan = read_plan(prior_dir)?;
    if prior_plan.settings != settings {
        return Err(ShardError::Protocol(format!(
            "resume requires matching analysis settings: the prior run used `{}`, this plan \
             uses `{}`",
            prior_plan.settings, settings
        )));
    }
    let prior_session =
        open_snapshot_expecting(snapshot_path(prior_dir), prior_plan.snapshot_fingerprint)?;
    if prior_session.workload().schema != session.workload().schema {
        return Err(ShardError::Protocol(
            "resume requires an identical schema; plan from scratch instead".to_string(),
        ));
    }
    if prior_session.workload().unfold != session.workload().unfold {
        return Err(ShardError::Protocol(
            "resume requires identical unfolding options; plan from scratch instead".to_string(),
        ));
    }
    let word_count = CachedSweep::word_count_for(prior_plan.programs);
    let (mut robust, _counters) = read_all_verdicts(prior_dir, &prior_plan, word_count)?;
    if let Some(info) = &prior_plan.resume {
        let prior_seed = read_seed(prior_dir, &prior_plan, info, word_count)?;
        for (slot, word) in robust.iter_mut().zip(&prior_seed.seed.robust) {
            *slot |= word;
        }
    }
    let cached = CachedSweep {
        programs: prior_session.program_names().to_vec(),
        program_fingerprints: prior_session.program_fingerprints(),
        robust,
    };
    Ok(rebase_cached_sweep(
        &cached,
        session.program_names(),
        &session.program_fingerprints(),
    )
    .map(|seed| (seed, prior_plan.run_fingerprint)))
}

fn write_atomically(path: &Path, bytes: &[u8]) -> Result<(), ShardError> {
    let io_err = |e: std::io::Error| ShardError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    };
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes).map_err(io_err)?;
    std::fs::rename(&tmp, path).map_err(io_err)
}

// ---------------------------------------------------------------------------
// Plan JSON
// ---------------------------------------------------------------------------

fn plan_to_json(plan: &ShardPlan) -> Value {
    let levels: Vec<Value> = plan
        .levels
        .iter()
        .map(|level| {
            let shards: Vec<Value> = level
                .shards
                .iter()
                .map(|s| {
                    serde_json::json!({
                        "rank_start": s.spec.rank_start,
                        "rank_end": s.spec.rank_end,
                        "worker": s.worker,
                    })
                })
                .collect();
            serde_json::json!({
                "level": level.level,
                "size": level.size,
                "shards": Value::Array(shards),
            })
        })
        .collect();
    let settings = serde_json::json!({
        "granularity": match plan.settings.granularity {
            Granularity::Attribute => "attribute",
            Granularity::Tuple => "tuple",
        },
        "use_foreign_keys": plan.settings.use_foreign_keys,
        "condition": match plan.settings.condition {
            CycleCondition::TypeI => "type-i",
            CycleCondition::TypeII => "type-ii",
        },
    });
    let mut value = serde_json::json!({
        "format_version": 1u64,
        "run_fingerprint": format!("{:016x}", plan.run_fingerprint),
        "snapshot_fingerprint": format!("{:016x}", plan.snapshot_fingerprint),
        "snapshot": SNAPSHOT_FILE,
        "workload": plan.workload.clone(),
        "programs": plan.programs,
        "settings": settings,
        "closure_pruning": plan.closure_pruning,
        "workers": plan.workers,
        "levels": Value::Array(levels),
    });
    if let (Some(resume), Value::Object(entries)) = (&plan.resume, &mut value) {
        entries.push((
            "resume".to_string(),
            serde_json::json!({
                "seed": SEED_FILE,
                "seed_fingerprint": format!("{:016x}", resume.seed_fingerprint),
                "reused": resume.reused,
                "prior_run_fingerprint": format!("{:016x}", resume.prior_run_fingerprint),
            }),
        ));
    }
    value
}

fn json_u64(value: &Value, key: &str) -> Result<u64, ShardError> {
    value[key]
        .as_u64()
        .ok_or_else(|| ShardError::Plan(format!("missing or non-integer field `{key}`")))
}

fn json_str<'v>(value: &'v Value, key: &str) -> Result<&'v str, ShardError> {
    value[key]
        .as_str()
        .ok_or_else(|| ShardError::Plan(format!("missing or non-string field `{key}`")))
}

fn json_bool(value: &Value, key: &str) -> Result<bool, ShardError> {
    value[key]
        .as_bool()
        .ok_or_else(|| ShardError::Plan(format!("missing or non-boolean field `{key}`")))
}

fn json_fingerprint(value: &Value, key: &str) -> Result<u64, ShardError> {
    let hex = json_str(value, key)?;
    u64::from_str_radix(hex, 16)
        .map_err(|_| ShardError::Plan(format!("field `{key}` is not a hex fingerprint: `{hex}`")))
}

fn plan_from_json(value: &Value) -> Result<ShardPlan, ShardError> {
    let version = json_u64(value, "format_version")?;
    if version != 1 {
        return Err(ShardError::Plan(format!(
            "unsupported plan format version {version}"
        )));
    }
    let settings_value = &value["settings"];
    let granularity = match json_str(settings_value, "granularity")? {
        "attribute" => Granularity::Attribute,
        "tuple" => Granularity::Tuple,
        other => return Err(ShardError::Plan(format!("unknown granularity `{other}`"))),
    };
    let condition = match json_str(settings_value, "condition")? {
        "type-i" => CycleCondition::TypeI,
        "type-ii" => CycleCondition::TypeII,
        other => {
            return Err(ShardError::Plan(format!(
                "unknown cycle condition `{other}`"
            )))
        }
    };
    let settings = AnalysisSettings {
        granularity,
        use_foreign_keys: json_bool(settings_value, "use_foreign_keys")?,
        condition,
    };
    // Plans written by older builds may carry a `kernel` field; the sweep has one kernel
    // now, so any such field is ignored and those run directories still resume.
    let programs = json_u64(value, "programs")? as usize;
    let workers = json_u64(value, "workers")? as usize;
    if programs == 0 || programs > MAX_SWEEP_PROGRAMS {
        return Err(ShardError::Plan(format!(
            "program count {programs} out of range 1..={MAX_SWEEP_PROGRAMS}"
        )));
    }
    if workers == 0 {
        return Err(ShardError::Plan("plan has zero workers".to_string()));
    }

    let levels_value = value["levels"]
        .as_array()
        .ok_or_else(|| ShardError::Plan("missing `levels` array".to_string()))?;
    let mut levels = Vec::with_capacity(levels_value.len());
    for level_value in levels_value {
        let level = json_u64(level_value, "level")? as usize;
        let size = json_u64(level_value, "size")? as usize;
        let shards_value = level_value["shards"]
            .as_array()
            .ok_or_else(|| ShardError::Plan(format!("level {level} misses `shards`")))?;
        let mut shards = Vec::with_capacity(shards_value.len());
        for shard_value in shards_value {
            let worker = json_u64(shard_value, "worker")? as usize;
            if worker >= workers {
                return Err(ShardError::Plan(format!(
                    "level {level} assigns a shard to worker {worker} of {workers}"
                )));
            }
            shards.push(PlannedShard {
                spec: ShardSpec {
                    level,
                    rank_start: json_u64(shard_value, "rank_start")? as usize,
                    rank_end: json_u64(shard_value, "rank_end")? as usize,
                },
                worker,
            });
        }
        levels.push(LevelPlan {
            level,
            size,
            shards,
        });
    }

    let resume = match &value["resume"] {
        Value::Null => None,
        resume_value => Some(ResumeInfo {
            seed_fingerprint: json_fingerprint(resume_value, "seed_fingerprint")?,
            reused: json_u64(resume_value, "reused")? as usize,
            prior_run_fingerprint: json_fingerprint(resume_value, "prior_run_fingerprint")?,
        }),
    };

    let plan = ShardPlan {
        run_fingerprint: json_fingerprint(value, "run_fingerprint")?,
        snapshot_fingerprint: json_fingerprint(value, "snapshot_fingerprint")?,
        workload: json_str(value, "workload")?.to_string(),
        programs,
        settings,
        closure_pruning: json_bool(value, "closure_pruning")?,
        workers,
        resume,
        levels,
    };
    validate_plan(&plan)?;
    Ok(plan)
}

/// Structural validation: the plan must cover exactly the levels `n..=1` in descending order
/// and the run fingerprint must re-derive from the snapshot fingerprint, settings and (for
/// resumed runs) the seed fingerprint. A fresh plan's shards must partition `0..C(n, level)`
/// contiguously per level; a resumed plan's shards must be ascending, disjoint and in bounds
/// (their exact agreement with the seed's undecided runs is re-checked by every worker once
/// the seed is in hand). A tampered or hand-edited plan fails loudly here instead of
/// producing silently wrong verdicts.
fn validate_plan(plan: &ShardPlan) -> Result<(), ShardError> {
    let expected_fp = run_fingerprint(
        plan.snapshot_fingerprint,
        plan.settings,
        plan.closure_pruning,
        plan.workers,
        plan.resume.as_ref().map(|r| r.seed_fingerprint),
    );
    if plan.run_fingerprint != expected_fp {
        return Err(ShardError::Plan(format!(
            "run fingerprint {:016x} does not derive from the snapshot fingerprint and settings \
             (expected {expected_fp:016x})",
            plan.run_fingerprint
        )));
    }
    let n = plan.programs;
    if plan.levels.len() != n {
        return Err(ShardError::Plan(format!(
            "expected {n} levels, found {}",
            plan.levels.len()
        )));
    }
    for (i, level_plan) in plan.levels.iter().enumerate() {
        let expected_level = n - i;
        if level_plan.level != expected_level {
            return Err(ShardError::Plan(format!(
                "levels must descend {n}..=1; position {i} holds level {}",
                level_plan.level
            )));
        }
        let size = level_size(n, level_plan.level);
        if level_plan.size != size {
            return Err(ShardError::Plan(format!(
                "level {} claims size {}, C({n}, {}) is {size}",
                level_plan.level, level_plan.size, level_plan.level
            )));
        }
        if plan.resume.is_some() {
            // Resumed run: shards cover a subset of the rank space, ascending and disjoint.
            let mut next = 0usize;
            for shard in &level_plan.shards {
                if shard.spec.level != level_plan.level
                    || shard.spec.rank_start < next
                    || shard.spec.rank_end > size
                    || shard.spec.is_empty()
                {
                    return Err(ShardError::Plan(format!(
                        "level {} resume shards are not ascending, disjoint and within 0..{size}",
                        level_plan.level
                    )));
                }
                next = shard.spec.rank_end;
            }
        } else {
            let mut next = 0usize;
            for shard in &level_plan.shards {
                if shard.spec.level != level_plan.level
                    || shard.spec.rank_start != next
                    || shard.spec.is_empty()
                {
                    return Err(ShardError::Plan(format!(
                        "level {} shards do not partition 0..{size} contiguously",
                        level_plan.level
                    )));
                }
                next = shard.spec.rank_end;
            }
            if next != size {
                return Err(ShardError::Plan(format!(
                    "level {} shards cover 0..{next}, expected 0..{size}",
                    level_plan.level
                )));
            }
        }
    }
    Ok(())
}

/// Reads and validates the plan file of a shard directory.
pub fn read_plan(dir: &Path) -> Result<ShardPlan, ShardError> {
    let path = plan_path(dir);
    let text = std::fs::read_to_string(&path).map_err(|e| ShardError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    let value: Value = serde_json::from_str(&text)
        .map_err(|e| ShardError::Plan(format!("plan is not valid JSON: {e}")))?;
    plan_from_json(&value)
}

// ---------------------------------------------------------------------------
// Verdict files
// ---------------------------------------------------------------------------

/// A decoded verdict-bitset file: the bits one worker newly set at one level, plus its
/// counters for that level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictFile {
    /// The run fingerprint the file belongs to.
    pub run_fingerprint: u64,
    /// The level the bits belong to.
    pub level: usize,
    /// The worker that produced the file.
    pub worker: usize,
    /// The worker's counters for this level.
    pub counters: ShardCounters,
    /// The verdict bits (64 masks per word, full `⌈2^n / 64⌉` width).
    pub words: Vec<u64>,
}

fn encode_verdicts(file: &VerdictFile) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(file.run_fingerprint);
    w.u32(u32::try_from(file.level).expect("level exceeds u32"));
    w.u32(u32::try_from(file.worker).expect("worker exceeds u32"));
    w.u64(file.counters.cycle_tests as u64);
    w.u64(file.counters.pruned as u64);
    w.len(file.words.len());
    for &word in &file.words {
        w.u64(word);
    }
    let payload = w.into_bytes();
    let mut bytes = Vec::with_capacity(12 + payload.len());
    bytes.extend_from_slice(&VERDICT_MAGIC);
    bytes.extend_from_slice(&VERDICT_FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes
}

fn decode_verdicts(bytes: &[u8]) -> Result<VerdictFile, ShardError> {
    if bytes.len() < 12 || bytes[0..8] != VERDICT_MAGIC {
        return Err(ShardError::Verdict(
            "not a verdict file (bad magic)".to_string(),
        ));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERDICT_FORMAT_VERSION {
        return Err(ShardError::Verdict(format!(
            "unsupported verdict format version {version}"
        )));
    }
    let mut r = Reader::new(&bytes[12..]);
    let mut parse = || -> Result<VerdictFile, String> {
        let run_fingerprint = r.u64()?;
        let level = r.u32()? as usize;
        let worker = r.u32()? as usize;
        let cycle_tests = r.u64()? as usize;
        let pruned = r.u64()? as usize;
        let word_count = r.len()?;
        let mut words = Vec::with_capacity(word_count);
        for _ in 0..word_count {
            words.push(r.u64()?);
        }
        if !r.is_at_end() {
            return Err("trailing bytes".to_string());
        }
        Ok(VerdictFile {
            run_fingerprint,
            level,
            worker,
            counters: ShardCounters {
                cycle_tests,
                pruned,
            },
            words,
        })
    };
    parse().map_err(ShardError::Verdict)
}

/// Reads one verdict file and checks it belongs to the expected run, level and worker.
fn read_verdicts(
    path: &Path,
    expected_fingerprint: u64,
    level: usize,
    worker: usize,
) -> Result<VerdictFile, ShardError> {
    let bytes = std::fs::read(path).map_err(|e| ShardError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    let file = decode_verdicts(&bytes)?;
    if file.run_fingerprint != expected_fingerprint {
        return Err(ShardError::Verdict(format!(
            "verdicts at `{}` belong to run {:016x}, expected {expected_fingerprint:016x}",
            path.display(),
            file.run_fingerprint
        )));
    }
    if file.level != level || file.worker != worker {
        return Err(ShardError::Verdict(format!(
            "verdicts at `{}` claim level {} / worker {}, expected level {level} / worker {worker}",
            path.display(),
            file.level,
            file.worker
        )));
    }
    Ok(file)
}

/// Merges every per-`(level, worker)` verdict file of a plan into one bitset (ORed words) and
/// the summed counters, re-validating each file's run fingerprint, level and worker. Fails on
/// any missing or mismatched file.
fn read_all_verdicts(
    dir: &Path,
    plan: &ShardPlan,
    word_count: usize,
) -> Result<(Vec<u64>, ShardCounters), ShardError> {
    let mut words = vec![0u64; word_count];
    let mut totals = ShardCounters::default();
    for level_plan in &plan.levels {
        for worker in 0..plan.workers {
            let path = verdict_path(dir, level_plan.level, worker);
            let file = read_verdicts(&path, plan.run_fingerprint, level_plan.level, worker)?;
            if file.words.len() != word_count {
                return Err(ShardError::Verdict(format!(
                    "`{}` has {} verdict words, expected {word_count}",
                    path.display(),
                    file.words.len()
                )));
            }
            for (slot, word) in words.iter_mut().zip(&file.words) {
                *slot |= word;
            }
            totals = totals.merged(file.counters);
        }
    }
    Ok((words, totals))
}

// ---------------------------------------------------------------------------
// Resume seed files
// ---------------------------------------------------------------------------

/// A decoded resume seed file: the run it is bound to plus the carried-over verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SeedFile {
    /// The (new) run fingerprint the seed belongs to.
    run_fingerprint: u64,
    /// The carried-over verdicts.
    seed: SweepSeed,
}

/// The seed's canonical content encoding — shared by the fingerprint and the file format so
/// the two can never drift apart.
fn encode_seed_content(w: &mut Writer, seed: &SweepSeed) {
    w.u64(seed.reused as u64);
    w.len(seed.robust.len());
    for &word in &seed.robust {
        w.u64(word);
    }
    w.len(seed.decided.len());
    for &word in &seed.decided {
        w.u64(word);
    }
}

/// FNV-1a over the seed's canonical content — what [`ResumeInfo::seed_fingerprint`] stores
/// and the run fingerprint folds in.
fn seed_content_fingerprint(seed: &SweepSeed) -> u64 {
    let mut w = Writer::new();
    encode_seed_content(&mut w, seed);
    fnv64(&w.into_bytes())
}

fn encode_seed(run_fingerprint: u64, seed: &SweepSeed) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(run_fingerprint);
    encode_seed_content(&mut w, seed);
    let payload = w.into_bytes();
    let mut bytes = Vec::with_capacity(12 + payload.len());
    bytes.extend_from_slice(&SEED_MAGIC);
    bytes.extend_from_slice(&SEED_FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes
}

fn decode_seed(bytes: &[u8]) -> Result<SeedFile, ShardError> {
    if bytes.len() < 12 || bytes[0..8] != SEED_MAGIC {
        return Err(ShardError::Verdict(
            "not a resume seed file (bad magic)".to_string(),
        ));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SEED_FORMAT_VERSION {
        return Err(ShardError::Verdict(format!(
            "unsupported seed format version {version}"
        )));
    }
    let mut r = Reader::new(&bytes[12..]);
    let mut parse = || -> Result<SeedFile, String> {
        let run_fingerprint = r.u64()?;
        let reused = r.u64()? as usize;
        let robust_count = r.len()?;
        let mut robust = Vec::with_capacity(robust_count);
        for _ in 0..robust_count {
            robust.push(r.u64()?);
        }
        let decided_count = r.len()?;
        let mut decided = Vec::with_capacity(decided_count);
        for _ in 0..decided_count {
            decided.push(r.u64()?);
        }
        if !r.is_at_end() {
            return Err("trailing bytes".to_string());
        }
        Ok(SeedFile {
            run_fingerprint,
            seed: SweepSeed {
                robust,
                decided,
                reused,
            },
        })
    };
    parse().map_err(ShardError::Verdict)
}

/// Reads the seed file of a resumed run and re-validates it against the plan: the stamped run
/// fingerprint, the content fingerprint recorded in the plan's resume section, and the word
/// widths must all agree.
fn read_seed(
    dir: &Path,
    plan: &ShardPlan,
    info: &ResumeInfo,
    word_count: usize,
) -> Result<SeedFile, ShardError> {
    let path = seed_path(dir);
    let bytes = std::fs::read(&path).map_err(|e| ShardError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    let file = decode_seed(&bytes)?;
    if file.run_fingerprint != plan.run_fingerprint {
        return Err(ShardError::Verdict(format!(
            "seed at `{}` belongs to run {:016x}, expected {:016x}",
            path.display(),
            file.run_fingerprint,
            plan.run_fingerprint
        )));
    }
    if seed_content_fingerprint(&file.seed) != info.seed_fingerprint {
        return Err(ShardError::Verdict(format!(
            "seed at `{}` does not match the plan's seed fingerprint {:016x}",
            path.display(),
            info.seed_fingerprint
        )));
    }
    if file.seed.robust.len() != word_count || file.seed.decided.len() != word_count {
        return Err(ShardError::Verdict(format!(
            "seed at `{}` has {}/{} words, expected {word_count}",
            path.display(),
            file.seed.robust.len(),
            file.seed.decided.len()
        )));
    }
    Ok(file)
}

/// Re-validates that a level's planned shards tile exactly the seed's undecided rank runs —
/// a resumed plan whose shard list was tampered with (or no longer matches its seed) fails
/// loudly before any verdict is computed.
fn validate_shards_cover_runs(
    level_plan: &LevelPlan,
    runs: &[(usize, usize)],
) -> Result<(), ShardError> {
    let mismatch = || {
        ShardError::Plan(format!(
            "level {} shards do not tile the seed's undecided rank runs {runs:?}",
            level_plan.level
        ))
    };
    let mut specs = level_plan.shards.iter().map(|s| s.spec);
    for &(start, end) in runs {
        let mut next = start;
        while next < end {
            let spec = specs.next().ok_or_else(mismatch)?;
            if spec.rank_start != next || spec.rank_end > end || spec.is_empty() {
                return Err(mismatch());
            }
            next = spec.rank_end;
        }
    }
    if specs.next().is_some() {
        return Err(mismatch());
    }
    Ok(())
}

/// Polls for a peer's verdict file until it appears or the timeout elapses.
fn await_verdicts(
    path: &Path,
    expected_fingerprint: u64,
    level: usize,
    worker: usize,
    timeout: Duration,
) -> Result<VerdictFile, ShardError> {
    let start = Instant::now();
    loop {
        if path.exists() {
            return read_verdicts(path, expected_fingerprint, level, worker);
        }
        if start.elapsed() >= timeout {
            return Err(ShardError::BarrierTimeout {
                level,
                worker,
                waited_ms: start.elapsed().as_millis(),
            });
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// What one worker process did: which shards it ran and its summed counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerReport {
    /// The worker's index.
    pub worker: usize,
    /// Number of shards the worker swept.
    pub shards_run: usize,
    /// Number of level barriers the worker passed.
    pub levels: usize,
    /// The worker's summed counters across all levels.
    pub counters: ShardCounters,
}

/// Runs one worker process over a shard directory prepared by [`create_plan_dir`]: sweeps the
/// worker's shards level by level, publishing per-level verdict files and merging peers' at
/// each level barrier (waiting at most `barrier_timeout` per peer file).
pub fn run_worker(
    dir: &Path,
    worker: usize,
    barrier_timeout: Duration,
) -> Result<WorkerReport, ShardError> {
    let plan = read_plan(dir)?;
    if worker >= plan.workers {
        return Err(ShardError::Protocol(format!(
            "worker index {worker} out of range: the plan fans out to {} workers",
            plan.workers
        )));
    }
    let session = open_snapshot_expecting(snapshot_path(dir), plan.snapshot_fingerprint)?;
    let mut sweep = RankRangeSweep::new(&session, plan.settings, plan.closure_pruning)?;
    if sweep.program_count() != plan.programs {
        return Err(ShardError::Protocol(format!(
            "snapshot has {} programs, the plan was computed for {}",
            sweep.program_count(),
            plan.programs
        )));
    }
    if let Some(info) = &plan.resume {
        // Resumed run: adopt the seed's verdicts (the pruning of every undecided mask then
        // reads exactly the verdict set a fresh sweep would have published above it) and
        // re-validate that the plan's shards tile exactly the seed's undecided rank runs.
        let seed = read_seed(dir, &plan, info, sweep.word_count())?;
        sweep.apply_seed(&seed.seed);
        for level_plan in &plan.levels {
            validate_shards_cover_runs(level_plan, &sweep.undecided_runs(level_plan.level))?;
        }
    }
    let sweep = sweep;

    let mut totals = ShardCounters::default();
    let mut shards_run = 0usize;
    for level_plan in &plan.levels {
        // Sweep this worker's shards of the level; the XOR against the pre-level snapshot
        // isolates exactly the bits this level newly set (all of them ours — peers' bits only
        // arrive through the barrier below).
        let before = sweep.verdict_words();
        let mut counters = ShardCounters::default();
        for shard in level_plan.shards.iter().filter(|s| s.worker == worker) {
            counters = counters.merged(sweep.run_shard(shard.spec));
            shards_run += 1;
        }
        let after = sweep.verdict_words();
        let delta: Vec<u64> = before.iter().zip(&after).map(|(b, a)| a ^ b).collect();
        let file = VerdictFile {
            run_fingerprint: plan.run_fingerprint,
            level: level_plan.level,
            worker,
            counters,
            words: delta,
        };
        write_atomically(
            &verdict_path(dir, level_plan.level, worker),
            &encode_verdicts(&file),
        )?;
        totals = totals.merged(counters);

        // Level barrier: fold in every peer's verdicts for this level before descending, so
        // the next level's pruning sees exactly the fully merged verdict set.
        for peer in 0..plan.workers {
            if peer == worker {
                continue;
            }
            let peer_file = await_verdicts(
                &verdict_path(dir, level_plan.level, peer),
                plan.run_fingerprint,
                level_plan.level,
                peer,
                barrier_timeout,
            )?;
            if peer_file.words.len() != sweep.word_count() {
                return Err(ShardError::Verdict(format!(
                    "worker {peer} published {} verdict words, expected {}",
                    peer_file.words.len(),
                    sweep.word_count()
                )));
            }
            sweep.or_verdict_words(&peer_file.words);
        }
    }
    Ok(WorkerReport {
        worker,
        shards_run,
        levels: plan.levels.len(),
        counters: totals,
    })
}

/// The merged result of a completed shard run.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeReport {
    /// The workload's name.
    pub workload: String,
    /// The workload's `(program, abbreviation)` pairs, for paper-style rendering.
    pub abbreviations: Vec<(String, String)>,
    /// The merged exploration — identical to the single-process
    /// [`mvrc_robustness::explore_subsets`] result, with `cycle_tests`/`pruned` summed across
    /// every shard.
    pub exploration: SubsetExploration,
}

impl MergeReport {
    /// The abbreviation for a program name: the workload's own mapping when present, the
    /// uppercase-letter fallback of [`mvrc_robustness::abbreviate_program_name`] otherwise.
    pub fn abbreviate(&self, program: &str) -> String {
        self.abbreviations
            .iter()
            .find(|(name, _)| name == program)
            .map(|(_, abbrev)| abbrev.clone())
            .unwrap_or_else(|| mvrc_robustness::abbreviate_program_name(program))
    }
}

/// Merges every verdict file of a completed run into the final [`SubsetExploration`]. Fails
/// (without waiting) when a verdict file is missing — run every `shard work` first.
///
/// For a **resumed** run the seed's verdicts are folded in first, and the reported
/// `cycle_tests`/`pruned` counters are the *as-fresh* accounting recomputed from the final
/// verdict bits ([`RankRangeSweep::counters_as_fresh`]) — so the merged JSON is byte-identical
/// to a fresh single-process `mvrc subsets --json` over the edited workload, even though the
/// resumed run itself ran only the undecided masks' cycle tests.
pub fn merge_verdicts(dir: &Path) -> Result<MergeReport, ShardError> {
    let plan = read_plan(dir)?;
    let session = open_snapshot_expecting(snapshot_path(dir), plan.snapshot_fingerprint)?;
    let mut sweep = RankRangeSweep::new(&session, plan.settings, plan.closure_pruning)?;
    if let Some(info) = &plan.resume {
        let seed = read_seed(dir, &plan, info, sweep.word_count())?;
        sweep.apply_seed(&seed.seed);
    }
    let (words, totals) = read_all_verdicts(dir, &plan, sweep.word_count())?;
    sweep.or_verdict_words(&words);
    let counters = if plan.resume.is_some() {
        sweep.counters_as_fresh()
    } else {
        totals
    };
    Ok(MergeReport {
        workload: plan.workload,
        abbreviations: session.workload().abbreviations.clone(),
        exploration: sweep.exploration(counters, 0),
    })
}
