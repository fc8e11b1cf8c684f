//! Minimal promotion repair: turn offending reads into update-locking reads.
//!
//! In the robustness literature the standard fix for a non-robust workload is to *promote* the
//! reads involved in dangerous cycles to updates — the `SELECT ... FOR UPDATE` idiom — so the
//! lock manager serializes them against concurrent writers. On the paper's formalism a
//! promotion is a statement-kind edit: `key sel → key upd` and `pred sel → pred upd` with the
//! read attributes re-declared as written.
//!
//! [`minimal_promotion_repair`] searches for a promotion set that flips the workload to
//! attested-robust and is *1-minimal*: dropping any single promotion leaves the workload
//! non-robust. Candidate edits are driven through [`RobustnessSession::replace_program`], so
//! every probe reuses the session's incrementally maintained summary graphs instead of
//! rebuilding Algorithm 1 from scratch. The search runs at most [`MAX_REPAIR_PROBES`] probes;
//! past that it returns the robust set it has reached, marked not minimal.

use mvrc_btp::{Program, SourceSpan, Statement, StatementKind, StmtId, Workload};
use mvrc_robustness::{AnalysisSettings, RobustnessSession};
use mvrc_schema::Schema;
use serde::Serialize;
use std::collections::BTreeSet;

/// The most robustness probes (one dropped promotion each) [`minimal_promotion_repair`] runs.
/// A workload with more promotion candidates than this gets the robust set reached when the
/// cap hits, with [`RepairSuggestion::minimal`] `false`, instead of a search quadratic in its
/// size.
pub const MAX_REPAIR_PROBES: usize = 256;

/// One suggested promotion: a read statement of a program to re-issue as an update.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PromotionSite {
    /// The program the statement belongs to.
    pub program: String,
    /// The statement's name within the program (e.g. `q2`).
    pub statement: String,
    /// The statement's id within the program.
    pub stmt_id: StmtId,
    /// The statement kind before promotion (`key sel` or `pred sel`).
    pub from_kind: String,
    /// The statement kind after promotion (`key upd` or `pred upd`).
    pub to_kind: String,
    /// Source position of the statement when the program was parsed from SQL.
    pub span: Option<SourceSpan>,
}

/// A verified promotion set that makes the workload robust.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RepairSuggestion {
    /// The promotions, in (program, statement) order.
    pub promotions: Vec<PromotionSite>,
    /// `true` when a fresh [`RobustnessSession`] over the promoted workload re-attested
    /// robustness with `is_robust` (always checked; recorded for the JSON consumer).
    pub verified: bool,
    /// `true` when the search reached its fixpoint, so dropping any single promotion leaves the
    /// workload non-robust; `false` when it stopped at [`MAX_REPAIR_PROBES`] with a robust set
    /// that may not be 1-minimal.
    pub minimal: bool,
}

/// The statements of a program eligible for promotion: its selects.
pub fn promotion_candidates(program: &Program) -> Vec<StmtId> {
    program
        .statements()
        .filter(|(_, s)| {
            matches!(
                s.kind(),
                StatementKind::KeySelect | StatementKind::PredSelect
            )
        })
        .map(|(id, _)| id)
        .collect()
}

/// Returns a copy of the program with the given select statements promoted to updates.
///
/// `key sel` becomes `key upd`, `pred sel` becomes `pred upd`; the promoted statement writes
/// the attributes it read (or, for reads of no attributes, the whole tuple — an update must
/// write something). Non-select ids in `promoted` are left unchanged.
pub fn promote_program(schema: &Schema, program: &Program, promoted: &BTreeSet<StmtId>) -> Program {
    program.map_statements(|id, stmt| {
        let (kind, pread) = match stmt.kind() {
            StatementKind::KeySelect if promoted.contains(&id) => (StatementKind::KeyUpdate, None),
            StatementKind::PredSelect if promoted.contains(&id) => {
                (StatementKind::PredUpdate, stmt.pread_set())
            }
            _ => return stmt.clone(),
        };
        let rel = schema.relation(stmt.rel());
        let write = match stmt.read_set() {
            Some(read) if !read.is_empty() => read,
            _ => rel.all_attrs(),
        };
        Statement::new(stmt.name(), rel, kind, pread, stmt.read_set(), Some(write))
            .expect("promoted statement satisfies the Figure 5 constraints")
    })
}

/// Applies a promotion set to a workload, returning the edited workload.
pub fn apply_promotions(workload: &Workload, promotions: &[PromotionSite]) -> Workload {
    let mut edited = workload.clone();
    for program in &mut edited.programs {
        let promoted: BTreeSet<StmtId> = promotions
            .iter()
            .filter(|site| site.program == program.name())
            .map(|site| site.stmt_id)
            .collect();
        if !promoted.is_empty() {
            *program = promote_program(&workload.schema, program, &promoted);
        }
    }
    edited
}

/// Searches for a 1-minimal promotion set that makes the workload robust under `settings`.
///
/// Returns `None` when the workload has no promotable reads or when even promoting *every*
/// select leaves it non-robust (promotion cannot repair, e.g., write-write conflicts).
///
/// The search promotes everything, checks feasibility, then greedily drops promotions one at a
/// time in deterministic (program, statement) order, keeping a drop whenever the workload stays
/// robust without it. Because promotion is not monotone — an update statement introduces new
/// ww/wr edges that can themselves close cycles — the pruning loop runs to a fixpoint, so every
/// surviving promotion has been re-tested against the final set: the result is 1-minimal.
/// Every probe is a [`RobustnessSession::replace_program`] edit against cached graphs. After
/// [`MAX_REPAIR_PROBES`] probes the search stops with the current set, which is robust (every
/// kept drop was), and reports it as not minimal.
pub fn minimal_promotion_repair(
    workload: &Workload,
    settings: AnalysisSettings,
) -> Option<RepairSuggestion> {
    let schema = &workload.schema;
    let per_program: Vec<Vec<StmtId>> =
        workload.programs.iter().map(promotion_candidates).collect();
    if per_program.iter().all(|c| c.is_empty()) {
        return None;
    }

    let mut active: Vec<BTreeSet<StmtId>> = per_program
        .iter()
        .map(|c| c.iter().copied().collect())
        .collect();
    let mut session = RobustnessSession::new(workload.clone());
    for (p, program) in workload.programs.iter().enumerate() {
        if !active[p].is_empty() {
            session
                .replace_program(promote_program(schema, program, &active[p]))
                .expect("program came from this workload");
        }
    }
    if !session.is_robust(settings) {
        return None;
    }

    let mut probes = 0;
    let mut minimal = true;
    'search: loop {
        let mut changed = false;
        for (p, candidates) in per_program.iter().enumerate() {
            for &id in candidates {
                if !active[p].contains(&id) {
                    continue;
                }
                if probes == MAX_REPAIR_PROBES {
                    minimal = false;
                    break 'search;
                }
                probes += 1;
                active[p].remove(&id);
                session
                    .replace_program(promote_program(schema, &workload.programs[p], &active[p]))
                    .expect("program came from this workload");
                if session.is_robust(settings) {
                    changed = true;
                } else {
                    active[p].insert(id);
                    session
                        .replace_program(promote_program(schema, &workload.programs[p], &active[p]))
                        .expect("program came from this workload");
                }
            }
        }
        if !changed {
            break;
        }
    }

    let promotions: Vec<PromotionSite> = workload
        .programs
        .iter()
        .enumerate()
        .flat_map(|(p, program)| {
            active[p].iter().map(move |&id| {
                let stmt = program.statement(id);
                PromotionSite {
                    program: program.name().to_string(),
                    statement: stmt.name().to_string(),
                    stmt_id: id,
                    from_kind: stmt.kind().label().to_string(),
                    to_kind: match stmt.kind() {
                        StatementKind::KeySelect => StatementKind::KeyUpdate,
                        _ => StatementKind::PredUpdate,
                    }
                    .label()
                    .to_string(),
                    span: program.span(id),
                }
            })
        })
        .collect();
    if promotions.is_empty() {
        // All promotions were pruned away: the original workload would have to be robust,
        // which the caller already ruled out. Treat defensively as "no repair".
        return None;
    }

    // Re-attest on a fresh session over the edited workload, independent of the incremental
    // graph maintenance that guided the search.
    let verified =
        RobustnessSession::new(apply_promotions(workload, &promotions)).is_robust(settings);
    Some(RepairSuggestion {
        promotions,
        verified,
        minimal,
    })
}
