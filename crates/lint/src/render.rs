//! Rustc-style text rendering of a [`LintReport`].

use crate::{LintReport, StatementRef, MAX_REPAIR_PROBES};
use std::fmt::Write;

/// Renders a report in compiler style.
///
/// When the original SQL text is supplied, primary spans are underlined with a caret on the
/// quoted source line; otherwise locations fall back to `program.statement (kind on relation)`
/// labels. The output ends with a `help:` section when a verified promotion repair exists.
pub fn render_text(report: &LintReport, source: Option<&str>) -> String {
    let mut out = String::new();
    if report.diagnostics.is_empty() {
        let _ = writeln!(
            out,
            "{}: robust against MVRC ({})",
            report.workload, report.settings.label
        );
        return out;
    }
    for d in &report.diagnostics {
        let _ = writeln!(out, "error[{}]: {}", d.code, d.message);
        let _ = writeln!(out, "  --> {}", location(report, &d.primary.from));
        if let (Some(span), Some(text)) = (d.primary.from.span, source) {
            if let Some(line) = text.lines().nth(span.line - 1) {
                let num = span.line.to_string();
                let gutter = " ".repeat(num.len());
                let _ = writeln!(out, "{gutter} |");
                let _ = writeln!(out, "{num} | {line}");
                let _ = writeln!(
                    out,
                    "{gutter} | {caret}^ {label}",
                    caret = " ".repeat(span.column.saturating_sub(1)),
                    label = statement_label(&d.primary.from),
                );
            }
        }
        let _ = writeln!(out, "  = note: counterflow edge: {}", d.primary.rendered);
        for s in &d.secondary {
            let mut note = format!("{} edge: {}", s.role, s.rendered);
            if let Some(at) = span_suffix(report, &s.from) {
                let _ = write!(note, " (at {at})");
            }
            let _ = writeln!(out, "  = note: {note}");
        }
        for n in &d.notes {
            let _ = writeln!(out, "  = note: {n}");
        }
        let _ = writeln!(out);
    }
    if let Some(repair) = &report.repair {
        let _ = writeln!(
            out,
            "help: promote these reads to updates (`SELECT ... FOR UPDATE`) to make the workload robust:"
        );
        for p in &repair.promotions {
            let mut line = format!(
                "  - {}.{}: {} -> {}",
                p.program, p.statement, p.from_kind, p.to_kind
            );
            if let (Some(name), Some(span)) = (&report.source, p.span) {
                let _ = write!(line, " (at {name}:{span})");
            }
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(
            out,
            "  = note: repair {} with a fresh robustness check ({})",
            if repair.verified {
                "verified"
            } else {
                "FAILED verification"
            },
            report.settings.label,
        );
        if !repair.minimal {
            let _ = writeln!(
                out,
                "  = note: the search stopped after {MAX_REPAIR_PROBES} probes; a smaller robust \
                 set may exist"
            );
        }
    }
    out
}

/// `file:line:column` when the span and source name are known, else a structural label.
fn location(report: &LintReport, sref: &StatementRef) -> String {
    match (&report.source, sref.span) {
        (Some(name), Some(span)) => format!("{name}:{span}"),
        _ => format!(
            "{}.{} ({} on {})",
            sref.program, sref.statement, sref.kind, sref.relation
        ),
    }
}

fn span_suffix(report: &LintReport, sref: &StatementRef) -> Option<String> {
    match (&report.source, sref.span) {
        (Some(name), Some(span)) => Some(format!("{name}:{span}")),
        _ => None,
    }
}

fn statement_label(sref: &StatementRef) -> String {
    format!("{} ({} on {})", sref.statement, sref.kind, sref.relation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_workload, LintOptions};
    use mvrc_benchmarks::{auction, smallbank};

    #[test]
    fn robust_workloads_render_a_single_clean_line() {
        let report = lint_workload(&auction(), &LintOptions::default());
        let text = render_text(&report, None);
        assert!(text.contains("robust against MVRC"));
        assert!(!text.contains("error["));
    }

    #[test]
    fn non_robust_workloads_render_errors_and_help() {
        let report = lint_workload(&smallbank(), &LintOptions::default());
        let text = render_text(&report, None);
        assert!(text.contains("error[MVRC002]"));
        assert!(text.contains("  --> "));
        assert!(text.contains("counterflow edge:"));
        assert!(text.contains("help: promote these reads"));
        assert!(text.contains("repair verified"));
    }
}
