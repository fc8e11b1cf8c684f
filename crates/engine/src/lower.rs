//! The generic LTP lowering: the one way transaction programs reach the engine.
//!
//! The paper's soundness claim is about the `Unfold≤2` linear transaction programs (LTPs) of a
//! set of BTPs, so the engine executes exactly those: every statement of an LTP becomes one
//! engine step on the tuple its *target* names, carrying the statement's kind and its declared
//! read, predicate-read and write sets. [`ProgramInstance::step`] runs it: key-based
//! statements address tuple `target`, inserts create it, predicate selects match every visible
//! tuple, and predicate updates and deletes match exactly tuple `target` and write every match.
//!
//! The paper's schedules are operations on tuples and their versions; attribute values never
//! appear in them, and the engine stores none. Tuple `k` has the same key in every relation, so
//! every foreign key between statements that share a target holds by construction. The
//! recorded footprints therefore match the statements' declared sets.

use crate::program::{ProgramInstance, Step};
use crate::storage::Key;
use mvrc_btp::LinearProgram;

impl ProgramInstance {
    /// Lowers one LTP instance into engine steps, one per statement, statement `pos`
    /// addressing tuple `targets[pos]`.
    pub fn from_ltp(ltp: &LinearProgram, targets: &[i64]) -> Self {
        let steps = ltp
            .statements()
            .map(|(pos, stmt)| Step {
                kind: stmt.kind(),
                rel: stmt.rel(),
                key: Key(targets[pos]),
                read: stmt.read_attrs(),
                write: stmt.write_attrs(),
                pread: stmt.pread_attrs(),
            })
            .collect();
        ProgramInstance {
            program: ltp.name().to_string(),
            steps,
            next: 0,
        }
    }
}
