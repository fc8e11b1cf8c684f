//! Step-wise executable transaction programs.
//!
//! The driver interleaves transactions at *statement* granularity, mirroring the atomic-chunk
//! assumption of Section 3.3: every step of a [`ProgramInstance`] corresponds to one BTP
//! statement (one chunk) and is executed atomically; between steps the driver may schedule
//! steps of other concurrent transactions.
//!
//! Instances are built by the generic LTP lowering ([`ProgramInstance::from_ltp`]); a
//! hand-built instance passes values between its steps through state its closures capture.

use crate::engine::{Engine, TxnToken};
use crate::error::EngineResult;
use std::fmt;

/// One statement-level step of a program instance.
pub type StepFn = Box<dyn FnMut(&mut Engine, TxnToken) -> EngineResult<()> + Send>;

/// A concrete, runnable instantiation of a transaction program: an ordered list of
/// statement-level steps.
pub struct ProgramInstance {
    program: String,
    steps: Vec<StepFn>,
    next: usize,
}

impl fmt::Debug for ProgramInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgramInstance")
            .field("program", &self.program)
            .field("steps", &self.steps.len())
            .field("next", &self.next)
            .finish()
    }
}

impl ProgramInstance {
    /// Creates an instance of the named program with the given steps.
    pub fn new(program: impl Into<String>, steps: Vec<StepFn>) -> Self {
        ProgramInstance {
            program: program.into(),
            steps,
            next: 0,
        }
    }

    /// The program this instance was created from.
    pub fn program(&self) -> &str {
        &self.program
    }

    /// Number of remaining steps.
    pub fn remaining(&self) -> usize {
        self.steps.len() - self.next
    }

    /// Whether every step has run.
    pub fn is_done(&self) -> bool {
        self.next >= self.steps.len()
    }

    /// Executes the next step: starts a new statement on the engine (refreshing the
    /// read-committed statement snapshot) and runs the step closure.
    ///
    /// On an abort error the caller must consider the transaction gone (the engine already
    /// rolled it back); the instance itself can be discarded or re-created for a retry.
    pub fn step(&mut self, engine: &mut Engine, txn: TxnToken) -> EngineResult<()> {
        assert!(
            !self.is_done(),
            "step() called on a finished program instance"
        );
        engine.begin_statement(txn)?;
        let idx = self.next;
        let result = (self.steps[idx])(engine, txn);
        if result.is_ok() {
            self.next += 1;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::IsolationLevel;
    use crate::value::{Key, Value};
    use mvrc_schema::SchemaBuilder;
    use std::sync::{Arc, Mutex};

    fn engine() -> Engine {
        let mut b = SchemaBuilder::new("s");
        b.relation("R", &["k", "v"], &["k"]).unwrap();
        let mut e = Engine::new(b.build());
        let rel = e.rel("R").unwrap();
        e.load(rel, vec![Value::Int(1), Value::Int(10)]).unwrap();
        e
    }

    #[test]
    fn steps_run_in_order_and_share_locals() {
        let mut engine = engine();
        let rel = engine.rel("R").unwrap();
        let attrs = engine.attrs(rel, &["v"]).unwrap();
        let key = Key::int(1);
        // The two steps share the value the first one reads through a captured cell.
        let seen = Arc::new(Mutex::new(Value::Null));

        let read: StepFn = Box::new({
            let (key, seen) = (key.clone(), Arc::clone(&seen));
            move |engine, txn| {
                let row = engine.read_key(txn, rel, &key, attrs)?.expect("row exists");
                *seen.lock().unwrap() = row[1].clone();
                Ok(())
            }
        });
        let write: StepFn = Box::new({
            let (key, seen) = (key.clone(), Arc::clone(&seen));
            move |engine, txn| {
                let attr = engine.attr(rel, "v").unwrap();
                let bump = seen.lock().unwrap().as_int().unwrap() + 1;
                engine.update_key(txn, rel, &key, attrs, attrs, |_| {
                    vec![(attr, Value::Int(bump))]
                })
            }
        });

        let mut instance = ProgramInstance::new("Bump", vec![read, write]);
        assert_eq!(instance.program(), "Bump");
        assert_eq!(instance.remaining(), 2);
        let txn = engine.begin("Bump", IsolationLevel::ReadCommitted);
        instance.step(&mut engine, txn).unwrap();
        assert_eq!(*seen.lock().unwrap(), Value::Int(10));
        instance.step(&mut engine, txn).unwrap();
        assert!(instance.is_done());
        engine.commit(txn).unwrap();
        assert_eq!(
            engine.latest_row(rel, &Key::int(1)).unwrap()[1],
            Value::Int(11)
        );
    }

    #[test]
    #[should_panic(expected = "finished program instance")]
    fn stepping_past_the_end_is_a_bug() {
        let mut engine = engine();
        let mut instance = ProgramInstance::new("Empty", vec![]);
        let txn = engine.begin("Empty", IsolationLevel::ReadCommitted);
        let _ = instance.step(&mut engine, txn);
    }
}
