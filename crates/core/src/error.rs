//! The unified error hierarchy for the evaluation facade.
//!
//! The substrate crates each define the error type natural to their
//! domain: [`ConfigError`] for rejected parameters, [`MeasureError`]
//! for infeasible QoS points, [`BladeError`] for memory-blade directory
//! capacity faults. Callers of the facade should not have to enumerate
//! them — everything converts into [`WcsError`] with `?`, so a bench
//! binary or study can hold its whole pipeline in one
//! `Result<_, WcsError>`.

use std::fmt;

use wcs_memshare::directory::BladeError;
use wcs_simcore::journal::JournalError;
use wcs_simcore::pool::TaskPanic;
use wcs_simcore::ConfigError;
use wcs_workloads::perf::MeasureError;

/// Any error the evaluation pipeline can surface.
#[derive(Debug)]
pub enum WcsError {
    /// A rejected configuration parameter (out-of-range value, zero
    /// count, event scheduled in the past, ...).
    Config(ConfigError),
    /// A workload measurement failed — typically an infeasible QoS
    /// bound on the platform under test.
    Measure(MeasureError),
    /// A memory-blade directory fault.
    Blade(BladeError),
    /// A malformed command line (bench binaries).
    Cli(String),
    /// A sweep cell panicked (twice, after the retry-once policy) and was
    /// isolated by the pool instead of aborting the run.
    TaskPanic(TaskPanic),
    /// A sweep cell exceeded its watchdog budget and was cancelled
    /// cooperatively; the cell is degraded, the sweep continues.
    Deadline {
        /// Name of the design point whose evaluation was cancelled.
        cell: String,
    },
    /// A scenario named a workload the registry does not know. Carries
    /// the registered names so CLI layers can print what *would* work.
    UnknownScenario {
        /// The name that failed to resolve.
        name: String,
        /// Every registered workload name, sorted.
        known: Vec<&'static str>,
    },
    /// The resume journal could not be opened, replayed, or appended to.
    Journal(JournalError),
    /// The multi-process sweep service failed: a worker could not be
    /// spawned, a cell exhausted its retry budget, or the merged journal
    /// diverged from the serial reference.
    Service(String),
}

impl fmt::Display for WcsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WcsError::Config(e) => write!(f, "configuration error: {e}"),
            WcsError::Measure(e) => write!(f, "measurement error: {e}"),
            WcsError::Blade(e) => write!(f, "memory blade error: {e}"),
            WcsError::Cli(msg) => write!(f, "command line error: {msg}"),
            WcsError::TaskPanic(e) => write!(f, "task panic isolated: {e}"),
            WcsError::Deadline { cell } => {
                write!(
                    f,
                    "cell '{cell}' exceeded its deadline budget and was degraded"
                )
            }
            WcsError::UnknownScenario { name, known } => {
                write!(
                    f,
                    "unknown scenario workload {:?}; registered scenarios: {}",
                    name,
                    known.join(", ")
                )
            }
            WcsError::Journal(e) => write!(f, "journal error: {e}"),
            WcsError::Service(msg) => write!(f, "sweep service error: {msg}"),
        }
    }
}

impl std::error::Error for WcsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WcsError::Config(e) => Some(e),
            WcsError::Measure(e) => Some(e),
            WcsError::Blade(e) => Some(e),
            WcsError::Cli(_) => None,
            WcsError::TaskPanic(e) => Some(e),
            WcsError::Deadline { .. } => None,
            WcsError::UnknownScenario { .. } => None,
            WcsError::Journal(e) => Some(e),
            WcsError::Service(_) => None,
        }
    }
}

impl From<ConfigError> for WcsError {
    fn from(e: ConfigError) -> Self {
        WcsError::Config(e)
    }
}

impl From<MeasureError> for WcsError {
    fn from(e: MeasureError) -> Self {
        WcsError::Measure(e)
    }
}

impl From<BladeError> for WcsError {
    fn from(e: BladeError) -> Self {
        WcsError::Blade(e)
    }
}

impl From<TaskPanic> for WcsError {
    fn from(e: TaskPanic) -> Self {
        WcsError::TaskPanic(e)
    }
}

impl From<JournalError> for WcsError {
    fn from(e: JournalError) -> Self {
        WcsError::Journal(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_substrate_error_converts_and_displays() {
        let config: WcsError = ConfigError::ZeroCount { param: "threads" }.into();
        assert!(config.to_string().contains("configuration error"));
        assert!(config.to_string().contains("threads"));

        let measure: WcsError = MeasureError {
            workload: "websearch",
            reason: "QoS infeasible".to_owned(),
        }
        .into();
        assert!(measure.to_string().contains("measurement error"));

        let cli = WcsError::Cli("unknown flag --frobnicate".to_owned());
        assert!(cli.to_string().contains("--frobnicate"));

        let unknown = WcsError::UnknownScenario {
            name: "tsunami".to_owned(),
            known: vec!["faas", "websearch"],
        };
        let msg = unknown.to_string();
        assert!(msg.contains("tsunami"), "{msg}");
        assert!(msg.contains("faas, websearch"), "{msg}");
        {
            use std::error::Error as _;
            assert!(unknown.source().is_none());
        }
    }

    #[test]
    fn sources_chain_to_the_substrate_error() {
        use std::error::Error as _;
        let e: WcsError = ConfigError::ZeroCount { param: "fans" }.into();
        assert!(e.source().is_some());
        assert!(WcsError::Cli("x".into()).source().is_none());
    }

    #[test]
    fn recovery_errors_convert_and_display() {
        let panic: WcsError = TaskPanic {
            index: 4,
            message: "poisoned cell".to_owned(),
            retried: true,
        }
        .into();
        assert!(panic.to_string().contains("task panic isolated"));
        assert!(panic.to_string().contains("panicked twice"));
        {
            use std::error::Error as _;
            assert!(panic.source().is_some());
        }

        let deadline = WcsError::Deadline {
            cell: "flash-4x".to_owned(),
        };
        assert!(deadline.to_string().contains("flash-4x"));
        assert!(deadline.to_string().contains("deadline"));

        let journal: WcsError = JournalError::BadMagic {
            path: "/tmp/x.wal".into(),
        }
        .into();
        assert!(journal.to_string().contains("journal error"));
        assert!(journal.to_string().contains("bad magic"));
    }

    #[test]
    fn question_mark_converts_in_one_pipeline() {
        fn pipeline() -> Result<(), WcsError> {
            wcs_simcore::ThreadPool::new(0).map(|_| ())?;
            Ok(())
        }
        assert!(matches!(pipeline(), Err(WcsError::Config(_))));
    }
}
