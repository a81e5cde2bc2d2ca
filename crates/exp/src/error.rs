//! Experiment-level errors.

use std::fmt;
use std::io;

use clio_sim::trace_driven::SimError;
use clio_trace::error::TraceError;
use clio_trace::synth::ProfileError;
use clio_trace::verify::VerifyError;

/// Anything that can go wrong building or running an experiment.
#[derive(Debug)]
pub enum ExpError {
    /// The workload specification is invalid (bad mix weights,
    /// unparsable spec string).
    InvalidWorkload(String),
    /// A synthetic [`TraceProfile`](clio_trace::synth::TraceProfile)
    /// is degenerate. The coded [`ProfileError`] rides along whole, so
    /// callers can match on the rule (`err.code()`, `P01`–`P08`)
    /// instead of parsing a message.
    Profile(ProfileError),
    /// The experiment configuration is invalid (missing workload, bad
    /// machine, zero shards, …).
    InvalidConfig(String),
    /// The trace layer failed (unreadable file, corrupt codec, …).
    Trace(TraceError),
    /// Strict admission rejected the workload's record stream. The
    /// [`VerifyError`] rides along whole, so callers can match on the
    /// rule (`err.code()`) and record index instead of parsing a
    /// message.
    Verify(VerifyError),
    /// An engine hit the real filesystem and failed.
    Io(io::Error),
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpError::InvalidWorkload(m) => write!(f, "invalid workload: {m}"),
            ExpError::Profile(e) => write!(f, "invalid trace profile: {e}"),
            ExpError::InvalidConfig(m) => write!(f, "invalid experiment configuration: {m}"),
            ExpError::Trace(e) => write!(f, "trace error: {e}"),
            ExpError::Verify(e) => write!(f, "trace admission rejected: {e}"),
            ExpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ExpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExpError::Trace(e) => Some(e),
            ExpError::Profile(e) => Some(e),
            ExpError::Verify(e) => Some(e),
            ExpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceError> for ExpError {
    fn from(e: TraceError) -> Self {
        ExpError::Trace(e)
    }
}

impl From<ProfileError> for ExpError {
    fn from(e: ProfileError) -> Self {
        ExpError::Profile(e)
    }
}

impl From<VerifyError> for ExpError {
    fn from(e: VerifyError) -> Self {
        ExpError::Verify(e)
    }
}

impl From<SimError> for ExpError {
    fn from(e: SimError) -> Self {
        ExpError::InvalidConfig(e.to_string())
    }
}

impl From<io::Error> for ExpError {
    fn from(e: io::Error) -> Self {
        ExpError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ExpError::InvalidWorkload("bad weights".into());
        assert!(e.to_string().contains("bad weights"));
        let e = ExpError::InvalidConfig("no workload".into());
        assert!(e.to_string().contains("configuration"));
    }

    #[test]
    fn verify_errors_keep_their_code_and_index() {
        let e: ExpError = VerifyError::ZeroRepeat { index: 41 }.into();
        match &e {
            ExpError::Verify(v) => {
                assert_eq!(v.code(), "V07");
                assert_eq!(v.index(), 41);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(e.to_string().contains("V07"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn profile_errors_keep_their_code() {
        let e: ExpError = ProfileError::ZeroDataOps.into();
        match &e {
            ExpError::Profile(p) => assert_eq!(p.code(), "P04"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(e.to_string().contains("P04"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn sim_errors_are_configuration_errors() {
        let e: ExpError = SimError::ZeroCylinders.into();
        assert!(matches!(&e, ExpError::InvalidConfig(m) if m.contains("cylinder")), "{e:?}");
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let e: ExpError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(e.to_string().contains("gone"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
