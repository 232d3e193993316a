//! DM-level errors.

use hedc_filestore::FsError;
use hedc_metadb::DbError;
use std::fmt;

/// Errors surfaced by the Data Management component.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant docs describe the fields
pub enum DmError {
    /// Underlying metadata database error.
    Db(DbError),
    /// Underlying file store error.
    Fs(FsError),
    /// Authentication failed (unknown user or bad password).
    AuthFailed(String),
    /// The session token is unknown or expired.
    NoSession,
    /// The caller lacks the right for the operation.
    AccessDenied { user: String, needed: &'static str },
    /// Referential-integrity violation (e.g. deleting an HLE with analyses).
    Integrity(String),
    /// No entity with the given id.
    NotFound { entity: &'static str, id: i64 },
    /// A query object failed verification (unknown table, missing owner
    /// scoping, etc.).
    BadQuery(String),
    /// The remote DM node did not respond in time (redirection).
    RemoteUnavailable(String),
    /// The remote DM node answered, but reported a failure that is neither a
    /// query rejection nor unavailability (wire protocol mismatch, remote
    /// internal error). Not retried and not failed over: the node is up.
    RemoteFailed(String),
    /// The node shed the request under load (admission control: queue full,
    /// queue deadline passed, or in-flight cap hit). The node is up and
    /// healthy — callers back off and retry, or fail over to a less-loaded
    /// replica, without marking the node down.
    Overloaded(String),
    /// A whole shard (every replica in its set) is unreachable during a
    /// sharded read. Typed so scatter-gather callers can distinguish "the
    /// answer is missing shard N's rows" from a total failure — partial
    /// results are never silently returned as complete ones.
    ShardUnavailable { shard: u32, detail: String },
    /// A test-injected process crash (ingest crash-point matrix). Carries the
    /// crash site so a surviving harness can report where it died. Never
    /// produced outside tests/benches.
    Crashed(String),
}

impl fmt::Display for DmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmError::Db(e) => write!(f, "database: {e}"),
            DmError::Fs(e) => write!(f, "file store: {e}"),
            DmError::AuthFailed(u) => write!(f, "authentication failed for `{u}`"),
            DmError::NoSession => write!(f, "no such session"),
            DmError::AccessDenied { user, needed } => {
                write!(f, "user `{user}` lacks the `{needed}` right")
            }
            DmError::Integrity(m) => write!(f, "integrity violation: {m}"),
            DmError::NotFound { entity, id } => write!(f, "no {entity} with id {id}"),
            DmError::BadQuery(m) => write!(f, "query rejected: {m}"),
            DmError::RemoteUnavailable(m) => write!(f, "remote DM unavailable: {m}"),
            DmError::RemoteFailed(m) => write!(f, "remote DM failed: {m}"),
            DmError::Overloaded(m) => write!(f, "node overloaded: {m}"),
            DmError::ShardUnavailable { shard, detail } => {
                write!(f, "shard {shard} unavailable (all replicas): {detail}")
            }
            DmError::Crashed(site) => write!(f, "simulated crash at {site}"),
        }
    }
}

impl std::error::Error for DmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DmError::Db(e) => Some(e),
            DmError::Fs(e) => Some(e),
            _ => None,
        }
    }
}

/// Degraded-mode policy, stated once for every result cache in front of a
/// DM read: only an unreachable or shedding backend is an outage. A lost
/// shard is not — its rows are *missing*, and a cached merge must not stand
/// in for them.
impl hedc_cache::Outage for DmError {
    fn is_outage(&self) -> bool {
        matches!(self, DmError::RemoteUnavailable(_) | DmError::Overloaded(_))
    }
}

impl From<DbError> for DmError {
    fn from(e: DbError) -> Self {
        DmError::Db(e)
    }
}

impl From<FsError> for DmError {
    fn from(e: FsError) -> Self {
        DmError::Fs(e)
    }
}

/// Crate-wide result alias.
pub type DmResult<T> = Result<T, DmError>;
