//! Error type for the Flock library.

use std::fmt;

use flock_fabric::FabricError;

/// Errors surfaced by Flock APIs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlockError {
    /// The underlying fabric failed.
    Fabric(FabricError),
    /// The remote node is not listening / unknown to the registry.
    UnknownRemote(String),
    /// A message failed canary or structural validation.
    CorruptMessage(&'static str),
    /// The ring buffer has no room for a message of this size.
    RingFull {
        /// Bytes needed.
        need: usize,
        /// Bytes free.
        free: usize,
    },
    /// The message exceeds what the ring can ever hold.
    MessageTooLarge {
        /// Bytes needed.
        need: usize,
        /// Ring capacity.
        capacity: usize,
    },
    /// No RPC handler registered for this id.
    NoHandler(u32),
    /// The connection has been shut down.
    Disconnected,
    /// An operation timed out waiting for a response or completion.
    Timeout,
    /// A memory verb completed with an error status.
    RemoteOpFailed(&'static str),
    /// The caller passed something the operation cannot use.
    InvalidArgument(&'static str),
}

impl fmt::Display for FlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlockError::Fabric(e) => write!(f, "fabric error: {e}"),
            FlockError::UnknownRemote(n) => write!(f, "unknown remote node: {n}"),
            FlockError::CorruptMessage(why) => write!(f, "corrupt message: {why}"),
            FlockError::RingFull { need, free } => {
                write!(f, "ring full: need {need} bytes, {free} free")
            }
            FlockError::MessageTooLarge { need, capacity } => {
                write!(
                    f,
                    "message of {need} bytes exceeds ring capacity {capacity}"
                )
            }
            FlockError::NoHandler(id) => write!(f, "no RPC handler registered for id {id}"),
            FlockError::Disconnected => write!(f, "connection shut down"),
            FlockError::Timeout => write!(f, "operation timed out"),
            FlockError::RemoteOpFailed(s) => write!(f, "remote operation failed: {s}"),
            FlockError::InvalidArgument(s) => write!(f, "invalid argument: {s}"),
        }
    }
}

impl std::error::Error for FlockError {}

impl From<FabricError> for FlockError {
    fn from(e: FabricError) -> Self {
        FlockError::Fabric(e)
    }
}

/// Result alias for Flock APIs.
pub type Result<T> = std::result::Result<T, FlockError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(FlockError::NoHandler(7).to_string().contains('7'));
        assert!(FlockError::RingFull { need: 10, free: 2 }
            .to_string()
            .contains("10"));
        let e: FlockError = FabricError::NotConnected.into();
        assert!(matches!(e, FlockError::Fabric(_)));
    }
}
