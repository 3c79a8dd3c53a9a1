//! Identifier newtypes.
//!
//! Everything is a small `Copy` integer wrapper so ids can be used as map
//! keys and wire fields with zero overhead while staying type-distinct.

use std::fmt;

/// Snapshot version number of a blob.
///
/// Versions are **dense successive integers starting at 0**; version 0 is,
/// by the paper's convention, the all-zero string, and version `v` is the
/// string obtained by applying the first `v` patches in order.
pub type Version = u64;

/// The all-zero initial version.
pub const ZERO_VERSION: Version = 0;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $inner:ty) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $inner);

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }
    };
}

id_newtype!(
    /// Globally unique identifier of a blob, issued by `ALLOC`.
    BlobId,
    u64
);

id_newtype!(
    /// A physical node in the (simulated) cluster. Every actor — client,
    /// provider, manager — lives on some node.
    NodeId,
    u32
);

id_newtype!(
    /// A data provider process. In the paper's deployments one provider
    /// runs per node, so the id wraps the hosting node id.
    ProviderId,
    u32
);

id_newtype!(
    /// Unique identifier of one WRITE operation, issued by the provider
    /// manager's plan *before* the version number exists: the plan is a
    /// write's first step, and its pages are keyed by this id, not by
    /// the version the version manager assigns afterwards.
    WriteId,
    u64
);

impl ProviderId {
    /// The node hosting this provider.
    pub fn node(self) -> NodeId {
        NodeId(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newtypes_are_distinct_and_printable() {
        let b = BlobId(7);
        assert_eq!(format!("{b}"), "7");
        assert_eq!(format!("{b:?}"), "BlobId(7)");
        assert_eq!(BlobId::from(7), b);
        assert!(BlobId(1) < BlobId(2));
    }

    #[test]
    fn provider_to_node() {
        assert_eq!(ProviderId(9).node(), NodeId(9));
    }
}
