//! Offline stand-in for `serde`: marker traits plus the no-op derives.

/// Marker for the real `serde::Serialize`.
pub trait Serialize {}

/// Marker for the real `serde::Deserialize`.
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
