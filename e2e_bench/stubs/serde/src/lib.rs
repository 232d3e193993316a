//! Offline stand-in for `serde`, specialised to the one data format this
//! workspace uses (JSON through `serde_json`).
//!
//! The published serde separates data structures from formats through the
//! `Serializer`/`Deserializer` visitor traits. Nothing in this workspace
//! implements those by hand: every use is `#[derive(Serialize, Deserialize)]`
//! plus `serde_json::{to_string, to_vec, from_str, from_slice}`. So this
//! stand-in collapses the two layers: [`Serialize`] writes JSON text into a
//! `String`, [`Deserialize`] reads from a JSON [`de::Parser`], and the
//! derives in `serde_derive` generate code against exactly that. The wire
//! format is the one serde_json produces for the same derives (externally
//! tagged enums, structs as objects, `Option` as value-or-null, missing
//! `Option` fields as `None`, unknown fields ignored).

pub mod de;
pub mod ser;

pub use de::Deserialize;
pub use ser::Serialize;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
