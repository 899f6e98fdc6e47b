//! # AP3ESM parallel I/O (`ap3esm-io`)
//!
//! The paper's §5.2.5: km-scale output overwhelms file systems, so AP3ESM
//! (a) partitions each field into **sub-files**, (b) assigns **groups of MPI
//! ranks** to each sub-file set, and (c) uses a **binary format** instead of
//! self-describing NetCDF. This crate implements all three:
//!
//! * [`mod@format`] — the binary on-disk format: fixed header, partition index,
//!   little-endian f64 payload, CRC-32 integrity check,
//! * [`subfile`] — writing/reading a global field as N sub-files, the
//!   rank-group aggregation plan, and a single-file baseline for the
//!   ablation benchmark.

pub mod format;
pub mod subfile;

pub use format::{FieldHeader, MAGIC};
pub use subfile::{IoPlan, SubfileReader, SubfileWriter};

/// Errors from the I/O layer.
#[derive(Debug)]
pub enum IoError {
    Io(std::io::Error),
    BadMagic,
    BadVersion(u32),
    CrcMismatch { expected: u32, actual: u32 },
    Inconsistent(String),
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::BadMagic => write!(f, "not an AP3ESM field file (bad magic)"),
            IoError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            IoError::CrcMismatch { expected, actual } => {
                write!(f, "payload CRC mismatch: expected {expected:#x}, got {actual:#x}")
            }
            IoError::Inconsistent(msg) => write!(f, "inconsistent sub-file set: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}
