//! The default optimizations (paper Section 3.4): constant folding, copy
//! propagation, common subexpression elimination, and dead code
//! elimination.
//!
//! This module is the stable entry point; the passes themselves live in
//! [`crate::passes`] as registered [`Pass`](crate::passes::Pass)
//! implementations, composed by a
//! [`PipelineBuilder`](crate::passes::PipelineBuilder). [`optimize`]
//! runs the standard optimizing fixed point (value numbering, forward
//! substitution, DCE, then a final compaction) without scalarization or
//! per-pass validation — callers wanting either build a pipeline.
//!
//! # Complexity
//!
//! Every pass is (near-)linear in the block: value numbering
//! invalidates through its own place tables, forward substitution
//! answers its safety conditions from a position index by binary
//! search, and no pass clones or compares the constant tables. DCE is
//! still a whole-program fixpoint (one round per link of the longest
//! dead chain). `docs/PASSES.md` states the invariants;
//! `tests/pass_scaling.rs` holds the passes to them.

use std::collections::HashSet;

use spl_icode::IProgram;

use crate::error::CompileError;
use crate::passes;

pub use crate::passes::OptStats;

/// Runs the default-optimization fixed point: value numbering, forward
/// substitution of single-use registers, dead-code elimination, and a
/// final register compaction.
///
/// # Errors
///
/// [`CompileError::MalformedIcode`] when the input violates the i-code
/// structural contract (e.g. a misaligned provenance map).
pub fn optimize(prog: &IProgram) -> Result<IProgram, CompileError> {
    Ok(optimize_with_stats(prog)?.0)
}

/// [`optimize`], also reporting what each pass did.
///
/// # Errors
///
/// [`CompileError::MalformedIcode`] when the input violates the i-code
/// structural contract.
pub fn optimize_with_stats(prog: &IProgram) -> Result<(IProgram, OptStats), CompileError> {
    let mut quarantined = HashSet::new();
    let out = passes::PipelineBuilder::new()
        .optimizer()
        .build()
        .run(prog, &mut quarantined)?;
    Ok((out.program, out.stats))
}
