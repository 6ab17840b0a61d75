//! Scalarization as a pipeline pass: replaces temp-vector elements with
//! constant subscripts by fresh scalar `$f` registers (paper:
//! "substitute scalar variables for array elements"). The worker lives
//! in [`crate::unroll`] because it is also the whole of `-O1`.

use spl_icode::IProgram;

use super::{OptStats, Pass, PassResult};
use crate::error::CompileError;

/// The scalarization pass, wrapping
/// [`crate::unroll::scalarize_with_stats`]'s in-place worker.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scalarize;

impl Pass for Scalarize {
    fn name(&self) -> &'static str {
        "scalarize"
    }

    fn description(&self) -> &'static str {
        "replaces constant-subscript temp-vector elements with scalar registers"
    }

    fn run(&self, prog: &mut IProgram, stats: &mut OptStats) -> Result<PassResult, CompileError> {
        super::check_prov_alignment(self.name(), prog)?;
        let before = (prog.n_f, prog.temps.clone());
        let ustats = crate::unroll::scalarize_in_place(prog);
        if (prog.n_f, &prog.temps) == (before.0, &before.1) {
            return Ok(PassResult::Unchanged);
        }
        stats.temps_scalarized += ustats.temps_scalarized;
        Ok(PassResult::Changed)
    }
}
