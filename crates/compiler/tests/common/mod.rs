//! One optimization pass at a time, run through the public [`Pass`]
//! interface: what the identity and property tests hold each pass to.
//! The library runs the passes only as a pipeline (`optimize`).

#![allow(dead_code)] // not every test file uses every pass

use spl_compiler::passes::compact::Compact;
use spl_compiler::passes::dce::Dce;
use spl_compiler::passes::forward_substitute::ForwardSubstitute;
use spl_compiler::passes::value_number::ValueNumber;
use spl_compiler::passes::{OptStats, Pass};
use spl_compiler::CompileError;
use spl_icode::IProgram;

fn once(pass: &dyn Pass, prog: &IProgram) -> Result<IProgram, CompileError> {
    let mut out = prog.clone();
    pass.run(&mut out, &mut OptStats::default())?;
    Ok(out)
}

/// Single-pass value numbering: constant folding, algebraic
/// simplification, copy propagation, and CSE.
pub fn value_number(prog: &IProgram) -> IProgram {
    once(&ValueNumber::default(), prog).expect("value numbering rejected its input")
}

/// Forward substitution of single-use registers.
pub fn forward_substitute(prog: &IProgram) -> Result<IProgram, CompileError> {
    once(&ForwardSubstitute, prog)
}

/// Dead-code elimination, to its own fixed point.
pub fn dce(prog: &IProgram) -> Result<IProgram, CompileError> {
    once(&Dce, prog)
}

/// Dense renumbering of registers, temporaries and tables.
pub fn compact(prog: &IProgram) -> Result<IProgram, CompileError> {
    once(&Compact, prog)
}
