//! The i-code program container and structural validation.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use spl_numeric::Complex;

use crate::instr::{Instr, LoopVar, Place, Value, VecKind, VecRef};

/// One node of the formula tree that produced a program, for
/// performance attribution: each emitted instruction carries the id of
/// the node it implements (see [`IProgram::prov`]), so profilers can
/// roll time and flops up per formula subtree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvNode {
    /// Short rendering of the sub-formula (e.g. `(tensor (F 8) (I 32))`).
    pub label: String,
    /// Id of the enclosing node, or [`ProvNode::ROOT`] at the top.
    pub parent: u32,
}

impl ProvNode {
    /// Sentinel parent id of the root node.
    pub const ROOT: u32 = u32::MAX;
}

/// A complete i-code program: a flat instruction list plus the sizes of
/// every vector it touches.
#[derive(Debug, Clone, PartialEq)]
pub struct IProgram {
    /// The instructions, loops delimited by `DoStart`/`DoEnd`.
    pub instrs: Vec<Instr>,
    /// Input vector length.
    pub n_in: usize,
    /// Output vector length.
    pub n_out: usize,
    /// Length of each temporary vector, indexed by `VecKind::Temp` id.
    pub temps: Vec<usize>,
    /// Constant tables created by intrinsic evaluation, indexed by
    /// `VecKind::Table` id.
    pub tables: Vec<Vec<Complex>>,
    /// Number of `$f` registers used.
    pub n_f: u32,
    /// Number of `$r` registers used.
    pub n_r: u32,
    /// Number of loop variables used (ids are `0..n_loop`).
    pub n_loop: u32,
    /// Whether values are complex (before type transformation) or real.
    pub complex: bool,
    /// Formula-node provenance: `prov[k]` is the [`ProvNode`] id that
    /// instruction `k` implements. Either empty (no provenance was
    /// recorded) or exactly `instrs.len()` long; every compiler pass
    /// preserves the alignment.
    pub prov: Vec<u32>,
    /// The provenance node table `prov` indexes into.
    pub prov_nodes: Vec<ProvNode>,
}

/// A structural validity error in an [`IProgram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcodeError(pub String);

impl fmt::Display for IcodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid i-code: {}", self.0)
    }
}

impl Error for IcodeError {}

impl IProgram {
    /// An empty program (useful with struct-update syntax).
    pub fn empty() -> IProgram {
        IProgram {
            instrs: vec![],
            n_in: 0,
            n_out: 0,
            temps: vec![],
            tables: vec![],
            n_f: 0,
            n_r: 0,
            n_loop: 0,
            complex: true,
            prov: vec![],
            prov_nodes: vec![],
        }
    }

    /// The provenance ids when they align with `instrs` (exactly one id
    /// per instruction), an empty slice otherwise.
    ///
    /// Compiler passes read provenance through this, so a program whose
    /// instruction list was edited without maintaining `prov` degrades
    /// to "no provenance" instead of misattributing instructions.
    pub fn prov_slice(&self) -> &[u32] {
        if !self.prov.is_empty() && self.prov.len() == self.instrs.len() {
            &self.prov
        } else {
            &[]
        }
    }

    /// Counts arithmetic instructions (excluding loop markers), with loop
    /// bodies multiplied by their trip counts — the static operation count
    /// of one execution.
    pub fn dynamic_op_count(&self) -> u64 {
        let mut mult: u64 = 1;
        let mut stack = Vec::new();
        let mut count: u64 = 0;
        for ins in &self.instrs {
            match ins {
                Instr::DoStart { lo, hi, .. } => {
                    let trips = (hi - lo + 1).max(0) as u64;
                    stack.push(mult);
                    mult = mult.saturating_mul(trips);
                }
                Instr::DoEnd => {
                    mult = stack.pop().unwrap_or(1);
                }
                _ => count += mult,
            }
        }
        count
    }

    /// The number of instructions excluding loop markers (static code
    /// size, used by the code-size experiment).
    pub fn static_instr_count(&self) -> usize {
        self.instrs
            .iter()
            .filter(|i| !matches!(i, Instr::DoStart { .. } | Instr::DoEnd))
            .count()
    }

    /// Bytes of constant-table data (used by the memory experiment).
    pub fn table_bytes(&self) -> usize {
        let word = if self.complex { 16 } else { 8 };
        self.tables.iter().map(|t| t.len() * word).sum()
    }

    /// Bytes of temporary-vector data.
    pub fn temp_bytes(&self) -> usize {
        let word = if self.complex { 16 } else { 8 };
        self.temps.iter().sum::<usize>() * word
    }

    /// Validates loop structure, register/vector bounds where they are
    /// statically known, and subscript discipline.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), IcodeError> {
        if !self.prov.is_empty() {
            if self.prov.len() != self.instrs.len() {
                return Err(IcodeError(format!(
                    "provenance length {} != instruction count {}",
                    self.prov.len(),
                    self.instrs.len()
                )));
            }
            if let Some(&bad) = self
                .prov
                .iter()
                .find(|&&id| id as usize >= self.prov_nodes.len())
            {
                return Err(IcodeError(format!(
                    "provenance id {bad} out of range {}",
                    self.prov_nodes.len()
                )));
            }
        }
        let mut open: Vec<LoopVar> = Vec::new();
        let mut seen_vars: HashSet<LoopVar> = HashSet::new();
        for (k, ins) in self.instrs.iter().enumerate() {
            match ins {
                Instr::DoStart { var, lo, hi, .. } => {
                    if var.0 >= self.n_loop {
                        return Err(IcodeError(format!(
                            "instr {k}: loop var {} out of range {}",
                            var.0, self.n_loop
                        )));
                    }
                    if !seen_vars.insert(*var) {
                        return Err(IcodeError(format!("instr {k}: loop var {} reused", var.0)));
                    }
                    if hi < lo {
                        return Err(IcodeError(format!("instr {k}: empty loop {lo}..{hi}")));
                    }
                    open.push(*var);
                }
                Instr::DoEnd => {
                    if open.pop().is_none() {
                        return Err(IcodeError(format!("instr {k}: unmatched end")));
                    }
                }
                Instr::Bin { dst, a, b, .. } => {
                    self.check_place(k, dst, &open)?;
                    self.check_value(k, a, &open)?;
                    self.check_value(k, b, &open)?;
                    if matches!(
                        dst,
                        Place::Vec(VecRef {
                            kind: VecKind::In,
                            ..
                        })
                    ) {
                        return Err(IcodeError(format!("instr {k}: write to input vector")));
                    }
                }
                Instr::Un { dst, a, .. } => {
                    self.check_place(k, dst, &open)?;
                    self.check_value(k, a, &open)?;
                    if matches!(
                        dst,
                        Place::Vec(VecRef {
                            kind: VecKind::In,
                            ..
                        })
                    ) {
                        return Err(IcodeError(format!("instr {k}: write to input vector")));
                    }
                }
            }
        }
        if !open.is_empty() {
            return Err(IcodeError("unclosed loop at end of program".into()));
        }
        Ok(())
    }

    fn check_place(&self, k: usize, p: &Place, open: &[LoopVar]) -> Result<(), IcodeError> {
        match p {
            Place::F(r) if *r >= self.n_f => {
                Err(IcodeError(format!("instr {k}: $f{r} out of range")))
            }
            Place::R(r) if *r >= self.n_r => {
                Err(IcodeError(format!("instr {k}: $r{r} out of range")))
            }
            Place::Vec(v) => self.check_vec(k, v, open),
            _ => Ok(()),
        }
    }

    fn check_vec(&self, k: usize, v: &VecRef, open: &[LoopVar]) -> Result<(), IcodeError> {
        for var in v.idx.vars() {
            if !open.contains(&var) {
                return Err(IcodeError(format!(
                    "instr {k}: subscript uses loop var {} outside its loop",
                    var.0
                )));
            }
        }
        let len = match v.kind {
            VecKind::In => self.n_in,
            VecKind::Out => self.n_out,
            VecKind::Temp(t) => *self
                .temps
                .get(t as usize)
                .ok_or_else(|| IcodeError(format!("instr {k}: temp {t} undeclared")))?,
            VecKind::Table(t) => self
                .tables
                .get(t as usize)
                .map(Vec::len)
                .ok_or_else(|| IcodeError(format!("instr {k}: table {t} undeclared")))?,
        };
        if let Some(c) = v.idx.as_const() {
            if c < 0 || c as usize >= len {
                return Err(IcodeError(format!(
                    "instr {k}: constant subscript {c} out of bounds for length {len}"
                )));
            }
        }
        Ok(())
    }

    fn check_value(&self, k: usize, v: &Value, open: &[LoopVar]) -> Result<(), IcodeError> {
        match v {
            Value::Place(p) => self.check_place(k, p, open),
            Value::LoopIdx(var) => {
                if open.contains(var) {
                    Ok(())
                } else {
                    Err(IcodeError(format!(
                        "instr {k}: loop var {} read outside its loop",
                        var.0
                    )))
                }
            }
            Value::Intrinsic(_, args) => args.iter().try_for_each(|a| self.check_value(k, a, open)),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Affine, BinOp};

    fn butterfly() -> IProgram {
        let at = |kind, i| {
            Place::Vec(VecRef {
                kind,
                idx: Affine::constant(i),
            })
        };
        IProgram {
            instrs: vec![
                Instr::Bin {
                    op: BinOp::Add,
                    dst: at(VecKind::Out, 0),
                    a: Value::vec(VecKind::In, 0),
                    b: Value::vec(VecKind::In, 1),
                },
                Instr::Bin {
                    op: BinOp::Sub,
                    dst: at(VecKind::Out, 1),
                    a: Value::vec(VecKind::In, 0),
                    b: Value::vec(VecKind::In, 1),
                },
            ],
            n_in: 2,
            n_out: 2,
            ..IProgram::empty()
        }
    }

    #[test]
    fn valid_program_passes() {
        assert!(butterfly().validate().is_ok());
    }

    #[test]
    fn unbalanced_loops_caught() {
        let mut p = butterfly();
        p.n_loop = 1;
        p.instrs.insert(
            0,
            Instr::DoStart {
                var: LoopVar(0),
                lo: 0,
                hi: 1,
                unroll: false,
            },
        );
        assert!(p.validate().is_err());
        p.instrs.push(Instr::DoEnd);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn out_of_bounds_subscript_caught() {
        let mut p = butterfly();
        p.instrs.push(Instr::Un {
            op: crate::instr::UnOp::Copy,
            dst: Place::Vec(VecRef {
                kind: VecKind::Out,
                idx: Affine::constant(5),
            }),
            a: Value::vec(VecKind::In, 0),
        });
        assert!(p.validate().is_err());
    }

    #[test]
    fn write_to_input_caught() {
        let mut p = butterfly();
        p.instrs.push(Instr::Un {
            op: crate::instr::UnOp::Copy,
            dst: Place::Vec(VecRef {
                kind: VecKind::In,
                idx: Affine::constant(0),
            }),
            a: Value::Int(0),
        });
        assert!(p.validate().is_err());
    }

    #[test]
    fn loop_var_outside_scope_caught() {
        let mut p = butterfly();
        p.n_loop = 1;
        p.instrs.push(Instr::Un {
            op: crate::instr::UnOp::Copy,
            dst: Place::Vec(VecRef {
                kind: VecKind::Out,
                idx: Affine::var(LoopVar(0)),
            }),
            a: Value::Int(0),
        });
        assert!(p.validate().is_err());
    }

    #[test]
    fn dynamic_op_count_multiplies_loops() {
        let mut p = butterfly();
        p.n_loop = 1;
        let mut instrs = vec![Instr::DoStart {
            var: LoopVar(0),
            lo: 0,
            hi: 3,
            unroll: false,
        }];
        instrs.push(Instr::Un {
            op: crate::instr::UnOp::Copy,
            dst: Place::F(0),
            a: Value::Int(1),
        });
        instrs.push(Instr::DoEnd);
        p.n_f = 1;
        p.instrs = instrs;
        assert_eq!(p.dynamic_op_count(), 4);
        assert_eq!(p.static_instr_count(), 1);
    }

    #[test]
    fn byte_accounting() {
        let mut p = butterfly();
        p.temps = vec![4, 4];
        p.tables = vec![vec![Complex::ZERO; 8]];
        assert_eq!(p.temp_bytes(), 8 * 16);
        assert_eq!(p.table_bytes(), 8 * 16);
        p.complex = false;
        assert_eq!(p.temp_bytes(), 8 * 8);
    }
}
