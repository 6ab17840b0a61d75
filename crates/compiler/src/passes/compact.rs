//! Register compaction: renumbers `$f`/`$r` registers densely and drops
//! unused temps and tables, so declarations in the generated code stay
//! tidy. Runs once, after the optimizing fixed point (renumbering inside
//! the loop would churn names without enabling any further optimization).

use std::collections::HashMap;

use spl_icode::{IProgram, Instr, Place, Value, VecKind};

use super::{for_each_read, OptStats, Pass, PassResult};
use crate::error::CompileError;

/// The compaction pass; see [`compact`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Compact;

impl Pass for Compact {
    fn name(&self) -> &'static str {
        "compact"
    }

    fn description(&self) -> &'static str {
        "renumbers registers densely and drops unused temps and tables"
    }

    fn run(&self, prog: &mut IProgram, _stats: &mut OptStats) -> Result<PassResult, CompileError> {
        super::check_prov_alignment(self.name(), prog)?;
        Ok(if compact_in_place(prog) {
            PassResult::Changed
        } else {
            PassResult::Unchanged
        })
    }
}

/// Renumbers `$f`/`$r` registers densely and drops unused temps and
/// tables.
pub(crate) fn compact(prog: &IProgram) -> IProgram {
    let mut out = prog.clone();
    compact_in_place(&mut out);
    out
}

/// Old id -> new id, in order of first use.
#[derive(Default)]
struct Renumbering(HashMap<u32, u32>);

impl Renumbering {
    fn note(&mut self, old: u32) {
        let n = self.0.len() as u32;
        self.0.entry(old).or_insert(n);
    }

    fn is_identity_over(&self, count: usize) -> bool {
        self.0.len() == count && self.0.iter().all(|(old, new)| old == new)
    }

    /// The entries of `items` that are in use, at their new ids.
    fn gather<T: Default>(&self, items: &mut [T]) -> Vec<T> {
        let mut out: Vec<T> = (0..self.0.len()).map(|_| T::default()).collect();
        for (&old, &new) in &self.0 {
            out[new as usize] = std::mem::take(&mut items[old as usize]);
        }
        out
    }
}

/// [`compact`] on the program itself (tables move, they are not
/// copied); reports whether anything changed.
fn compact_in_place(prog: &mut IProgram) -> bool {
    let (mut f_map, mut r_map) = (Renumbering::default(), Renumbering::default());
    let (mut t_map, mut tbl_map) = (Renumbering::default(), Renumbering::default());
    let mut note = |p: &Place| match p {
        Place::F(k) => f_map.note(*k),
        Place::R(k) => r_map.note(*k),
        Place::Vec(v) => match v.kind {
            VecKind::Temp(t) => t_map.note(t),
            VecKind::Table(t) => tbl_map.note(t),
            _ => {}
        },
    };
    for ins in &prog.instrs {
        if let Some(dst) = ins.dst() {
            note(dst);
        }
        for_each_read(ins, &mut note);
    }
    if f_map.is_identity_over(prog.n_f as usize)
        && r_map.is_identity_over(prog.n_r as usize)
        && t_map.is_identity_over(prog.temps.len())
        && tbl_map.is_identity_over(prog.tables.len())
    {
        return false;
    }
    let remap_place = |p: &mut Place| match p {
        Place::F(k) => *k = f_map.0[k],
        Place::R(k) => *k = r_map.0[k],
        Place::Vec(v) => match &mut v.kind {
            VecKind::Temp(t) => *t = t_map.0[t],
            VecKind::Table(t) => *t = tbl_map.0[t],
            _ => {}
        },
    };
    fn remap_value(v: &mut Value, f: &dyn Fn(&mut Place)) {
        match v {
            Value::Place(p) => f(p),
            Value::Intrinsic(_, args) => args.iter_mut().for_each(|a| remap_value(a, f)),
            _ => {}
        }
    }
    for ins in &mut prog.instrs {
        match ins {
            Instr::Bin { dst, a, b, .. } => {
                remap_place(dst);
                remap_value(a, &remap_place);
                remap_value(b, &remap_place);
            }
            Instr::Un { dst, a, .. } => {
                remap_place(dst);
                remap_value(a, &remap_place);
            }
            _ => {}
        }
    }
    prog.n_f = f_map.0.len() as u32;
    prog.n_r = r_map.0.len() as u32;
    prog.temps = t_map.gather(&mut prog.temps);
    prog.tables = tbl_map.gather(&mut prog.tables);
    true
}
