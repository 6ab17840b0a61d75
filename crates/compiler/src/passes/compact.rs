//! Register compaction: renumbers `$f`/`$r` registers densely and drops
//! unused temps and tables, so declarations in the generated code stay
//! tidy. Runs once, after the optimizing fixed point (renumbering inside
//! the loop would churn names without enabling any further optimization).

use spl_icode::{IProgram, Instr, Place, Value, VecKind};

use super::{for_each_read, OptStats, Pass, PassResult, NONE};
use crate::error::CompileError;

/// The compaction pass; see [`compact_in_place`].
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

/// Old id -> new id, in order of first use.
#[derive(Default)]
struct Renumbering {
    /// By old id: the new one, or [`NONE`].
    new: Vec<u32>,
    /// By new id: the old one.
    old: Vec<u32>,
}

impl Renumbering {
    fn note(&mut self, old: u32) {
        let k = old as usize;
        if k >= self.new.len() {
            self.new.resize(k + 1, NONE);
        }
        if self.new[k] == NONE {
            self.new[k] = self.old.len() as u32;
            self.old.push(old);
        }
    }

    fn is_identity_over(&self, count: usize) -> bool {
        self.old.len() == count
            && self
                .old
                .iter()
                .enumerate()
                .all(|(new, &old)| new == old as usize)
    }

    /// The new id of `old`, which was noted.
    fn get(&self, old: u32) -> u32 {
        self.new[old as usize]
    }

    /// The entries of `items` that are in use, at their new ids.
    fn gather<T: Default>(&self, items: &mut [T]) -> Vec<T> {
        self.old
            .iter()
            .map(|&old| std::mem::take(&mut items[old as usize]))
            .collect()
    }
}

/// Renumbers `$f`/`$r` registers densely and drops unused temps and
/// tables, on the program itself (tables move, they are not copied);
/// reports whether anything changed.
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
        Place::F(k) => *k = f_map.get(*k),
        Place::R(k) => *k = r_map.get(*k),
        Place::Vec(v) => match &mut v.kind {
            VecKind::Temp(t) => *t = t_map.get(*t),
            VecKind::Table(t) => *t = tbl_map.get(*t),
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
    prog.n_f = f_map.old.len() as u32;
    prog.n_r = r_map.old.len() as u32;
    prog.temps = t_map.gather(&mut prog.temps);
    prog.tables = tbl_map.gather(&mut prog.tables);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::testing::fixtures::optimized;

    #[test]
    fn compaction_renumbers_densely() {
        let (_, o) = optimized("(F 8)");
        // All register ids below the counts.
        for ins in &o.instrs {
            if let Some(Place::F(k)) = ins.dst() {
                assert!(*k < o.n_f);
            }
        }
        assert_eq!(o.tables.len(), 0);
    }
}
