//! Intrinsic function evaluation (paper Section 3.3.2).
//!
//! All intrinsic invocations are evaluated at compile time. `W(n, k)` with
//! constant arguments folds to a complex constant. When `k` depends on
//! loop indices (directly or through integer registers such as
//! `$r0 = $i0 * $i1`), the compiler evaluates the intrinsic for *all*
//! possible loop-index values, stores the results in a constant table, and
//! replaces the invocation by a table reference subscripted by the loop
//! indices.

use spl_icode::{Affine, BinOp, IProgram, Instr, LoopVar, Place, UnOp, Value, VecKind, VecRef};
use spl_numeric::twiddle::omega;

use crate::mix::MixMap;

/// An error during intrinsic evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntrinsicError(pub String);

impl std::fmt::Display for IntrinsicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "intrinsic evaluation failed: {}", self.0)
    }
}

impl std::error::Error for IntrinsicError {}

/// Symbolic integer expression over loop variables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum IntSym {
    C(i64),
    V(LoopVar),
    Add(Box<IntSym>, Box<IntSym>),
    Sub(Box<IntSym>, Box<IntSym>),
    Mul(Box<IntSym>, Box<IntSym>),
    Div(Box<IntSym>, Box<IntSym>),
}

impl IntSym {
    /// The value with variable `k` at `env[k]`: for an expression whose
    /// variables are [renamed](IntSym::renamed) to positions.
    fn eval(&self, env: &[i64]) -> i64 {
        match self {
            IntSym::C(v) => *v,
            IntSym::V(lv) => env[lv.0 as usize],
            IntSym::Add(a, b) => a.eval(env) + b.eval(env),
            IntSym::Sub(a, b) => a.eval(env) - b.eval(env),
            IntSym::Mul(a, b) => a.eval(env) * b.eval(env),
            IntSym::Div(a, b) => a.eval(env) / b.eval(env),
        }
    }

    /// The expression with each variable renamed to its position in
    /// `vars`.
    fn renamed(&self, vars: &[LoopVar]) -> IntSym {
        let op = |a: &IntSym, b: &IntSym| (Box::new(a.renamed(vars)), Box::new(b.renamed(vars)));
        match self {
            IntSym::C(v) => IntSym::C(*v),
            IntSym::V(lv) => {
                let k = vars
                    .iter()
                    .position(|v| v == lv)
                    .expect("a variable of the expression");
                IntSym::V(LoopVar(k as u32))
            }
            IntSym::Add(a, b) => {
                let (a, b) = op(a, b);
                IntSym::Add(a, b)
            }
            IntSym::Sub(a, b) => {
                let (a, b) = op(a, b);
                IntSym::Sub(a, b)
            }
            IntSym::Mul(a, b) => {
                let (a, b) = op(a, b);
                IntSym::Mul(a, b)
            }
            IntSym::Div(a, b) => {
                let (a, b) = op(a, b);
                IntSym::Div(a, b)
            }
        }
    }

    fn vars(&self, out: &mut Vec<LoopVar>) {
        match self {
            IntSym::C(_) => {}
            IntSym::V(lv) => {
                if !out.contains(lv) {
                    out.push(*lv);
                }
            }
            IntSym::Add(a, b) | IntSym::Sub(a, b) | IntSym::Mul(a, b) | IntSym::Div(a, b) => {
                a.vars(out);
                b.vars(out);
            }
        }
    }

    fn as_const(&self) -> Option<i64> {
        match self {
            IntSym::C(v) => Some(*v),
            _ => None,
        }
    }
}

/// Work counters for intrinsic evaluation, reported through the
/// telemetry layer (`intrinsics.*` counters in `splc --stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntrinsicStats {
    /// `W(n, k)` invocations folded to a complex constant.
    pub constants_folded: u64,
    /// Twiddle tables hoisted for loop-dependent invocations.
    pub tables_hoisted: u64,
    /// Total complex entries across the hoisted tables.
    pub table_entries: u64,
    /// Loop-dependent invocations served from an already-hoisted table.
    pub table_cache_hits: u64,
}

/// Evaluates every intrinsic invocation in the program, producing constant
/// folds and table references. The returned program contains no
/// [`Value::Intrinsic`] operands.
///
/// # Errors
///
/// Fails for unknown intrinsics, a non-constant modulus `n`, or arguments
/// whose value cannot be expressed over the open loop variables.
pub fn eval_intrinsics(prog: &IProgram) -> Result<IProgram, IntrinsicError> {
    eval_intrinsics_with_stats(prog).map(|(p, _)| p)
}

/// [`eval_intrinsics`], also reporting the folding and hoisting work done.
///
/// # Errors
///
/// Same failure modes as [`eval_intrinsics`].
pub fn eval_intrinsics_with_stats(
    prog: &IProgram,
) -> Result<(IProgram, IntrinsicStats), IntrinsicError> {
    let mut st = Eval {
        open: Vec::new(),
        r_defs: MixMap::default(),
        tables: prog.tables.clone(),
        cache: MixMap::default(),
        stats: IntrinsicStats::default(),
    };
    let mut instrs = Vec::with_capacity(prog.instrs.len());
    for ins in &prog.instrs {
        match ins {
            Instr::DoStart { var, lo, hi, .. } => {
                st.open.push((*var, *lo, *hi));
                instrs.push(ins.clone());
            }
            Instr::DoEnd => {
                let (var, _, _) = st.open.pop().expect("validated i-code");
                // Integer definitions that referenced the closed loop
                // variable are now stale.
                st.r_defs.retain(|_, sym| {
                    let mut vs = Vec::new();
                    sym.vars(&mut vs);
                    !vs.contains(&var)
                });
                instrs.push(ins.clone());
            }
            Instr::Bin { op, dst, a, b } => {
                if let Place::R(r) = dst {
                    // Track integer-register definitions symbolically.
                    match (st.int_sym(a), st.int_sym(b)) {
                        (Some(sa), Some(sb)) => {
                            let sym = match op {
                                BinOp::Add => IntSym::Add(Box::new(sa), Box::new(sb)),
                                BinOp::Sub => IntSym::Sub(Box::new(sa), Box::new(sb)),
                                BinOp::Mul => IntSym::Mul(Box::new(sa), Box::new(sb)),
                                BinOp::Div => IntSym::Div(Box::new(sa), Box::new(sb)),
                            };
                            st.r_defs.insert(*r, sym);
                        }
                        _ => {
                            st.r_defs.remove(r);
                        }
                    }
                    instrs.push(ins.clone());
                } else {
                    let a = st.rewrite(a)?;
                    let b = st.rewrite(b)?;
                    instrs.push(Instr::Bin {
                        op: *op,
                        dst: dst.clone(),
                        a,
                        b,
                    });
                }
            }
            Instr::Un { op, dst, a } => {
                if let Place::R(r) = dst {
                    match st.int_sym(a) {
                        Some(sa) => {
                            let sym = match op {
                                UnOp::Copy => sa,
                                UnOp::Neg => IntSym::Sub(Box::new(IntSym::C(0)), Box::new(sa)),
                            };
                            st.r_defs.insert(*r, sym);
                        }
                        None => {
                            st.r_defs.remove(r);
                        }
                    }
                    instrs.push(ins.clone());
                } else {
                    let a = st.rewrite(a)?;
                    instrs.push(Instr::Un {
                        op: *op,
                        dst: dst.clone(),
                        a,
                    });
                }
            }
        }
    }
    // Everything but the code and the tables is the input's; spelled out
    // so that neither is cloned only to be replaced.
    let IProgram {
        instrs: _,
        n_in,
        n_out,
        temps,
        tables: _,
        n_f,
        n_r,
        n_loop,
        complex,
        prov,
        prov_nodes,
        vec_loops,
    } = prog;
    let out = IProgram {
        instrs,
        n_in: *n_in,
        n_out: *n_out,
        temps: temps.clone(),
        tables: st.tables,
        n_f: *n_f,
        n_r: *n_r,
        n_loop: *n_loop,
        complex: *complex,
        prov: prov.clone(),
        prov_nodes: prov_nodes.clone(),
        vec_loops: vec_loops.clone(),
    };
    Ok((out, st.stats))
}

/// What a hoisted table holds: `W(n, k)` for `k` over the loop ranges,
/// with `k`'s variables renamed to their positions among the ranges, so
/// that two instantiations of one template (other variable ids) share
/// one table.
#[derive(PartialEq, Eq, Hash)]
struct TableKey {
    n: i64,
    k: IntSym,
    ranges: Vec<(i64, i64)>,
}

struct Eval {
    open: Vec<(LoopVar, i64, i64)>,
    r_defs: MixMap<u32, IntSym>,
    tables: Vec<Vec<spl_numeric::Complex>>,
    cache: MixMap<TableKey, u32>,
    stats: IntrinsicStats,
}

impl Eval {
    fn int_sym(&self, v: &Value) -> Option<IntSym> {
        match v {
            Value::Int(c) => Some(IntSym::C(*c)),
            Value::Const(c) if c.is_real() && c.re.fract() == 0.0 => Some(IntSym::C(c.re as i64)),
            Value::LoopIdx(lv) => Some(IntSym::V(*lv)),
            Value::Place(Place::R(r)) => self.r_defs.get(r).cloned(),
            _ => None,
        }
    }

    fn rewrite(&mut self, v: &Value) -> Result<Value, IntrinsicError> {
        let Value::Intrinsic(name, args) = v else {
            return Ok(v.clone());
        };
        if !matches!(name.as_str(), "W" | "w") {
            return Err(IntrinsicError(format!("unknown intrinsic {name}")));
        }
        if args.len() != 2 {
            return Err(IntrinsicError("W expects 2 arguments".into()));
        }
        let n_sym = self
            .int_sym(&args[0])
            .ok_or_else(|| IntrinsicError("W: symbolic modulus".into()))?;
        let n = n_sym
            .as_const()
            .ok_or_else(|| IntrinsicError("W: modulus must be constant".into()))?;
        if n <= 0 {
            return Err(IntrinsicError("W: modulus must be positive".into()));
        }
        let k_sym = self
            .int_sym(&args[1])
            .ok_or_else(|| IntrinsicError("W: argument is not an integer expression".into()))?;
        if let Some(k) = k_sym.as_const() {
            self.stats.constants_folded += 1;
            return Ok(Value::Const(omega(n as usize, k)));
        }
        // Loop-dependent: evaluate for all loop-index values into a table
        // subscripted by the (flattened) loop indices.
        let mut vars = Vec::new();
        k_sym.vars(&mut vars);
        if vars.is_empty() {
            // Constant expression in disguise (e.g. through Div).
            self.stats.constants_folded += 1;
            let k = k_sym.eval(&[]);
            return Ok(Value::Const(omega(n as usize, k)));
        }
        let mut ranges = Vec::new();
        for v in &vars {
            let r = self
                .open
                .iter()
                .find(|(lv, _, _)| lv == v)
                .ok_or_else(|| IntrinsicError("W: argument escapes its loop".into()))?;
            if r.2 < r.1 {
                return Err(IntrinsicError("W: argument of an empty loop".into()));
            }
            ranges.push((r.1, r.2));
        }
        // Flattened index: row-major over the variable ranges.
        let mut idx = Affine::constant(0);
        let mut size: i64 = 1;
        for (&v, &(lo, hi)) in vars.iter().zip(&ranges).rev() {
            idx.add_term(size, v);
            idx.c -= size * lo;
            size *= hi - lo + 1;
        }
        let key = TableKey {
            n,
            k: k_sym.renamed(&vars),
            ranges,
        };
        if let Some(&tid) = self.cache.get(&key) {
            self.stats.table_cache_hits += 1;
            return Ok(Value::Place(Place::Vec(VecRef {
                kind: VecKind::Table(tid),
                idx,
            })));
        }
        // Row-major order is the odometer's, last variable fastest.
        let mut values = Vec::with_capacity(size as usize);
        let mut env: Vec<i64> = key.ranges.iter().map(|&(lo, _)| lo).collect();
        loop {
            values.push(omega(n as usize, key.k.eval(&env)));
            let mut done = true;
            for (slot, &(lo, hi)) in env.iter_mut().zip(&key.ranges).rev() {
                if *slot < hi {
                    *slot += 1;
                    done = false;
                    break;
                }
                *slot = lo;
            }
            if done {
                break;
            }
        }
        let tid = self.tables.len() as u32;
        self.stats.tables_hoisted += 1;
        self.stats.table_entries += values.len() as u64;
        self.tables.push(values);
        self.cache.insert(key, tid);
        Ok(Value::Place(Place::Vec(VecRef {
            kind: VecKind::Table(tid),
            idx,
        })))
    }
}

/// Returns `true` if any intrinsic invocation remains in the program.
pub fn has_intrinsics(prog: &IProgram) -> bool {
    fn value_has(v: &Value) -> bool {
        matches!(v, Value::Intrinsic(_, _))
    }
    prog.instrs.iter().any(|ins| {
        let mut found = false;
        ins.for_each_value(&mut |v| found |= value_has(v));
        found
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unroll::unroll_all;
    use spl_frontend::parser::parse_formula;
    use spl_icode::interp::run;
    use spl_numeric::Complex;
    use spl_templates::{expand_formula, ExpandOptions, TemplateTable};

    fn expand(src: &str) -> IProgram {
        let table = TemplateTable::builtin();
        let sexp = parse_formula(src).unwrap();
        expand_formula(&sexp, &table, &ExpandOptions::default()).unwrap()
    }

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new(i as f64 - 1.5, (i as f64).cos()))
            .collect()
    }

    #[test]
    fn loop_dependent_twiddles_become_tables() {
        let p = expand("(F 4)");
        let e = eval_intrinsics(&p).unwrap();
        assert!(!has_intrinsics(&e));
        assert_eq!(e.tables.len(), 1);
        assert_eq!(e.tables[0].len(), 16); // 4x4 loop nest
        e.validate().unwrap();
        let x = ramp(4);
        let a = run(&p, &x).unwrap();
        let b = run(&e, &x).unwrap();
        for (u, v) in a.iter().zip(&b) {
            assert!(u.approx_eq(*v, 1e-13));
        }
    }

    #[test]
    fn constant_args_fold_to_constants() {
        let p = unroll_all(&expand("(F 4)")).unwrap();
        let e = eval_intrinsics(&p).unwrap();
        assert!(!has_intrinsics(&e));
        assert!(e.tables.is_empty(), "straight-line code needs no tables");
        let x = ramp(4);
        assert_eq!(run(&p, &x).unwrap(), run(&e, &x).unwrap());
    }

    #[test]
    fn tables_are_cached_per_expression() {
        // T 8 4 inside a loop over two blocks reuses one table.
        let p = expand("(tensor (I 2) (T 8 4))");
        let e = eval_intrinsics(&p).unwrap();
        assert_eq!(e.tables.len(), 1);
        let x = ramp(16);
        let a = run(&p, &x).unwrap();
        let b = run(&e, &x).unwrap();
        for (u, v) in a.iter().zip(&b) {
            assert!(u.approx_eq(*v, 1e-13));
        }
    }

    #[test]
    fn twiddle_table_values_are_correct() {
        let p = expand("(T 8 4)");
        let e = eval_intrinsics(&p).unwrap();
        assert_eq!(e.tables.len(), 1);
        // Table is indexed by (i0, i1) flattened; value = W(8, i0*i1).
        let t = &e.tables[0];
        assert_eq!(t.len(), 8);
        for i0 in 0..2i64 {
            for i1 in 0..4i64 {
                let want = omega(8, i0 * i1);
                let got = t[(i0 * 4 + i1) as usize];
                assert!(got.approx_eq(want, 0.0), "({i0},{i1})");
            }
        }
    }

    #[test]
    fn stats_track_folds_and_tables() {
        let (_, looped) = eval_intrinsics_with_stats(&expand("(F 4)")).unwrap();
        assert_eq!(looped.tables_hoisted, 1);
        assert_eq!(looped.table_entries, 16);
        let (_, straight) =
            eval_intrinsics_with_stats(&unroll_all(&expand("(F 4)")).unwrap()).unwrap();
        assert!(straight.constants_folded > 0);
        assert_eq!(straight.tables_hoisted, 0);
        let (_, cached) = eval_intrinsics_with_stats(&expand("(tensor (I 2) (T 8 4))")).unwrap();
        assert_eq!(cached.tables_hoisted, 1);
    }

    #[test]
    fn unknown_intrinsic_rejected() {
        let mut p = expand("(I 2)");
        p.instrs.push(Instr::Un {
            op: UnOp::Copy,
            dst: Place::F(0),
            a: Value::Intrinsic("BOGUS".into(), vec![]),
        });
        p.n_f = 1;
        assert!(eval_intrinsics(&p).is_err());
    }

    #[test]
    fn large_fft_formula_end_to_end() {
        let p = expand("(compose (tensor (F 2) (I 4)) (T 8 4) (tensor (I 2) (F 4)) (L 8 2))");
        let e = eval_intrinsics(&p).unwrap();
        assert!(!has_intrinsics(&e));
        let x = ramp(8);
        let got = run(&e, &x).unwrap();
        let want = spl_numeric::reference::dft(&x);
        for (u, v) in got.iter().zip(&want) {
            assert!(u.approx_eq(*v, 1e-12));
        }
    }
}
