//! Loop unrolling and scalarization (paper Section 3.3.1).
//!
//! Loops marked `unroll` by the expander (from `#unroll on` regions or the
//! `-B` threshold) are fully unrolled: the body is replicated with the
//! loop variable substituted by each constant trip value. After full
//! unrolling, temporary-vector elements with constant subscripts can be
//! replaced by scalar variables — which is what lets the back-end compiler
//! allocate them to registers.

use std::cell::Cell;
use std::collections::HashMap;

use spl_icode::{IProgram, Instr, LoopVar, Place, Value, VecKind, VecRef};

use crate::error::CompileError;
use crate::mix::MixMap;

fn malformed(msg: String) -> CompileError {
    CompileError::MalformedIcode(msg)
}

/// Work counters for the unrolling passes, reported through the
/// telemetry layer (`unroll.*` counters in `splc --stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnrollStats {
    /// Loops fully replicated out of existence by [`unroll`].
    pub loops_fully_unrolled: u64,
    /// Loops rewritten into blocked form by [`unroll_partial`].
    pub loops_partially_unrolled: u64,
    /// Scalar registers introduced for temp elements by [`scalarize`].
    pub temps_scalarized: u64,
}

/// Fully unrolls every loop whose `unroll` flag is set (including loops
/// nested inside one being unrolled, which keep their own flag).
///
/// Fails with [`CompileError::MalformedIcode`] when the loop structure
/// is unbalanced (a malformed user template can expand to such i-code),
/// so one bad candidate degrades instead of aborting a search worker.
pub fn unroll(prog: &IProgram) -> Result<IProgram, CompileError> {
    Ok(unroll_with_stats(prog)?.0)
}

/// [`unroll`], also counting how many loops were eliminated.
pub fn unroll_with_stats(prog: &IProgram) -> Result<(IProgram, UnrollStats), CompileError> {
    unroll_with_stats_capped(prog, usize::MAX)
}

/// [`unroll_with_stats`] with a cap on the unrolled instruction count.
///
/// Replicating loop bodies multiplies code size, so a degenerate formula
/// (huge trip counts under `#unroll on` or a large `-B` threshold) can
/// exhaust memory. The cap stops replication as soon as any block
/// exceeds `max_ops` instructions and fails with
/// [`CompileError::ResourceLimit`] instead.
pub fn unroll_with_stats_capped(
    prog: &IProgram,
    max_ops: usize,
) -> Result<(IProgram, UnrollStats), CompileError> {
    let mut out = prog.clone();
    let mut n_loop = prog.n_loop;
    let mut stats = UnrollStats::default();
    (out.instrs, out.prov) = unroll_block(
        &prog.instrs,
        prog.prov_slice(),
        &mut n_loop,
        &mut stats.loops_fully_unrolled,
        max_ops,
    )?;
    out.n_loop = n_loop;
    Ok((out, stats))
}

/// Fully unrolls *all* loops regardless of flags (used when a whole
/// formula is compiled with `#unroll on` semantics at top level).
pub fn unroll_all(prog: &IProgram) -> Result<IProgram, CompileError> {
    let mut p = prog.clone();
    for ins in &mut p.instrs {
        if let Instr::DoStart { unroll, .. } = ins {
            *unroll = true;
        }
    }
    unroll(&p)
}

fn unroll_block(
    instrs: &[Instr],
    prov: &[u32],
    n_loop: &mut u32,
    unrolled: &mut u64,
    max_ops: usize,
) -> Result<(Vec<Instr>, Vec<u32>), CompileError> {
    let has_prov = !prov.is_empty();
    let sub_prov = |lo: usize, hi: usize| if has_prov { &prov[lo..hi] } else { &[][..] };
    let mut out = Vec::with_capacity(instrs.len());
    let mut out_prov = Vec::with_capacity(if has_prov { instrs.len() } else { 0 });
    let mut pc = 0;
    while pc < instrs.len() {
        match &instrs[pc] {
            Instr::DoStart {
                var,
                lo,
                hi,
                unroll: flag,
            } => {
                let end = matching_end(instrs, pc)?;
                let (body, body_prov) = unroll_block(
                    &instrs[pc + 1..end],
                    sub_prov(pc + 1, end),
                    n_loop,
                    unrolled,
                    max_ops,
                )?;
                if *flag {
                    *unrolled += 1;
                    for v in *lo..=*hi {
                        if out.len() > max_ops {
                            return Err(CompileError::ResourceLimit(format!(
                                "unrolled code exceeds {max_ops} instructions \
                                 (use --max-unrolled-ops to raise)"
                            )));
                        }
                        // Inner loops that were kept need fresh variable
                        // ids in every replica (ids are program-unique).
                        let replica = refresh_loop_vars(&body, n_loop);
                        for ins in &replica {
                            out.push(substitute_loop_var(ins, *var, v));
                        }
                        out_prov.extend_from_slice(&body_prov);
                    }
                } else {
                    out.push(instrs[pc].clone());
                    out.extend(body);
                    out.push(Instr::DoEnd);
                    if has_prov {
                        out_prov.push(prov[pc]);
                        out_prov.extend_from_slice(&body_prov);
                        out_prov.push(prov[end]);
                    }
                }
                pc = end + 1;
            }
            Instr::DoEnd => {
                return Err(malformed(format!(
                    "unbalanced loops: doend at instruction {pc} has no matching dostart"
                )));
            }
            other => {
                out.push(other.clone());
                if has_prov {
                    out_prov.push(prov[pc]);
                }
                pc += 1;
            }
        }
    }
    Ok((out, out_prov))
}

/// Partially unrolls every loop by the given factor: the body is
/// replicated `factor` times per iteration (with the loop variable offset
/// by `0..factor`), plus a remainder loop when the trip count does not
/// divide evenly (paper Section 3.3.1: loops may be unrolled "fully or
/// partially").
///
/// Loops whose trip count is below the factor are left alone; fully
/// unrollable flagged loops should be handled by [`unroll`] first.
///
/// Fails with [`CompileError::MalformedIcode`] on unbalanced loop
/// structure, like [`unroll`].
///
/// # Panics
///
/// Panics if `factor` is zero.
pub fn unroll_partial(prog: &IProgram, factor: usize) -> Result<IProgram, CompileError> {
    Ok(unroll_partial_with_stats(prog, factor)?.0)
}

/// [`unroll_partial`], also counting how many loops were blocked.
///
/// # Panics
///
/// Panics if `factor` is zero.
pub fn unroll_partial_with_stats(
    prog: &IProgram,
    factor: usize,
) -> Result<(IProgram, UnrollStats), CompileError> {
    assert!(factor >= 1, "unroll factor must be at least 1");
    let mut out = prog.clone();
    let mut stats = UnrollStats::default();
    if factor == 1 {
        return Ok((out, stats));
    }
    (out.instrs, out.prov) = partial_block(
        &prog.instrs,
        prog.prov_slice(),
        factor as i64,
        &mut out.n_loop,
        &mut stats.loops_partially_unrolled,
    )?;
    Ok((out, stats))
}

fn partial_block(
    instrs: &[Instr],
    prov: &[u32],
    factor: i64,
    n_loop: &mut u32,
    blocked: &mut u64,
) -> Result<(Vec<Instr>, Vec<u32>), CompileError> {
    let has_prov = !prov.is_empty();
    let sub_prov = |lo: usize, hi: usize| if has_prov { &prov[lo..hi] } else { &[][..] };
    let mut out = Vec::with_capacity(instrs.len());
    let mut out_prov = Vec::with_capacity(if has_prov { instrs.len() } else { 0 });
    let mut pc = 0;
    while pc < instrs.len() {
        match &instrs[pc] {
            Instr::DoStart {
                var,
                lo,
                hi,
                unroll: flag,
            } => {
                let end = matching_end(instrs, pc)?;
                let (body, body_prov) = partial_block(
                    &instrs[pc + 1..end],
                    sub_prov(pc + 1, end),
                    factor,
                    n_loop,
                    blocked,
                )?;
                let trips = hi - lo + 1;
                // A body reading the loop index as a *value* (rather than
                // in a subscript) cannot be re-expressed over the block
                // counter; keep such loops intact. This only arises
                // before intrinsic evaluation.
                let reads_index = body.iter().any(|ins| {
                    let mut hit = false;
                    ins.for_each_value(&mut |v| {
                        fn scan(v: &Value, var: LoopVar, hit: &mut bool) {
                            match v {
                                Value::LoopIdx(lv) if *lv == var => *hit = true,
                                Value::Intrinsic(_, args) => {
                                    args.iter().for_each(|a| scan(a, var, hit))
                                }
                                _ => {}
                            }
                        }
                        scan(v, *var, &mut hit);
                    });
                    hit
                });
                if trips < factor || reads_index {
                    out.push(instrs[pc].clone());
                    out.extend(body);
                    out.push(Instr::DoEnd);
                    if has_prov {
                        out_prov.push(prov[pc]);
                        out_prov.extend_from_slice(&body_prov);
                        out_prov.push(prov[end]);
                    }
                } else {
                    // Main loop: a fresh block counter b = 0..trips/factor,
                    // body instances at var = lo + b*factor + k.
                    *blocked += 1;
                    let blocks = trips / factor;
                    let block_var = LoopVar(*n_loop);
                    *n_loop += 1;
                    out.push(Instr::DoStart {
                        var: block_var,
                        lo: 0,
                        hi: blocks - 1,
                        unroll: *flag,
                    });
                    if has_prov {
                        // The block loop header/footer inherit the
                        // original loop's node.
                        out_prov.push(prov[pc]);
                    }
                    for k in 0..factor {
                        // Each replica needs fresh ids for any loops it
                        // contains (loop variables are program-unique).
                        let replica = refresh_loop_vars(&body, n_loop);
                        for ins in &replica {
                            // var -> lo + k + factor*block_var: substitute
                            // the constant part, then add the scaled block
                            // term to every affine that mentioned var.
                            out.push(replace_loop_var_affine(
                                ins,
                                *var,
                                *lo + k,
                                factor,
                                block_var,
                            )?);
                        }
                        out_prov.extend_from_slice(&body_prov);
                    }
                    out.push(Instr::DoEnd);
                    if has_prov {
                        out_prov.push(prov[end]);
                    }
                    // Remainder, fully unrolled.
                    for v in (lo + blocks * factor)..=*hi {
                        let replica = refresh_loop_vars(&body, n_loop);
                        for ins in &replica {
                            out.push(substitute_loop_var(ins, *var, v));
                        }
                        out_prov.extend_from_slice(&body_prov);
                    }
                }
                pc = end + 1;
            }
            Instr::DoEnd => {
                return Err(malformed(format!(
                    "unbalanced loops: doend at instruction {pc} has no matching dostart"
                )));
            }
            other => {
                out.push(other.clone());
                if has_prov {
                    out_prov.push(prov[pc]);
                }
                pc += 1;
            }
        }
    }
    Ok((out, out_prov))
}

/// Gives every loop nested in `body` a fresh program-unique variable id
/// (used when a body is replicated).
fn refresh_loop_vars(body: &[Instr], n_loop: &mut u32) -> Vec<Instr> {
    let mut map: HashMap<LoopVar, LoopVar> = HashMap::new();
    for ins in body {
        if let Instr::DoStart { var, .. } = ins {
            let fresh = LoopVar(*n_loop);
            *n_loop += 1;
            map.insert(*var, fresh);
        }
    }
    if map.is_empty() {
        return body.to_vec();
    }
    let sub_affine = |a: &spl_icode::Affine| -> spl_icode::Affine {
        let mut r = spl_icode::Affine::constant(a.c);
        for &(k, v) in &a.terms {
            r.add_term(k, map.get(&v).copied().unwrap_or(v));
        }
        r
    };
    let sub_place = |p: &Place| -> Place {
        match p {
            Place::Vec(v) => Place::Vec(VecRef {
                kind: v.kind,
                idx: sub_affine(&v.idx),
            }),
            other => other.clone(),
        }
    };
    fn sub_value(
        v: &Value,
        map: &HashMap<LoopVar, LoopVar>,
        sub_place: &dyn Fn(&Place) -> Place,
    ) -> Value {
        match v {
            Value::Place(p) => Value::Place(sub_place(p)),
            Value::LoopIdx(lv) => Value::LoopIdx(map.get(lv).copied().unwrap_or(*lv)),
            Value::Intrinsic(name, args) => Value::Intrinsic(
                name.clone(),
                args.iter().map(|a| sub_value(a, map, sub_place)).collect(),
            ),
            other => other.clone(),
        }
    }
    body.iter()
        .map(|ins| match ins {
            Instr::DoStart {
                var,
                lo,
                hi,
                unroll,
            } => Instr::DoStart {
                var: map[var],
                lo: *lo,
                hi: *hi,
                unroll: *unroll,
            },
            Instr::DoEnd => Instr::DoEnd,
            Instr::Bin { op, dst, a, b } => Instr::Bin {
                op: *op,
                dst: sub_place(dst),
                a: sub_value(a, &map, &sub_place),
                b: sub_value(b, &map, &sub_place),
            },
            Instr::Un { op, dst, a } => Instr::Un {
                op: *op,
                dst: sub_place(dst),
                a: sub_value(a, &map, &sub_place),
            },
        })
        .collect()
}

/// Rewrites `var` as `c + scale·new_var` inside an instruction.
///
/// The caller guarantees (via the `reads_index` scan) that the body
/// never reads `var` as a bare value; if one slips through anyway —
/// malformed i-code — the old loop index would survive blocking and
/// silently compute garbage, so that case is reported as
/// [`CompileError::MalformedIcode`] instead.
fn replace_loop_var_affine(
    ins: &Instr,
    var: LoopVar,
    c: i64,
    scale: i64,
    new_var: LoopVar,
) -> Result<Instr, CompileError> {
    let stale = Cell::new(false);
    let sub_affine = |a: &spl_icode::Affine| -> spl_icode::Affine {
        let coeff = a
            .terms
            .iter()
            .find(|&&(_, v)| v == var)
            .map(|&(k, _)| k)
            .unwrap_or(0);
        let mut r = a.substitute(var, c);
        r.add_term(coeff * scale, new_var);
        r
    };
    let sub_place = |p: &Place| -> Place {
        match p {
            Place::Vec(v) => Place::Vec(VecRef {
                kind: v.kind,
                idx: sub_affine(&v.idx),
            }),
            other => other.clone(),
        }
    };
    fn sub_value(
        v: &Value,
        var: LoopVar,
        stale: &Cell<bool>,
        sub_place: &dyn Fn(&Place) -> Place,
    ) -> Value {
        match v {
            Value::Place(p) => Value::Place(sub_place(p)),
            Value::LoopIdx(lv) if *lv == var => {
                // A direct loop-index value cannot be expressed as a
                // single operand after blocking; the caller's
                // `reads_index` scan keeps such loops intact, so hitting
                // this means the scan and the body disagree — malformed
                // i-code, reported below.
                stale.set(true);
                Value::LoopIdx(*lv)
            }
            Value::Intrinsic(name, args) => Value::Intrinsic(
                name.clone(),
                args.iter()
                    .map(|a| sub_value(a, var, stale, sub_place))
                    .collect(),
            ),
            other => other.clone(),
        }
    }
    let out = match ins {
        Instr::Bin { op, dst, a, b } => Instr::Bin {
            op: *op,
            dst: sub_place(dst),
            a: sub_value(a, var, &stale, &sub_place),
            b: sub_value(b, var, &stale, &sub_place),
        },
        Instr::Un { op, dst, a } => Instr::Un {
            op: *op,
            dst: sub_place(dst),
            a: sub_value(a, var, &stale, &sub_place),
        },
        other => other.clone(),
    };
    if stale.get() {
        return Err(malformed(format!(
            "loop index {var:?} survived partial unrolling (read as a bare value)"
        )));
    }
    Ok(out)
}

fn matching_end(instrs: &[Instr], start: usize) -> Result<usize, CompileError> {
    let mut depth = 0usize;
    for (k, ins) in instrs.iter().enumerate().skip(start) {
        match ins {
            Instr::DoStart { .. } => depth += 1,
            Instr::DoEnd => {
                depth -= 1;
                if depth == 0 {
                    return Ok(k);
                }
            }
            _ => {}
        }
    }
    Err(malformed(format!(
        "unbalanced loops: dostart at instruction {start} has no matching doend"
    )))
}

fn substitute_loop_var(ins: &Instr, var: LoopVar, value: i64) -> Instr {
    let sub_place = |p: &Place| -> Place {
        match p {
            Place::Vec(v) => Place::Vec(VecRef {
                kind: v.kind,
                idx: v.idx.substitute(var, value),
            }),
            other => other.clone(),
        }
    };
    fn sub_value(v: &Value, var: LoopVar, value: i64) -> Value {
        match v {
            Value::Place(Place::Vec(vr)) => Value::Place(Place::Vec(VecRef {
                kind: vr.kind,
                idx: vr.idx.substitute(var, value),
            })),
            Value::LoopIdx(lv) if *lv == var => Value::Int(value),
            Value::Intrinsic(name, args) => Value::Intrinsic(
                name.clone(),
                args.iter().map(|a| sub_value(a, var, value)).collect(),
            ),
            other => other.clone(),
        }
    }
    match ins {
        Instr::Bin { op, dst, a, b } => Instr::Bin {
            op: *op,
            dst: sub_place(dst),
            a: sub_value(a, var, value),
            b: sub_value(b, var, value),
        },
        Instr::Un { op, dst, a } => Instr::Un {
            op: *op,
            dst: sub_place(dst),
            a: sub_value(a, var, value),
        },
        other => other.clone(),
    }
}

/// Replaces temporary-vector elements that are *only* accessed with
/// constant subscripts by fresh scalar `$f` registers (paper: "substitute
/// scalar variables for array elements").
///
/// Temps with any symbolic access are left untouched; `$in`/`$out` are
/// never scalarized.
pub fn scalarize(prog: &IProgram) -> IProgram {
    scalarize_with_stats(prog).0
}

/// [`scalarize`], also counting the scalar registers introduced.
pub fn scalarize_with_stats(prog: &IProgram) -> (IProgram, UnrollStats) {
    let mut out = prog.clone();
    let stats = scalarize_in_place(&mut out);
    (out, stats)
}

/// [`scalarize_with_stats`] on the program itself: the constant tables
/// of a large transform are neither copied nor compared. The program
/// changed exactly when `n_f` or `temps` did.
pub(crate) fn scalarize_in_place(prog: &mut IProgram) -> UnrollStats {
    // Pass 1: find temps accessed only with constant subscripts.
    let mut const_only: Vec<bool> = prog.temps.iter().map(|_| true).collect();
    let mark = |vr: &VecRef, const_only: &mut Vec<bool>| {
        if let VecKind::Temp(t) = vr.kind {
            if vr.idx.as_const().is_none() {
                const_only[t as usize] = false;
            }
        }
    };
    for ins in &prog.instrs {
        visit_vecs(ins, &mut |vr| mark(vr, &mut const_only));
    }
    // Pass 2: rewrite accesses.
    let mut next_f = prog.n_f;
    let mut map: MixMap<(u32, i64), u32> = MixMap::default();
    // A scalarized temp element becomes its register; every other place
    // stays as it is, uncopied.
    let rewrite_place = |p: &mut Place, map: &mut MixMap<(u32, i64), u32>, next_f: &mut u32| {
        if let Place::Vec(VecRef {
            kind: VecKind::Temp(t),
            idx,
        }) = p
        {
            if const_only[*t as usize] {
                let c = idx.as_const().expect("const-only temp");
                let id = *map.entry((*t, c)).or_insert_with(|| {
                    let id = *next_f;
                    *next_f += 1;
                    id
                });
                *p = Place::F(id);
            }
        }
    };
    for ins in &mut prog.instrs {
        match ins {
            Instr::Bin { dst, a, b, .. } => {
                rewrite_place(dst, &mut map, &mut next_f);
                rewrite_value(a, &mut |p| rewrite_place(p, &mut map, &mut next_f));
                rewrite_value(b, &mut |p| rewrite_place(p, &mut map, &mut next_f));
            }
            Instr::Un { dst, a, .. } => {
                rewrite_place(dst, &mut map, &mut next_f);
                rewrite_value(a, &mut |p| rewrite_place(p, &mut map, &mut next_f));
            }
            _ => {}
        }
    }
    prog.n_f = next_f;
    // Shrink fully-scalarized temps to zero length (they are never
    // addressed any more).
    for (t, only) in const_only.iter().enumerate() {
        if *only {
            prog.temps[t] = 0;
        }
    }
    UnrollStats {
        temps_scalarized: map.len() as u64,
        ..Default::default()
    }
}

fn visit_vecs(ins: &Instr, f: &mut dyn FnMut(&VecRef)) {
    fn visit_value(v: &Value, f: &mut dyn FnMut(&VecRef)) {
        match v {
            Value::Place(Place::Vec(vr)) => f(vr),
            Value::Intrinsic(_, args) => args.iter().for_each(|a| visit_value(a, f)),
            _ => {}
        }
    }
    match ins {
        Instr::Bin { dst, a, b, .. } => {
            if let Place::Vec(vr) = dst {
                f(vr);
            }
            visit_value(a, f);
            visit_value(b, f);
        }
        Instr::Un { dst, a, .. } => {
            if let Place::Vec(vr) = dst {
                f(vr);
            }
            visit_value(a, f);
        }
        _ => {}
    }
}

fn rewrite_value(v: &mut Value, f: &mut dyn FnMut(&mut Place)) {
    match v {
        Value::Place(p) => f(p),
        Value::Intrinsic(_, args) => args.iter_mut().for_each(|a| rewrite_value(a, f)),
        _ => {}
    }
}

/// Convenience: does the program still contain loops?
pub fn has_loops(prog: &IProgram) -> bool {
    prog.instrs
        .iter()
        .any(|i| matches!(i, Instr::DoStart { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spl_frontend::parser::parse_formula;
    use spl_icode::interp::run;
    use spl_numeric::Complex;
    use spl_templates::{expand_formula, ExpandOptions, TemplateTable};

    fn expand(src: &str, unroll_flag: bool) -> IProgram {
        let table = TemplateTable::builtin();
        let sexp = parse_formula(src).unwrap();
        let opts = ExpandOptions {
            unroll: unroll_flag,
            ..Default::default()
        };
        expand_formula(&sexp, &table, &opts).unwrap()
    }

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new(i as f64 + 0.5, (i as f64).sin()))
            .collect()
    }

    #[test]
    fn unroll_preserves_semantics() {
        for src in ["(F 4)", "(L 8 2)", "(T 8 4)", "(tensor (I 4) (F 2))"] {
            let p = expand(src, true);
            let u = unroll(&p).unwrap();
            assert!(!has_loops(&u), "{src} should be loop-free");
            u.validate().unwrap();
            let x = ramp(p.n_in);
            assert_eq!(run(&p, &x).unwrap(), run(&u, &x).unwrap(), "{src}");
        }
    }

    #[test]
    fn unmarked_loops_stay() {
        let p = expand("(tensor (I 4) (F 2))", false);
        let u = unroll(&p).unwrap();
        assert!(has_loops(&u));
        assert_eq!(p.instrs.len(), u.instrs.len());
    }

    #[test]
    fn unroll_all_ignores_flags() {
        let p = expand("(tensor (I 4) (F 2))", false);
        let u = unroll_all(&p).unwrap();
        assert!(!has_loops(&u));
        let x = ramp(8);
        assert_eq!(run(&p, &x).unwrap(), run(&u, &x).unwrap());
    }

    #[test]
    fn unrolled_f4_intrinsics_become_constant_args() {
        let u = unroll_all(&expand("(F 4)", false)).unwrap();
        // After unrolling, no LoopIdx values remain anywhere.
        for ins in &u.instrs {
            ins.for_each_value(&mut |v| {
                fn no_loop_idx(v: &Value) {
                    match v {
                        Value::LoopIdx(_) => panic!("loop index survived unrolling"),
                        Value::Intrinsic(_, args) => args.iter().for_each(no_loop_idx),
                        _ => {}
                    }
                }
                no_loop_idx(v);
            });
        }
    }

    #[test]
    fn scalarize_replaces_const_temp_accesses() {
        // compose creates a temp; fully unrolled, all its accesses are
        // constant, so it must disappear.
        let p = unroll_all(&expand("(compose (F 2) (F 2))", false)).unwrap();
        let s = scalarize(&p);
        s.validate().unwrap();
        assert_eq!(s.temps, vec![0]);
        let x = ramp(2);
        assert_eq!(run(&p, &x).unwrap(), run(&s, &x).unwrap());
        // No temp accesses remain.
        for ins in &s.instrs {
            visit_vecs(ins, &mut |vr| {
                assert!(!matches!(vr.kind, VecKind::Temp(_)));
            });
        }
    }

    #[test]
    fn scalarize_keeps_symbolic_temps() {
        // Without unrolling, the compose temp is accessed through loop
        // variables and must stay an array.
        let p = expand("(compose (F 4) (F 4))", false);
        let s = scalarize(&p);
        assert_eq!(s.temps, p.temps);
        let x = ramp(4);
        assert_eq!(run(&p, &x).unwrap(), run(&s, &x).unwrap());
    }

    #[test]
    fn unrolling_outer_keeps_inner_loop_vars_unique() {
        // Mark only the OUTER loop for unrolling; the inner loop stays
        // and must get fresh variable ids per replica.
        let p = expand("(tensor (I 3) (F 4))", false);
        let mut p = p;
        let mut first = true;
        for ins in &mut p.instrs {
            if let Instr::DoStart { unroll, .. } = ins {
                if first {
                    *unroll = true;
                    first = false;
                }
            }
        }
        let u = unroll(&p).unwrap();
        u.validate().unwrap();
        let x = ramp(12);
        assert_eq!(run(&p, &x).unwrap(), run(&u, &x).unwrap());
    }

    #[test]
    fn partial_unroll_preserves_semantics() {
        for src in ["(L 16 4)", "(T 16 8)", "(tensor (I 12) (F 2))", "(F 4)"] {
            let p = crate::intrinsics::eval_intrinsics(&expand(src, false)).unwrap();
            for factor in [2usize, 3, 4] {
                let u = unroll_partial(&p, factor).unwrap();
                u.validate().unwrap();
                let x = ramp(p.n_in);
                assert_eq!(
                    run(&p, &x).unwrap(),
                    run(&u, &x).unwrap(),
                    "{src} factor {factor}"
                );
            }
        }
    }

    #[test]
    fn partial_unroll_emits_remainder() {
        // Trip count 12 with factor 5: main loop 2 blocks + 2 remainder
        // copies.
        let p =
            crate::intrinsics::eval_intrinsics(&expand("(tensor (I 12) (F 2))", false)).unwrap();
        let u = unroll_partial(&p, 5).unwrap();
        u.validate().unwrap();
        let x = ramp(24);
        assert_eq!(run(&p, &x).unwrap(), run(&u, &x).unwrap());
        // One loop remains (the blocked main loop).
        let loops = u
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::DoStart { .. }))
            .count();
        assert_eq!(loops, 1);
    }

    #[test]
    fn partial_unroll_keeps_index_reading_loops() {
        // (F 4) unevaluated still reads loop indices into $r registers;
        // such loops must be left intact.
        let p = expand("(F 4)", false);
        let u = unroll_partial(&p, 2).unwrap();
        let x = ramp(4);
        assert_eq!(run(&p, &x).unwrap(), run(&u, &x).unwrap());
    }

    #[test]
    fn partial_unroll_nested_loops_get_fresh_vars() {
        let p = crate::intrinsics::eval_intrinsics(&expand(
            "(tensor (I 4) (tensor (I 4) (F 2)))",
            false,
        ))
        .unwrap();
        let u = unroll_partial(&p, 2).unwrap();
        u.validate().unwrap();
        let x = ramp(32);
        assert_eq!(run(&p, &x).unwrap(), run(&u, &x).unwrap());
    }

    #[test]
    fn malformed_unbalanced_loops_error_instead_of_panicking() {
        // A DoStart with no matching DoEnd — the shape a malformed user
        // template expands to. This used to panic ("unbalanced loops in
        // validated i-code"), killing the whole search process; now it
        // must surface as a per-candidate MalformedIcode error.
        let p = IProgram {
            instrs: vec![Instr::DoStart {
                var: LoopVar(0),
                lo: 0,
                hi: 3,
                unroll: true,
            }],
            n_loop: 1,
            ..IProgram::empty()
        };
        match unroll(&p) {
            Err(CompileError::MalformedIcode(msg)) => {
                assert!(msg.contains("no matching doend"), "{msg}");
            }
            other => panic!("expected MalformedIcode, got {other:?}"),
        }
        match unroll_partial(&p, 2) {
            Err(CompileError::MalformedIcode(_)) => {}
            other => panic!("expected MalformedIcode, got {other:?}"),
        }
    }

    #[test]
    fn stray_doend_errors_instead_of_corrupting_output() {
        // The mirror image: a DoEnd with no opening DoStart previously
        // slid through unchanged, producing unbalanced output for later
        // phases to trip over.
        let p = IProgram {
            instrs: vec![Instr::DoEnd],
            ..IProgram::empty()
        };
        assert!(matches!(unroll(&p), Err(CompileError::MalformedIcode(_))));
        assert!(matches!(
            unroll_partial(&p, 2),
            Err(CompileError::MalformedIcode(_))
        ));
    }

    #[test]
    fn nested_unroll_inner_only() {
        // Mark only the inner loops: (tensor (I 32) (unroll-marked inner)).
        let table = TemplateTable::builtin();
        let sexp = parse_formula("(tensor (I 32) I2F2)").unwrap();
        let i2f2 = parse_formula("(tensor (I 2) (F 2))").unwrap();
        let opts = ExpandOptions {
            defines: vec![("I2F2".into(), i2f2, true)],
            ..Default::default()
        };
        let p = expand_formula(&sexp, &table, &opts).unwrap();
        let u = unroll(&p).unwrap();
        // Outer loop remains; inner is gone.
        let loops: Vec<_> = u
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::DoStart { .. }))
            .collect();
        assert_eq!(loops.len(), 1);
        let x = ramp(128);
        assert_eq!(run(&p, &x).unwrap(), run(&u, &x).unwrap());
    }
}
