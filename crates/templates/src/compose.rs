//! `compose`: the factors applied right to left, one sweep through
//! memory per *tensor stage* rather than one per factor.
//!
//! A chain `A₁·A₂·…·A_k` runs through two alternating temporaries, so
//! any length needs at most two buffers. Before that, the stride
//! permutations and twiddle diagonals of the chain are folded into the
//! tensor stage beside them (paper Section 3.2's composite templates,
//! applied to every compose rather than matched pattern by pattern):
//!
//! * `(I_m ⊗ B) · L^n_m` is the `I_m ⊗ B` loop calling `B` with input
//!   offset `i`, stride `m`; `(A ⊗ I_m) · L^n_c` (with `A` on `c`
//!   points) is the `A ⊗ I_m` loop calling `A` on the contiguous block
//!   `i·c`. On the output side `L^n_q · S` scatters through the inverse
//!   permutation `L^n_{n/q}` the same way.
//! * `(A ⊗ I_s) · T^n_s` is the `A ⊗ I_s` loop whose `A` reads
//!   `W(n, e·i) · x[i + s·e]`, and `T^n_s · (A ⊗ I_s)` the loop whose
//!   `A` writes them — through a `c`-element temporary whose fill loop is
//!   unrolled exactly when `A` comes out straight-line, so that
//!   scalarization turns it into registers and the multiply lands on the
//!   codelet's loads and stores. `I_r ⊗ B` with `B` on `s` points takes
//!   `T^n_s` the same way (position `s·i + e` carries `W(n, e·i)` too).
//!
//! A run of `L`/`T` factors between two stages is shared between them so
//! that as many as possible fold; where both could take a twiddle, the
//! stage with the shorter sub-vector gets it (`min(r, s)` multiplies in
//! an unrolled body instead of `max(r, s)`). The four FFT breakdown rules
//! (paper Eq. 5, 7, 8, 9) all come out as two sweeps through one buffer.
//!
//! Either fold leaves every value moved and multiplied exactly as the
//! unfolded factors would, only later or earlier. A factor that is not a
//! built-in `L`, `T` or `⊗ I` (a user template overrides the fold along
//! with the built-in it replaces), or has no stage beside it that can
//! take it, is expanded as a sweep of its own.

use std::cmp::Reverse;

use spl_frontend::sexp::Sexp;
use spl_icode::{Affine, BinOp, Instr, LoopVar, Place, UnOp, Value, VecKind, VecRef};

use crate::expand::{ExpandError, Expander, Params};
use crate::shape::shape_of;

/// How a tensor stage's loop walks one of its vectors: element `e` of
/// iteration `i` sits at `c·i + e` (blocked, `I_m ⊗ B` with `B` on `c`
/// points) or at `i + m·e` (strided, `A ⊗ I_m`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    Blocked,
    Strided,
}

/// One side (input or output) of a stage and what it has absorbed.
#[derive(Debug, Clone, Copy)]
struct Side {
    layout: Layout,
    /// Stride permutations folded (each flips the layout).
    perms: u64,
    /// The `n` of a folded twiddle diagonal: scale element `e` of
    /// iteration `i` by `W(n, e·i)`.
    diag: Option<i64>,
}

impl Side {
    fn folded(&self) -> bool {
        self.perms > 0 || self.diag.is_some()
    }

    /// `(a, b)` such that element `e` of iteration `i` sits at `a·i + b·e`.
    fn coeffs(&self, m: usize, c: usize) -> (i64, i64) {
        match self.layout {
            Layout::Blocked => (c as i64, 1),
            Layout::Strided => (1, m as i64),
        }
    }

    /// Tries to fold `g`, the factor next to this side, into a stage of
    /// `m` iterations over sub-vectors of `c` points.
    fn absorb(&mut self, g: &Kind, m: usize, c: usize, input: bool) -> bool {
        match *g {
            Kind::Stride { n, q } if n == m * c => {
                // Gathering through L^n_q turns the blocked walk into
                // the strided one when q = m and back when q = c; a
                // scatter goes through the inverse, L^n_{n/q}.
                let q = if input { q } else { n / q };
                self.layout = match self.layout {
                    Layout::Blocked if q == m => Layout::Strided,
                    Layout::Strided if q == c => Layout::Blocked,
                    _ => return false,
                };
                self.perms += 1;
                true
            }
            // Position i + m·e of T^n_m carries W(n, e·i), and so does
            // position c·i + e of T^n_c.
            Kind::Twiddle { n, s }
                if n == m * c
                    && self.diag.is_none()
                    && s == match self.layout {
                        Layout::Blocked => c,
                        Layout::Strided => m,
                    } =>
            {
                self.diag = Some(n as i64);
                true
            }
            _ => false,
        }
    }
}

/// `(tensor (I m) sub)` or `(tensor sub (I m))`.
#[derive(Debug, Clone, Copy)]
struct Stage<'s> {
    sub: &'s Sexp,
    m: usize,
    /// Shape of `sub`.
    rows: usize,
    cols: usize,
    input: Side,
    output: Side,
}

impl Stage<'_> {
    /// One side of the stage after it has taken 1, 2, … of `run` (nearest
    /// first, as far as it can), each with the sub-vector points a taken
    /// twiddle multiplies per iteration.
    fn takes(&self, input: bool, run: &[Step<'_>]) -> Vec<(Side, usize)> {
        let (mut side, c) = match input {
            true => (self.input, self.cols),
            false => (self.output, self.rows),
        };
        let nearest_first = |k: usize| &run[if input { run.len() - 1 - k } else { k }];
        (0..run.len())
            .map_while(|k| {
                side.absorb(&nearest_first(k).kind, self.m, c, input)
                    .then(|| (side, side.diag.map_or(0, |_| c)))
            })
            .collect()
    }
}

/// A compose factor, as far as the fold is concerned.
#[derive(Debug, Clone, Copy)]
enum Kind<'s> {
    /// `(L n q)`.
    Stride {
        n: usize,
        q: usize,
    },
    /// `(T n s)`.
    Twiddle {
        n: usize,
        s: usize,
    },
    Stage(Stage<'s>),
    Other,
}

/// One sweep: a factor, with whatever its neighbours folded into it.
#[derive(Clone, Copy)]
struct Step<'s> {
    /// Index of the factor in the compose.
    at: usize,
    kind: Kind<'s>,
}

/// A vector seen through an offset and a stride.
#[derive(Clone)]
struct View {
    base: VecKind,
    off: Affine,
    stride: i64,
}

impl View {
    /// What a template instance reads.
    fn input(p: &Params) -> View {
        View {
            base: p.in_base,
            off: p.in_off.clone(),
            stride: p.in_stride,
        }
    }

    /// What a template instance writes.
    fn output(p: &Params) -> View {
        View {
            base: p.out_base,
            off: p.out_off.clone(),
            stride: p.out_stride,
        }
    }

    fn whole(temp: u32) -> View {
        View {
            base: VecKind::Temp(temp),
            off: Affine::constant(0),
            stride: 1,
        }
    }

    /// The view of every `stride`-th element from `off` on.
    fn window(&self, off: &Affine, stride: i64) -> View {
        View {
            base: self.base,
            off: self.off.add(&off.scale(self.stride)),
            stride: self.stride * stride,
        }
    }

    fn at(&self, idx: &Affine) -> Place {
        Place::Vec(VecRef {
            kind: self.base,
            idx: self.off.add(&idx.scale(self.stride)),
        })
    }
}

fn io(input: View, output: View, (rows, cols): (usize, usize), unroll: bool) -> Params {
    Params {
        in_base: input.base,
        out_base: output.base,
        in_off: input.off,
        out_off: output.off,
        in_stride: input.stride,
        out_stride: output.stride,
        in_size: cols,
        out_size: rows,
        unroll,
    }
}

fn identity_size(s: &Sexp) -> Option<usize> {
    match s.as_list()? {
        [head, m] if head == &Sexp::sym("I") => m.as_int().filter(|&m| m >= 1).map(|m| m as usize),
        _ => None,
    }
}

impl Expander<'_> {
    pub(crate) fn native_compose(
        &mut self,
        sexp: &Sexp,
        params: Params,
    ) -> Result<(), ExpandError> {
        let factors = self.list_parts(sexp, "compose")?;
        if factors.is_empty() {
            return Err(ExpandError::Shape("empty compose".into()));
        }
        let shapes = factors
            .iter()
            .map(|f| shape_of(f, self.table))
            .collect::<Result<Vec<_>, _>>()?;
        for w in shapes.windows(2) {
            if w[0].1 != w[1].0 {
                return Err(ExpandError::Shape(format!(
                    "compose shape mismatch in {sexp}"
                )));
            }
        }
        let steps = self.plan(factors, &shapes)?;
        if factors.len() > 1 {
            self.stats.compose_materialized += steps.len() as u64;
            for step in &steps {
                if let Kind::Stage(st) = &step.kind {
                    self.stats.fold_perm += st.input.perms + st.output.perms;
                    self.stats.fold_diag +=
                        st.input.diag.is_some() as u64 + st.output.diag.is_some() as u64;
                }
            }
        }
        // Step j (0-based, not the last) leaves its result in buffer j % 2.
        let k = steps.len();
        let mut buf_size = [0usize; 2];
        for (j, step) in steps[..k - 1].iter().enumerate() {
            buf_size[j % 2] = buf_size[j % 2].max(shapes[step.at].0);
        }
        let bufs: Vec<u32> = buf_size[..(k - 1).min(2)]
            .iter()
            .map(|&size| self.alloc_sized_temp(size))
            .collect();
        for (j, step) in steps.iter().enumerate() {
            let input = match j {
                0 => View::input(&params),
                _ => View::whole(bufs[(j - 1) % 2]),
            };
            let output = match k - 1 - j {
                0 => View::output(&params),
                _ => View::whole(bufs[j % 2]),
            };
            let factor = &factors[step.at];
            match &step.kind {
                Kind::Stage(st) if st.input.folded() || st.output.folded() => {
                    self.fused_stage(factor, st, input, output, params.unroll)?
                }
                // Nothing folded: the factor's own template.
                _ => self.expand(factor, io(input, output, shapes[step.at], params.unroll))?,
            }
        }
        Ok(())
    }

    /// What the fold may treat `f` as: only the built-in meaning of `L`,
    /// `T` and `⊗ I` is known here.
    fn kind_of<'s>(
        &self,
        f: &'s Sexp,
        (rows, cols): (usize, usize),
    ) -> Result<Kind<'s>, ExpandError> {
        match self.table.find(f)? {
            Some((def, _)) if self.table.is_builtin(def) => {}
            _ => return Ok(Kind::Other),
        }
        let size = |s: &Sexp| s.as_int().map(|v| v as usize);
        Ok(match (f.head(), self.list_parts(f, "compose factor")?) {
            (Some("L"), [n, q]) => match (size(n), size(q)) {
                (Some(n), Some(q)) => Kind::Stride { n, q },
                _ => Kind::Other,
            },
            (Some("T"), [n, s]) => match (size(n), size(s)) {
                (Some(n), Some(s)) => Kind::Twiddle { n, s },
                _ => Kind::Other,
            },
            (Some("tensor"), [a, b]) => {
                let (sub, m, layout) = match (identity_size(a), identity_size(b)) {
                    (Some(m), _) => (b, m, Layout::Blocked),
                    (None, Some(m)) => (a, m, Layout::Strided),
                    (None, None) => return Ok(Kind::Other),
                };
                let side = Side {
                    layout,
                    perms: 0,
                    diag: None,
                };
                Kind::Stage(Stage {
                    sub,
                    m,
                    rows: rows / m,
                    cols: cols / m,
                    input: side,
                    output: side,
                })
            }
            _ => Kind::Other,
        })
    }

    /// Groups the factors into sweeps, in application order (right to
    /// left). Each run of `L`/`T` factors is shared between the stage
    /// applied before it (which takes a prefix on its output side) and
    /// the stage applied after it (a suffix on its input side, nearest
    /// first) so that as many as possible fold; a twiddle that either
    /// stage could take goes to the one with the shorter sub-vector —
    /// fewer multiplies in its unrolled body — and on a tie to the one
    /// that loads through it.
    fn plan<'s>(
        &self,
        factors: &'s [Sexp],
        shapes: &[(usize, usize)],
    ) -> Result<Vec<Step<'s>>, ExpandError> {
        let all = factors
            .iter()
            .enumerate()
            .rev()
            .map(|(at, f)| {
                Ok(Step {
                    at,
                    kind: self.kind_of(f, shapes[at])?,
                })
            })
            .collect::<Result<Vec<Step<'s>>, ExpandError>>()?;
        let loose = |s: &Step| matches!(s.kind, Kind::Stride { .. } | Kind::Twiddle { .. });
        let takes = |stage: Option<&Step<'s>>, input: bool, run: &[Step<'s>]| match stage {
            Some(Step {
                kind: Kind::Stage(st),
                ..
            }) => st.takes(input, run),
            _ => vec![],
        };
        let mut steps: Vec<Step<'s>> = Vec::with_capacity(all.len());
        let mut rest = &all[..];
        while !rest.is_empty() {
            let (run, tail) = rest.split_at(rest.iter().take_while(|s| loose(s)).count());
            let before = takes(steps.last(), false, run);
            let after = takes(tail.first(), true, run);
            // `a` factors to the stage before the run, `b` to the one
            // after it: the most, then the cheapest, then the largest b.
            let cost =
                |taken: &[(Side, usize)], k: usize| k.checked_sub(1).map_or(0, |k| taken[k].1);
            let (a, b) = (0..=before.len())
                .flat_map(|a| (0..=after.len().min(run.len() - a)).map(move |b| (a, b)))
                .max_by_key(|&(a, b)| (a + b, Reverse(cost(&before, a) + cost(&after, b)), b))
                .expect("a = b = 0 is a candidate");
            if let (Some(k), Some(Kind::Stage(st))) =
                (a.checked_sub(1), steps.last_mut().map(|s| &mut s.kind))
            {
                st.output = before[k].0;
            }
            steps.extend_from_slice(&run[a..run.len() - b]);
            if let Some(&(mut next)) = tail.first() {
                if let (Some(k), Kind::Stage(st)) = (b.checked_sub(1), &mut next.kind) {
                    st.input = after[k].0;
                }
                steps.push(next);
            }
            rest = tail.get(1..).unwrap_or_default();
        }
        Ok(steps)
    }

    /// One tensor stage with its folded neighbours: `do i` over the `m`
    /// copies of `sub`, each reading and writing through the folded view.
    fn fused_stage(
        &mut self,
        factor: &Sexp,
        st: &Stage<'_>,
        input: View,
        output: View,
        unroll: bool,
    ) -> Result<(), ExpandError> {
        self.in_node(factor, |ex| {
            let unroll = ex.unrolls(unroll, st.m * st.cols);
            let i = ex.open_loop(0, st.m as i64 - 1, unroll);
            let (a, b) = st.input.coeffs(st.m, st.cols);
            let x = input.window(&Affine::var(i).scale(a), b);
            let (a, b) = st.output.coeffs(st.m, st.rows);
            let y = output.window(&Affine::var(i).scale(a), b);
            // A twiddle temporary is filled (drained) by a loop that is
            // unrolled exactly when `sub` comes out straight-line, which
            // is known once `sub` is expanded: the fill loop is flagged
            // then.
            let mut fill_loop = None;
            let sub_in = match st.input.diag {
                None => x,
                Some(n) => {
                    let t = View::whole(ex.alloc_sized_temp(st.cols));
                    fill_loop = Some(ex.instrs.len());
                    ex.twiddle_loop(n, i, st.cols, false, &t, &x);
                    t
                }
            };
            let sub_out = match st.output.diag {
                None => y.clone(),
                Some(_) => View::whole(ex.alloc_sized_temp(st.rows)),
            };
            let body = ex.instrs.len();
            ex.expand(
                st.sub,
                io(sub_in, sub_out.clone(), (st.rows, st.cols), unroll),
            )?;
            let straight = !ex.instrs[body..]
                .iter()
                .any(|ins| matches!(ins, Instr::DoStart { unroll: false, .. }));
            if let Some(Instr::DoStart { unroll, .. }) = fill_loop.map(|at| &mut ex.instrs[at]) {
                *unroll = straight;
            }
            if let Some(n) = st.output.diag {
                ex.twiddle_loop(n, i, st.rows, straight, &y, &sub_out);
            }
            ex.instrs.push(Instr::DoEnd);
            Ok(())
        })
    }

    /// `do e: dst(e) = W(n, e·i) · src(e)` — the body of the `T` template.
    fn twiddle_loop(
        &mut self,
        n: i64,
        i: LoopVar,
        count: usize,
        unroll: bool,
        dst: &View,
        src: &View,
    ) {
        let e = self.open_loop(0, count as i64 - 1, unroll);
        let r = Place::R(self.n_r);
        self.n_r += 1;
        let w = Place::F(self.n_f);
        self.n_f += 1;
        self.instrs.push(Instr::Bin {
            op: BinOp::Mul,
            dst: r.clone(),
            a: Value::LoopIdx(e),
            b: Value::LoopIdx(i),
        });
        self.instrs.push(Instr::Un {
            op: UnOp::Copy,
            dst: w.clone(),
            a: Value::Intrinsic("W".into(), vec![Value::Int(n), Value::Place(r)]),
        });
        let e = Affine::var(e);
        self.instrs.push(Instr::Bin {
            op: BinOp::Mul,
            dst: dst.at(&e),
            a: Value::Place(w),
            b: Value::Place(src.at(&e)),
        });
        self.instrs.push(Instr::DoEnd);
    }
}

#[cfg(test)]
mod tests {
    use spl_frontend::parser::{parse_formula, parse_program};
    use spl_frontend::Item;
    use spl_icode::interp::run;
    use spl_icode::IProgram;
    use spl_numeric::Complex;

    use crate::expand::{expand_formula_with_stats, ExpandOptions, ExpandStats};
    use crate::TemplateTable;

    fn expand_in(table: &TemplateTable, src: &str) -> (IProgram, ExpandStats) {
        let sexp = parse_formula(src).unwrap();
        expand_formula_with_stats(&sexp, table, &ExpandOptions::default()).unwrap()
    }

    /// Expands `src` and checks it against the dense semantics.
    fn expand(src: &str) -> (IProgram, ExpandStats) {
        let (prog, stats) = expand_in(&TemplateTable::builtin(), src);
        let x: Vec<Complex> = (0..prog.n_in)
            .map(|i| Complex::new(i as f64 + 1.0, (i as f64 * 0.3).cos()))
            .collect();
        let f = spl_formula::formula_from_sexp(&parse_formula(src).unwrap(), &Default::default())
            .unwrap();
        let want = spl_formula::dense::apply(&f, &x).unwrap();
        for (k, (a, b)) in run(&prog, &x).unwrap().iter().zip(&want).enumerate() {
            assert!(a.approx_eq(*b, 1e-11), "{src}: element {k}: {a} vs {b}");
        }
        (prog, stats)
    }

    fn stats(perm: u64, diag: u64, materialized: u64) -> ExpandStats {
        ExpandStats {
            fold_perm: perm,
            fold_diag: diag,
            compose_materialized: materialized,
        }
    }

    #[test]
    fn stride_permutations_become_the_stage_gather_or_scatter() {
        // All four (stage, side) pairs: no buffer is left.
        for src in [
            "(compose (tensor (I 4) (F 2)) (L 8 4))",
            "(compose (tensor (F 2) (I 4)) (L 8 2))",
            "(compose (L 8 2) (tensor (I 4) (F 2)))",
            "(compose (L 8 4) (tensor (F 2) (I 4)))",
            "(compose (L 12 3) (tensor (I 4) (F 3)) (L 12 4))",
        ] {
            let (prog, st) = expand(src);
            assert!(prog.temps.is_empty(), "{src}: {:?}", prog.temps);
            assert_eq!((st.fold_diag, st.compose_materialized), (0, 1), "{src}");
            assert!(st.fold_perm >= 1, "{src}");
        }
        // The wrong stride for the stage beside it stays a sweep.
        let (prog, st) = expand("(compose (tensor (I 4) (F 2)) (L 8 2))");
        assert_eq!(prog.temps, vec![8]);
        assert_eq!(st, stats(0, 0, 2));
    }

    #[test]
    fn twiddles_become_a_scale_on_the_stage_loads_or_stores() {
        for src in [
            "(compose (tensor (F 2) (I 4)) (T 8 4))",
            "(compose (T 8 4) (tensor (F 2) (I 4)))",
            "(compose (tensor (I 2) (F 4)) (T 8 4))",
            "(compose (T 8 4) (tensor (I 2) (F 4)))",
        ] {
            let (prog, st) = expand(src);
            // Only the twiddle temporary, as long as the sub-vector.
            let c = if src.contains("(F 2)") { 2 } else { 4 };
            assert_eq!(prog.temps, vec![c], "{src}");
            assert_eq!(st, stats(0, 1, 1), "{src}");
        }
        let (_, st) = expand("(compose (tensor (F 2) (I 4)) (T 8 2))");
        assert_eq!(
            st,
            stats(0, 0, 2),
            "T^8_2 is not the diagonal of F_2 (x) I_4"
        );
    }

    #[test]
    fn the_four_breakdown_rules_fold_to_two_sweeps() {
        let (r, s, n) = (2, 4, 8);
        let (fr, fs) = (format!("(F {r})"), format!("(F {s})"));
        let cases = [
            // Eq. 5, 7, 8, 9.
            (
                format!(
                    "(compose (tensor {fr} (I {s})) (T {n} {s}) (tensor (I {r}) {fs}) (L {n} {r}))"
                ),
                stats(1, 1, 2),
            ),
            (
                format!(
                    "(compose (L {n} {s}) (tensor (I {r}) {fs}) (T {n} {s}) (tensor {fr} (I {s})))"
                ),
                stats(1, 1, 2),
            ),
            (
                format!(
                    "(compose (L {n} {r}) (tensor (I {s}) {fr}) (L {n} {s}) (T {n} {s}) \
                     (tensor (I {r}) {fs}) (L {n} {r}))"
                ),
                stats(3, 1, 2),
            ),
            (
                format!(
                    "(compose (tensor {fr} (I {s})) (T {n} {s}) (L {n} {r}) (tensor {fs} (I {r})))"
                ),
                stats(1, 1, 2),
            ),
        ];
        for (src, want) in cases {
            let (prog, st) = expand(&src);
            assert_eq!(st, want, "{src}");
            // One buffer between the two sweeps, and the temporary of
            // the twiddle on the F_2 side (the shorter sub-vector).
            let mut temps = prog.temps.clone();
            temps.sort_unstable();
            assert_eq!(temps, vec![r, n], "{src}");
        }
    }

    #[test]
    fn a_user_template_for_l_or_t_is_not_folded() {
        let mut table = TemplateTable::builtin();
        let user = "(template (L n_ s_) [n_%s_==0 && s_>=1]
           (do $i0 = 0,s_-1
                 do $i1 = 0,n_/s_-1
                      $out($i0*(n_/s_)+$i1) = $in($i1*s_+$i0)
                 end
            end))";
        for item in parse_program(user).unwrap().items {
            if let Item::Template(t) = item {
                table.add(t);
            }
        }
        let src = "(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))";
        let (_, st) = expand_in(&table, src);
        assert_eq!(st, stats(0, 1, 3));
        let (_, st) = expand_in(&TemplateTable::builtin(), src);
        assert_eq!(st, stats(1, 1, 2));
    }

    #[test]
    fn twiddle_loops_unroll_with_the_codelet() {
        use spl_icode::Instr;
        let sexp = parse_formula("(compose (tensor (F 4) (I 32)) (T 128 32))").unwrap();
        let flags = |threshold| {
            let opts = ExpandOptions {
                unroll_threshold: threshold,
                ..Default::default()
            };
            let (prog, _) =
                expand_formula_with_stats(&sexp, &TemplateTable::builtin(), &opts).unwrap();
            prog.instrs
                .iter()
                .filter_map(|i| match i {
                    Instr::DoStart { unroll, hi, .. } => Some((*hi, *unroll)),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        // Stage loop, fill loop, then the two loops of F_4 by definition.
        assert_eq!(
            flags(None),
            vec![(31, false), (3, false), (3, false), (3, false)]
        );
        assert_eq!(
            flags(Some(4)),
            vec![(31, false), (3, true), (3, true), (3, true)]
        );
    }
}
