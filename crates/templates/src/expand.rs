//! Template expansion: S-expression formula → i-code.
//!
//! Expansion recursively instantiates template bodies. Each template
//! instance runs with six implicit parameters — input/output vector,
//! offsets, and strides — so a sub-formula call like
//! `A_($in, $t0, $i0*A_.in_size, 0, 1, 1)` composes its callee's vector
//! accesses with the caller's view: the callee's subscript `e` lands at
//! `offset + stride·e` of the caller's vector. Offsets may involve loop
//! variables (they stay affine); strides are compile-time constants.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use spl_frontend::ast::{TBinOp, TExpr, TLval, TUnOp, TemplateDef, TemplateStmt};
use spl_frontend::sexp::Sexp;
use spl_icode::{
    Affine, BinOp, IProgram, Instr, LoopVar, Place, ProvNode, UnOp, Value, VecKind, VecRef,
};
use spl_numeric::Complex;

use crate::shape::shape_of;
use crate::table::{static_eval, Bindings, TemplateTable};
use crate::UNROLL_MARKER;

/// An error during template expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpandError {
    /// No template (or native form) matches a sub-formula.
    NoMatch(String),
    /// Operator shapes are malformed or inconsistent.
    Shape(String),
    /// A template body violates the expansion discipline (non-affine
    /// subscript, non-constant bound, unbound variable, …).
    Invalid(String),
    /// A size computation overflowed the machine integer range.
    Overflow(String),
    /// A configured expansion resource limit (recursion depth or step
    /// budget) was exceeded.
    LimitExceeded(String),
}

impl ExpandError {
    /// The message without the generic prefix.
    pub fn message(&self) -> &str {
        match self {
            ExpandError::NoMatch(s)
            | ExpandError::Shape(s)
            | ExpandError::Invalid(s)
            | ExpandError::Overflow(s)
            | ExpandError::LimitExceeded(s) => s,
        }
    }
}

impl fmt::Display for ExpandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "template expansion failed: {}", self.message())
    }
}

impl Error for ExpandError {}

/// Default cap on expansion recursion depth.
///
/// The tensor fallback rewrite (`A⊗B → (A⊗I)(I⊗B)`) deepens the tree
/// beyond what the parser saw, so this must exceed the parser's nesting
/// cap with headroom while still stopping runaway recursion well before
/// the stack does.
pub const DEFAULT_EXPAND_DEPTH: usize = 2_000;

/// Default cap on i-code instructions emitted by one expansion.
pub const DEFAULT_EXPAND_STEPS: usize = 4_000_000;

/// Options controlling expansion.
#[derive(Debug, Clone)]
pub struct ExpandOptions {
    /// `#unroll` state at the formula: mark every generated loop for full
    /// unrolling.
    pub unroll: bool,
    /// The `-B <n>` command-line threshold: unroll all loops in
    /// sub-formulas whose input vector is `<= n` long (paper
    /// Section 3.3.1).
    pub unroll_threshold: Option<usize>,
    /// `define`d names in definition order: `(name, body, unroll)` where
    /// `unroll` captures the `#unroll` state at the `define`.
    pub defines: Vec<(String, Sexp, bool)>,
    /// Cap on expansion recursion depth; exceeding it yields
    /// [`ExpandError::LimitExceeded`] instead of a stack overflow.
    pub max_depth: usize,
    /// Cap on emitted i-code instructions; exceeding it yields
    /// [`ExpandError::LimitExceeded`] instead of unbounded memory growth.
    pub max_steps: usize,
}

impl Default for ExpandOptions {
    fn default() -> Self {
        ExpandOptions {
            unroll: false,
            unroll_threshold: None,
            defines: Vec::new(),
            max_depth: DEFAULT_EXPAND_DEPTH,
            max_steps: DEFAULT_EXPAND_STEPS,
        }
    }
}

/// Work counters for one expansion, reported through the telemetry layer
/// (`templates.*` counters in `splc --stats`). Every factor of every
/// multi-factor `compose` lands in exactly one of the three.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpandStats {
    /// Stride permutations folded into a neighbouring tensor stage's
    /// gather or scatter index.
    pub fold_perm: u64,
    /// Twiddle diagonals folded into a neighbouring tensor stage's loads
    /// or stores.
    pub fold_diag: u64,
    /// Compose factors expanded as a sweep of their own, between buffers.
    pub compose_materialized: u64,
}

/// Expands a formula into an i-code program using the template table.
///
/// # Errors
///
/// Fails if no template matches some sub-formula, shapes are inconsistent,
/// a subscript is not affine in the loop indices, or a loop bound is not a
/// compile-time constant.
pub fn expand_formula(
    sexp: &Sexp,
    table: &TemplateTable,
    opts: &ExpandOptions,
) -> Result<IProgram, ExpandError> {
    expand_formula_with_stats(sexp, table, opts).map(|(p, _)| p)
}

/// [`expand_formula`], also reporting what the compose fold did.
///
/// # Errors
///
/// Same failure modes as [`expand_formula`].
pub fn expand_formula_with_stats(
    sexp: &Sexp,
    table: &TemplateTable,
    opts: &ExpandOptions,
) -> Result<(IProgram, ExpandStats), ExpandError> {
    let resolved = resolve_defines(sexp, &opts.defines);
    let resolved = binarize(&resolved);
    let (rows, cols) = shape_of(&resolved, table)?;
    let mut ex = Expander {
        table,
        threshold: opts.unroll_threshold,
        instrs: Vec::new(),
        n_f: 0,
        n_r: 0,
        n_loop: 0,
        temp_max: Vec::new(),
        loop_ranges: HashMap::new(),
        depth: 0,
        max_depth: opts.max_depth,
        max_steps: opts.max_steps,
        prov: Vec::new(),
        prov_nodes: Vec::new(),
        cur_node: ProvNode::ROOT,
        stats: ExpandStats::default(),
    };
    let params = Params {
        in_base: VecKind::In,
        out_base: VecKind::Out,
        in_off: Affine::constant(0),
        out_off: Affine::constant(0),
        in_stride: 1,
        out_stride: 1,
        in_size: cols,
        out_size: rows,
        unroll: opts.unroll,
    };
    ex.expand(&resolved, params)?;
    let prog = IProgram {
        instrs: ex.instrs,
        n_in: cols,
        n_out: rows,
        temps: ex
            .temp_max
            .iter()
            .map(|&m| (m + 1).max(0) as usize)
            .collect(),
        tables: vec![],
        n_f: ex.n_f,
        n_r: ex.n_r,
        n_loop: ex.n_loop,
        complex: true,
        prov: ex.prov,
        prov_nodes: ex.prov_nodes,
    };
    prog.validate()
        .map_err(|e| ExpandError::Invalid(format!("generated invalid i-code: {e}")))?;
    Ok((prog, ex.stats))
}

/// Substitutes `define`d names (in definition order), wrapping bodies
/// captured under `#unroll on` in the [`UNROLL_MARKER`] form.
pub fn resolve_defines(sexp: &Sexp, defines: &[(String, Sexp, bool)]) -> Sexp {
    let mut resolved: Vec<(String, Sexp)> = Vec::new();
    for (name, body, unroll) in defines {
        let mut b = body.clone();
        for (n, v) in &resolved {
            b = b.substitute(n, v);
        }
        if *unroll {
            b = Sexp::List(vec![Sexp::sym(UNROLL_MARKER), b]);
        }
        resolved.push((name.clone(), b));
    }
    let mut s = sexp.clone();
    for (n, v) in &resolved {
        s = s.substitute(n, v);
    }
    s
}

/// Right-associates n-ary `tensor`/`direct-sum` into binary nests, as the
/// paper's parser does. N-ary `compose` is left intact: the expander
/// implements it natively (see the `compose` module): it folds the `L`
/// and `T` factors of the chain into the tensor stages beside them and
/// runs what is left through two alternating buffers, instead of the
/// `k−1` a binarized nest would allocate. A user template matching the
/// compose still wins.
///
/// A degenerate unary application — `(tensor A)`, `(direct-sum A)`,
/// `(compose A)` — collapses to `A`, matching the dense reference
/// semantics (the fold over one operand is the operand itself).
pub fn binarize(sexp: &Sexp) -> Sexp {
    match sexp {
        Sexp::List(items) => {
            let items: Vec<Sexp> = items.iter().map(binarize).collect();
            if let Some(Sexp::Symbol(head)) = items.first() {
                if matches!(head.as_str(), "tensor" | "direct-sum" | "compose") && items.len() == 2
                {
                    return items.into_iter().nth(1).expect("len checked");
                }
                if matches!(head.as_str(), "tensor" | "direct-sum") && items.len() > 3 {
                    let head = head.clone();
                    let first = items[1].clone();
                    let rest = {
                        let mut v = vec![Sexp::Symbol(head.clone())];
                        v.extend_from_slice(&items[2..]);
                        binarize(&Sexp::List(v))
                    };
                    return Sexp::List(vec![Sexp::Symbol(head), first, rest]);
                }
            }
            Sexp::List(items)
        }
        other => other.clone(),
    }
}

/// A budgeted rendering of a sub-formula for provenance labels: the
/// full text when it fits, a prefix plus `…` otherwise — without ever
/// materializing the whole (possibly huge) tree as a string.
fn short_label(sexp: &Sexp, budget: usize) -> String {
    let mut out = String::new();
    write_label(sexp, budget, &mut out);
    if out.len() > budget {
        let mut cut = budget;
        while !out.is_char_boundary(cut) {
            cut -= 1;
        }
        out.truncate(cut);
        out.push('…');
    }
    out
}

fn write_label(sexp: &Sexp, budget: usize, out: &mut String) {
    if out.len() > budget {
        return;
    }
    match sexp {
        Sexp::List(items) => {
            out.push('(');
            for (k, item) in items.iter().enumerate() {
                if k > 0 {
                    out.push(' ');
                }
                if out.len() > budget {
                    out.push('…');
                    break;
                }
                write_label(item, budget, out);
            }
            out.push(')');
        }
        other => {
            use std::fmt::Write as _;
            let _ = write!(out, "{other}");
        }
    }
}

/// The six implicit parameters of a template instance, plus the sizes and
/// the unroll flag.
#[derive(Debug, Clone)]
pub(crate) struct Params {
    pub(crate) in_base: VecKind,
    pub(crate) out_base: VecKind,
    pub(crate) in_off: Affine,
    pub(crate) out_off: Affine,
    pub(crate) in_stride: i64,
    pub(crate) out_stride: i64,
    pub(crate) in_size: usize,
    pub(crate) out_size: usize,
    pub(crate) unroll: bool,
}

/// Per-template-instance name maps.
#[derive(Debug, Default)]
struct Frame {
    f_map: HashMap<String, u32>,
    r_map: HashMap<String, u32>,
    t_map: HashMap<String, u32>,
    loops: Vec<(String, LoopVar)>,
}

/// Whether an expression context expects integers (`$r` destinations,
/// intrinsic arguments) or numeric values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ctx {
    Int,
    Num,
}

pub(crate) struct Expander<'t> {
    pub(crate) table: &'t TemplateTable,
    threshold: Option<usize>,
    pub(crate) instrs: Vec<Instr>,
    pub(crate) n_f: u32,
    pub(crate) n_r: u32,
    n_loop: u32,
    /// Max subscript observed per temp id (-1 = untouched).
    temp_max: Vec<i64>,
    /// Ranges of all loop variables ever opened (for temp sizing).
    loop_ranges: HashMap<LoopVar, (i64, i64)>,
    /// Current expansion recursion depth.
    depth: usize,
    /// Recursion cap (see [`ExpandOptions::max_depth`]).
    max_depth: usize,
    /// Emitted-instruction cap (see [`ExpandOptions::max_steps`]).
    max_steps: usize,
    /// Per-instruction formula-node ids, flushed lazily: instructions in
    /// `instrs` beyond `prov.len()` belong to `cur_node`.
    prov: Vec<u32>,
    /// The provenance node table being built.
    prov_nodes: Vec<ProvNode>,
    /// Id of the formula node currently expanding.
    cur_node: u32,
    pub(crate) stats: ExpandStats,
}

impl Expander<'_> {
    /// Assigns every not-yet-attributed instruction to `cur_node`.
    fn flush_prov(&mut self) {
        let id = self.cur_node;
        self.prov.resize(self.instrs.len(), id);
    }

    pub(crate) fn expand(&mut self, sexp: &Sexp, params: Params) -> Result<(), ExpandError> {
        self.in_node(sexp, |ex| ex.expand_inner(sexp, params))
    }

    /// The single recursion gateway: runs `body` as the expansion of the
    /// formula node `sexp`, under the depth and step budgets.
    pub(crate) fn in_node(
        &mut self,
        sexp: &Sexp,
        body: impl FnOnce(&mut Self) -> Result<(), ExpandError>,
    ) -> Result<(), ExpandError> {
        self.depth += 1;
        if self.depth > self.max_depth {
            self.depth -= 1;
            return Err(ExpandError::LimitExceeded(format!(
                "expansion recursion depth exceeds {}",
                self.max_depth
            )));
        }
        if self.instrs.len() > self.max_steps {
            self.depth -= 1;
            return Err(ExpandError::LimitExceeded(format!(
                "expansion exceeds {} emitted instructions",
                self.max_steps
            )));
        }
        // Provenance bookkeeping: instructions the *parent* emitted since
        // its last flush belong to the parent; everything emitted inside
        // (including by this node after its children return) belongs to
        // this node.
        self.flush_prov();
        let parent = self.cur_node;
        let id = self.prov_nodes.len() as u32;
        self.prov_nodes.push(ProvNode {
            label: short_label(sexp, 64),
            parent,
        });
        self.cur_node = id;
        let r = body(self);
        self.flush_prov();
        self.cur_node = parent;
        self.depth -= 1;
        r
    }

    /// Whether a sub-formula with `in_size` inputs has its loops fully
    /// unrolled: inherited from the enclosing formula, or by `-B`.
    pub(crate) fn unrolls(&self, inherited: bool, in_size: usize) -> bool {
        inherited || self.threshold.is_some_and(|b| in_size <= b)
    }

    /// Opens `do var = lo, hi` over a fresh loop variable.
    pub(crate) fn open_loop(&mut self, lo: i64, hi: i64, unroll: bool) -> LoopVar {
        let lv = LoopVar(self.n_loop);
        self.n_loop += 1;
        self.loop_ranges.insert(lv, (lo, hi));
        self.instrs.push(Instr::DoStart {
            var: lv,
            lo,
            hi,
            unroll,
        });
        lv
    }

    /// Allocates a temp of a known exact size.
    pub(crate) fn alloc_sized_temp(&mut self, size: usize) -> u32 {
        let gid = self.temp_max.len() as u32;
        self.temp_max.push(size as i64 - 1);
        gid
    }

    fn expand_inner(&mut self, sexp: &Sexp, mut params: Params) -> Result<(), ExpandError> {
        if sexp.head() == Some(UNROLL_MARKER) {
            let inner = sexp
                .as_list()
                .and_then(|l| l.get(1))
                .ok_or_else(|| ExpandError::Shape(format!("empty {UNROLL_MARKER} form")))?;
            params.unroll = true;
            return self.expand(inner, params);
        }
        params.unroll = self.unrolls(params.unroll, params.in_size);
        if let Some((def, bindings)) = self.table.find(sexp)? {
            let def = def.clone();
            return self.instantiate(&def, &bindings, &params);
        }
        match sexp.head() {
            Some("diagonal") => self.native_diagonal(sexp, &params),
            Some("permutation") => self.native_permutation(sexp, &params),
            Some("matrix") => self.native_matrix(sexp, &params),
            Some("tensor") => self.native_tensor(sexp, params),
            Some("compose") => self.native_compose(sexp, params),
            _ => Err(ExpandError::NoMatch(format!("no template matches {sexp}"))),
        }
    }

    /// The non-head parts of a native form's list, or a typed error.
    pub(crate) fn list_parts<'s>(
        &self,
        sexp: &'s Sexp,
        what: &str,
    ) -> Result<&'s [Sexp], ExpandError> {
        match sexp.as_list() {
            Some(items) if !items.is_empty() => Ok(&items[1..]),
            _ => Err(ExpandError::Shape(format!("{what} must be a form: {sexp}"))),
        }
    }

    // ------------------------------------------------------------------
    // Template instantiation
    // ------------------------------------------------------------------

    fn instantiate(
        &mut self,
        def: &TemplateDef,
        b: &Bindings,
        params: &Params,
    ) -> Result<(), ExpandError> {
        let mut frame = Frame::default();
        // Fortran `do` semantics: a loop whose trip count is zero
        // executes nothing — skip its whole body (tracking nesting).
        let mut skip_depth = 0usize;
        for stmt in &def.body {
            if self.instrs.len() > self.max_steps {
                return Err(ExpandError::LimitExceeded(format!(
                    "expansion exceeds {} emitted instructions",
                    self.max_steps
                )));
            }
            if skip_depth > 0 {
                match stmt {
                    TemplateStmt::Do { .. } => skip_depth += 1,
                    TemplateStmt::End => skip_depth -= 1,
                    _ => {}
                }
                continue;
            }
            match stmt {
                TemplateStmt::Do { var, lo, hi } => {
                    let lo = static_eval(lo, b, self.table)?;
                    let hi = static_eval(hi, b, self.table)?;
                    if hi < lo {
                        skip_depth = 1;
                        continue;
                    }
                    let lv = self.open_loop(lo, hi, params.unroll);
                    frame.loops.push((var.clone(), lv));
                }
                TemplateStmt::End => {
                    if frame.loops.pop().is_none() {
                        return Err(ExpandError::Invalid(format!(
                            "unmatched end in template {}",
                            def.pattern
                        )));
                    }
                    self.instrs.push(Instr::DoEnd);
                }
                TemplateStmt::Assign { lhs, rhs } => {
                    let dst = self.lval_place(lhs, &mut frame, b, params)?;
                    let ctx = match dst {
                        Place::R(_) => Ctx::Int,
                        _ => Ctx::Num,
                    };
                    self.emit_assign(dst, rhs, ctx, &mut frame, b, params)?;
                }
                TemplateStmt::Call { var, args } => {
                    self.emit_call(var, args, &mut frame, b, params)?;
                }
            }
        }
        if !frame.loops.is_empty() {
            return Err(ExpandError::Invalid(format!(
                "unclosed loop in template {}",
                def.pattern
            )));
        }
        Ok(())
    }

    fn emit_call(
        &mut self,
        var: &str,
        args: &[TExpr],
        frame: &mut Frame,
        b: &Bindings,
        params: &Params,
    ) -> Result<(), ExpandError> {
        let sub = b
            .formulas
            .get(var)
            .cloned()
            .ok_or_else(|| ExpandError::Invalid(format!("unbound formula variable {var}")))?;
        let (sub_rows, sub_cols) = shape_of(&sub, self.table)?;
        let call_in_off = self.affine_of(&args[2], frame, b, params)?;
        let call_out_off = self.affine_of(&args[3], frame, b, params)?;
        let call_in_stride = self
            .affine_of(&args[4], frame, b, params)?
            .as_const()
            .ok_or_else(|| ExpandError::Invalid("input stride must be a constant".into()))?;
        let call_out_stride = self
            .affine_of(&args[5], frame, b, params)?
            .as_const()
            .ok_or_else(|| ExpandError::Invalid("output stride must be a constant".into()))?;
        let (in_base, in_off, in_stride) = self.compose_view(
            &args[0],
            frame,
            params,
            &call_in_off,
            call_in_stride,
            sub_cols,
        )?;
        let (out_base, out_off, out_stride) = self.compose_view(
            &args[1],
            frame,
            params,
            &call_out_off,
            call_out_stride,
            sub_rows,
        )?;
        let sub_params = Params {
            in_base,
            out_base,
            in_off,
            out_off,
            in_stride,
            out_stride,
            in_size: sub_cols,
            out_size: sub_rows,
            unroll: params.unroll,
        };
        self.expand(&sub, sub_params)
    }

    /// Resolves a call's vector argument (`$in`, `$out`, or `$t<k>`) into
    /// a base vector plus composed offset/stride, and updates temp sizing.
    fn compose_view(
        &mut self,
        arg: &TExpr,
        frame: &mut Frame,
        params: &Params,
        call_off: &Affine,
        call_stride: i64,
        elems: usize,
    ) -> Result<(VecKind, Affine, i64), ExpandError> {
        let name = match arg {
            TExpr::Var(v) => v.as_str(),
            other => {
                return Err(ExpandError::Invalid(format!(
                    "vector argument must be $in, $out, or a temporary, got {other}"
                )))
            }
        };
        match name {
            "in" => Ok((
                params.in_base,
                params.in_off.add(&call_off.scale(params.in_stride)),
                params.in_stride * call_stride,
            )),
            "out" => Ok((
                params.out_base,
                params.out_off.add(&call_off.scale(params.out_stride)),
                params.out_stride * call_stride,
            )),
            t if t.starts_with('t') => {
                let gid = self.temp_id(frame, t);
                // The callee touches offset + stride*k for k in 0..elems;
                // with a negative stride the *first* element is the
                // largest subscript, so note both endpoints.
                let top = call_off.add(&Affine::constant(call_stride * (elems as i64 - 1)));
                self.note_temp_extent(gid, &top);
                self.note_temp_extent(gid, call_off);
                Ok((VecKind::Temp(gid), call_off.clone(), call_stride))
            }
            other => Err(ExpandError::Invalid(format!(
                "vector argument must be $in, $out, or a temporary, got ${other}"
            ))),
        }
    }

    fn temp_id(&mut self, frame: &mut Frame, name: &str) -> u32 {
        if let Some(&gid) = frame.t_map.get(name) {
            return gid;
        }
        let gid = self.temp_max.len() as u32;
        self.temp_max.push(-1);
        frame.t_map.insert(name.to_string(), gid);
        gid
    }

    /// Records that `idx` is touched on temp `gid`, growing its size to
    /// cover the maximum value of `idx` over the loop ranges.
    fn note_temp_extent(&mut self, gid: u32, idx: &Affine) {
        let mut max = idx.c;
        for &(k, v) in &idx.terms {
            let (lo, hi) = self.loop_ranges.get(&v).copied().unwrap_or((0, 0));
            max += if k >= 0 { k * hi } else { k * lo };
        }
        let slot = &mut self.temp_max[gid as usize];
        *slot = (*slot).max(max);
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn lval_place(
        &mut self,
        lhs: &TLval,
        frame: &mut Frame,
        b: &Bindings,
        params: &Params,
    ) -> Result<Place, ExpandError> {
        match lhs {
            TLval::Scalar(name) => self.scalar_place(name, frame),
            TLval::VecElem(name, idx) => {
                let idx = self.affine_of(idx, frame, b, params)?;
                self.vec_place(name, idx, frame, params, false)
            }
        }
    }

    fn scalar_place(&mut self, name: &str, frame: &mut Frame) -> Result<Place, ExpandError> {
        if name.starts_with('f') {
            let id = *frame.f_map.entry(name.to_string()).or_insert_with(|| {
                let id = self.n_f;
                self.n_f += 1;
                id
            });
            Ok(Place::F(id))
        } else if name.starts_with('r') {
            let id = *frame.r_map.entry(name.to_string()).or_insert_with(|| {
                let id = self.n_r;
                self.n_r += 1;
                id
            });
            Ok(Place::R(id))
        } else {
            Err(ExpandError::Invalid(format!("${name} is not assignable")))
        }
    }

    fn vec_place(
        &mut self,
        name: &str,
        idx: Affine,
        frame: &mut Frame,
        params: &Params,
        reading: bool,
    ) -> Result<Place, ExpandError> {
        match name {
            "in" => {
                if !reading {
                    return Err(ExpandError::Invalid("cannot write to $in".into()));
                }
                Ok(Place::Vec(VecRef {
                    kind: params.in_base,
                    idx: params.in_off.add(&idx.scale(params.in_stride)),
                }))
            }
            "out" => Ok(Place::Vec(VecRef {
                kind: params.out_base,
                idx: params.out_off.add(&idx.scale(params.out_stride)),
            })),
            t if t.starts_with('t') => {
                let gid = self.temp_id(frame, t);
                self.note_temp_extent(gid, &idx);
                Ok(Place::Vec(VecRef {
                    kind: VecKind::Temp(gid),
                    idx,
                }))
            }
            other => Err(ExpandError::Invalid(format!("unknown vector ${other}"))),
        }
    }

    /// Converts a template expression to an affine subscript.
    fn affine_of(
        &mut self,
        e: &TExpr,
        frame: &Frame,
        b: &Bindings,
        params: &Params,
    ) -> Result<Affine, ExpandError> {
        match e {
            TExpr::Int(v) => Ok(Affine::constant(*v)),
            TExpr::PatVar(_) | TExpr::Prop(_, _) => {
                Ok(Affine::constant(static_eval(e, b, self.table)?))
            }
            TExpr::Var(name) => match name.as_str() {
                "in_stride" => Ok(Affine::constant(params.in_stride)),
                "out_stride" => Ok(Affine::constant(params.out_stride)),
                "in_offset" => Ok(params.in_off.clone()),
                "out_offset" => Ok(params.out_off.clone()),
                "in_size" => Ok(Affine::constant(params.in_size as i64)),
                "out_size" => Ok(Affine::constant(params.out_size as i64)),
                _ => {
                    for (ln, lv) in frame.loops.iter().rev() {
                        if ln == name {
                            return Ok(Affine::var(*lv));
                        }
                    }
                    Err(ExpandError::Invalid(format!(
                        "${name} is not usable in a subscript (not a loop variable)"
                    )))
                }
            },
            TExpr::Un(TUnOp::Neg, a) => Ok(self.affine_of(a, frame, b, params)?.scale(-1)),
            TExpr::Bin(op, x, y) => {
                let xa = self.affine_of(x, frame, b, params)?;
                let ya = self.affine_of(y, frame, b, params)?;
                match op {
                    TBinOp::Add => Ok(xa.add(&ya)),
                    TBinOp::Sub => Ok(xa.add(&ya.scale(-1))),
                    TBinOp::Mul => {
                        if let Some(c) = xa.as_const() {
                            Ok(ya.scale(c))
                        } else if let Some(c) = ya.as_const() {
                            Ok(xa.scale(c))
                        } else {
                            Err(ExpandError::Invalid(format!(
                                "subscript {e} is not affine in the loop indices"
                            )))
                        }
                    }
                    TBinOp::Div | TBinOp::Mod => match (xa.as_const(), ya.as_const()) {
                        (Some(x), Some(y)) if y != 0 => {
                            Ok(Affine::constant(if *op == TBinOp::Div {
                                x / y
                            } else {
                                x % y
                            }))
                        }
                        _ => Err(ExpandError::Invalid(format!(
                            "subscript {e} uses non-constant division"
                        ))),
                    },
                }
            }
            other => Err(ExpandError::Invalid(format!(
                "{other} cannot appear in a subscript"
            ))),
        }
    }

    /// Emits `dst = rhs`, flattening nested expressions into fresh
    /// registers (the paper's four-tuple discipline).
    fn emit_assign(
        &mut self,
        dst: Place,
        rhs: &TExpr,
        ctx: Ctx,
        frame: &mut Frame,
        b: &Bindings,
        params: &Params,
    ) -> Result<(), ExpandError> {
        match rhs {
            TExpr::Bin(op, x, y) => {
                let a = self.operand(x, ctx, frame, b, params)?;
                let bb = self.operand(y, ctx, frame, b, params)?;
                let op = match op {
                    TBinOp::Add => BinOp::Add,
                    TBinOp::Sub => BinOp::Sub,
                    TBinOp::Mul => BinOp::Mul,
                    TBinOp::Div => BinOp::Div,
                    TBinOp::Mod => {
                        return Err(ExpandError::Invalid(
                            "modulo is only valid in compile-time expressions".into(),
                        ))
                    }
                };
                self.instrs.push(Instr::Bin { op, dst, a, b: bb });
            }
            TExpr::Un(TUnOp::Neg, x) => {
                let a = self.operand(x, ctx, frame, b, params)?;
                self.instrs.push(Instr::Un {
                    op: UnOp::Neg,
                    dst,
                    a,
                });
            }
            other => {
                let a = self.operand(other, ctx, frame, b, params)?;
                self.instrs.push(Instr::Un {
                    op: UnOp::Copy,
                    dst,
                    a,
                });
            }
        }
        Ok(())
    }

    /// Converts a template expression to a single i-code operand, emitting
    /// helper instructions for nested subexpressions.
    fn operand(
        &mut self,
        e: &TExpr,
        ctx: Ctx,
        frame: &mut Frame,
        b: &Bindings,
        params: &Params,
    ) -> Result<Value, ExpandError> {
        match e {
            TExpr::Int(v) => Ok(Value::Int(*v)),
            TExpr::Float(v) => Ok(Value::Const(Complex::real(*v))),
            TExpr::Pair(re, im) => Ok(Value::Const(Complex::new(*re, *im))),
            TExpr::PatVar(_) | TExpr::Prop(_, _) => Ok(Value::Int(static_eval(e, b, self.table)?)),
            TExpr::Var(name) => match name.as_str() {
                "in_stride" => Ok(Value::Int(params.in_stride)),
                "out_stride" => Ok(Value::Int(params.out_stride)),
                "in_size" => Ok(Value::Int(params.in_size as i64)),
                "out_size" => Ok(Value::Int(params.out_size as i64)),
                n if n.starts_with('i') => {
                    for (ln, lv) in frame.loops.iter().rev() {
                        if ln == n {
                            return Ok(Value::LoopIdx(*lv));
                        }
                    }
                    Err(ExpandError::Invalid(format!(
                        "${n} is not a loop variable in scope"
                    )))
                }
                n if n.starts_with('f') => Ok(Value::Place(self.scalar_place(n, frame)?)),
                n if n.starts_with('r') => Ok(Value::Place(self.scalar_place(n, frame)?)),
                other => Err(ExpandError::Invalid(format!("unknown variable ${other}"))),
            },
            TExpr::VecElem(name, idx) => {
                let idx = self.affine_of(idx, frame, b, params)?;
                Ok(Value::Place(
                    self.vec_place(name, idx, frame, params, true)?,
                ))
            }
            TExpr::Intrinsic(name, args) => {
                let args = args
                    .iter()
                    .map(|a| self.operand(a, Ctx::Int, frame, b, params))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Value::Intrinsic(name.clone(), args))
            }
            TExpr::Un(_, _) | TExpr::Bin(_, _, _) => {
                // Flatten through a fresh register.
                let tmp = match ctx {
                    Ctx::Int => {
                        let id = self.n_r;
                        self.n_r += 1;
                        Place::R(id)
                    }
                    Ctx::Num => {
                        let id = self.n_f;
                        self.n_f += 1;
                        Place::F(id)
                    }
                };
                self.emit_assign(tmp.clone(), e, ctx, frame, b, params)?;
                Ok(Value::Place(tmp))
            }
        }
    }

    // ------------------------------------------------------------------
    // Native forms (variable-length element lists cannot be template
    // patterns; the paper treats these "general matrices" as primitives)
    // ------------------------------------------------------------------

    fn elements_of(&self, sexp: &Sexp, what: &str) -> Result<Vec<Complex>, ExpandError> {
        let items = sexp
            .as_list()
            .and_then(|l| l.get(1))
            .and_then(Sexp::as_list)
            .ok_or_else(|| {
                ExpandError::Invalid(format!("{what} requires an element list: {sexp}"))
            })?;
        items.iter().map(scalar_const).collect()
    }

    fn in_ref(&self, params: &Params, k: i64) -> Value {
        Value::Place(Place::Vec(VecRef {
            kind: params.in_base,
            idx: params.in_off.add(&Affine::constant(params.in_stride * k)),
        }))
    }

    fn out_ref(&self, params: &Params, k: i64) -> Place {
        Place::Vec(VecRef {
            kind: params.out_base,
            idx: params.out_off.add(&Affine::constant(params.out_stride * k)),
        })
    }

    fn native_diagonal(&mut self, sexp: &Sexp, params: &Params) -> Result<(), ExpandError> {
        let d = self.elements_of(sexp, "diagonal")?;
        for (k, &c) in d.iter().enumerate() {
            let dst = self.out_ref(params, k as i64);
            let a = self.in_ref(params, k as i64);
            self.instrs.push(Instr::Bin {
                op: BinOp::Mul,
                dst,
                a: Value::Const(c),
                b: a,
            });
        }
        Ok(())
    }

    fn native_permutation(&mut self, sexp: &Sexp, params: &Params) -> Result<(), ExpandError> {
        let items = sexp
            .as_list()
            .and_then(|l| l.get(1))
            .and_then(Sexp::as_list)
            .ok_or_else(|| ExpandError::Invalid(format!("permutation requires indices: {sexp}")))?;
        let perm = items
            .iter()
            .map(|e| {
                e.as_int()
                    .filter(|&v| v >= 1 && v <= items.len() as i64)
                    .map(|v| v - 1)
                    .ok_or_else(|| ExpandError::Invalid(format!("bad permutation index in {sexp}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        for (k, &src) in perm.iter().enumerate() {
            let dst = self.out_ref(params, k as i64);
            let a = self.in_ref(params, src);
            self.instrs.push(Instr::Un {
                op: UnOp::Copy,
                dst,
                a,
            });
        }
        Ok(())
    }

    fn native_matrix(&mut self, sexp: &Sexp, params: &Params) -> Result<(), ExpandError> {
        let rows_sexp = self.list_parts(sexp, "matrix")?;
        let mut rows: Vec<Vec<Complex>> = Vec::new();
        for r in rows_sexp {
            let r = r.as_list().ok_or_else(|| {
                ExpandError::Invalid(format!("matrix rows must be lists: {sexp}"))
            })?;
            rows.push(r.iter().map(scalar_const).collect::<Result<Vec<_>, _>>()?);
        }
        let cols = rows.first().map_or(0, Vec::len);
        if cols == 0 || rows.iter().any(|r| r.len() != cols) {
            return Err(ExpandError::Shape(format!(
                "matrix rows must be non-empty and of equal length: {sexp}"
            )));
        }
        for (r, row) in rows.iter().enumerate() {
            let dst = self.out_ref(params, r as i64);
            // out[r] = m[r][0]*in[0]; out[r] = out[r] + m[r][c]*in[c]
            let acc = {
                let id = self.n_f;
                self.n_f += 1;
                Place::F(id)
            };
            self.instrs.push(Instr::Bin {
                op: BinOp::Mul,
                dst: acc.clone(),
                a: Value::Const(row[0]),
                b: self.in_ref(params, 0),
            });
            for (c, &v) in row.iter().enumerate().skip(1) {
                let prod = {
                    let id = self.n_f;
                    self.n_f += 1;
                    Place::F(id)
                };
                self.instrs.push(Instr::Bin {
                    op: BinOp::Mul,
                    dst: prod.clone(),
                    a: Value::Const(v),
                    b: self.in_ref(params, c as i64),
                });
                self.instrs.push(Instr::Bin {
                    op: BinOp::Add,
                    dst: acc.clone(),
                    a: Value::Place(acc.clone()),
                    b: Value::Place(prod),
                });
            }
            self.instrs.push(Instr::Un {
                op: UnOp::Copy,
                dst,
                a: Value::Place(acc),
            });
        }
        Ok(())
    }

    /// General tensor fallback: `A ⊗ B = (A ⊗ I_p)(I_n ⊗ B)` for
    /// `A: m×n`, `B: p×q` — rewritten and re-expanded so the identity
    /// templates handle the pieces.
    fn native_tensor(&mut self, sexp: &Sexp, params: Params) -> Result<(), ExpandError> {
        let parts = self.list_parts(sexp, "tensor")?;
        let [a, b] = parts else {
            return Err(ExpandError::Shape(format!(
                "tensor must be binarized before expansion: {sexp}"
            )));
        };
        let (_a_rows, a_cols) = shape_of(a, self.table)?;
        let (b_rows, _b_cols) = shape_of(b, self.table)?;
        let rewritten = Sexp::List(vec![
            Sexp::sym("compose"),
            Sexp::List(vec![
                Sexp::sym("tensor"),
                a.clone(),
                Sexp::List(vec![Sexp::sym("I"), Sexp::Int(b_rows as i64)]),
            ]),
            Sexp::List(vec![
                Sexp::sym("tensor"),
                Sexp::List(vec![Sexp::sym("I"), Sexp::Int(a_cols as i64)]),
                b.clone(),
            ]),
        ]);
        self.expand(&rewritten, params)
    }
}

fn scalar_const(e: &Sexp) -> Result<Complex, ExpandError> {
    match e {
        Sexp::Int(v) => Ok(Complex::real(*v as f64)),
        Sexp::Scalar(expr) => {
            let v = expr
                .eval()
                .map_err(|err| ExpandError::Invalid(err.to_string()))?;
            Ok(Complex::new(v.re, v.im))
        }
        other => Err(ExpandError::Invalid(format!(
            "{other} is not a scalar constant"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spl_frontend::parser::parse_formula;
    use spl_icode::interp::run;
    use spl_numeric::reference;

    fn compile(src: &str) -> IProgram {
        let table = TemplateTable::builtin();
        let sexp = parse_formula(src).unwrap();
        expand_formula(&sexp, &table, &ExpandOptions::default()).unwrap()
    }

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new(i as f64 + 1.0, (i as f64 * 0.3).cos()))
            .collect()
    }

    fn check_against_dense(src: &str, n: usize) {
        let prog = compile(src);
        let x = ramp(n);
        let got = run(&prog, &x).unwrap();
        let table = TemplateTable::builtin();
        let _ = &table;
        let f = spl_formula::formula_from_sexp(
            &parse_formula(src).unwrap(),
            &std::collections::HashMap::new(),
        )
        .unwrap();
        let want = spl_formula::dense::apply(&f, &x).unwrap();
        for (a, b) in got.iter().zip(&want) {
            assert!(a.approx_eq(*b, 1e-11), "{src}: {a} vs {b}");
        }
    }

    #[test]
    fn identity_copies() {
        check_against_dense("(I 4)", 4);
    }

    #[test]
    fn f_by_definition() {
        for n in [1usize, 2, 3, 4, 5, 8] {
            let prog = compile(&format!("(F {n})"));
            let x = ramp(n);
            let got = run(&prog, &x).unwrap();
            let want = reference::dft(&x);
            for (a, b) in got.iter().zip(&want) {
                assert!(a.approx_eq(*b, 1e-11), "n={n}");
            }
        }
    }

    #[test]
    fn stride_and_twiddle() {
        check_against_dense("(L 8 2)", 8);
        check_against_dense("(L 8 4)", 8);
        check_against_dense("(L 12 3)", 12);
        check_against_dense("(T 8 4)", 8);
        check_against_dense("(T 12 3)", 12);
    }

    #[test]
    fn reversal() {
        check_against_dense("(J 5)", 5);
    }

    #[test]
    fn compose_uses_temp() {
        let prog = compile("(compose (F 2) (F 2))");
        assert_eq!(prog.temps, vec![2]);
        check_against_dense("(compose (F 2) (F 2))", 2);
    }

    #[test]
    fn tensor_identity_left_and_right() {
        check_against_dense("(tensor (I 4) (F 2))", 8);
        check_against_dense("(tensor (F 2) (I 4))", 8);
    }

    #[test]
    fn general_tensor_fallback() {
        check_against_dense("(tensor (F 2) (F 3))", 6);
        check_against_dense("(tensor (F 3) (F 2))", 6);
    }

    #[test]
    fn direct_sum() {
        check_against_dense("(direct-sum (F 2) (I 3))", 5);
        check_against_dense("(direct-sum (F 2) (F 2) (F 2))", 6);
    }

    #[test]
    fn diagonal_permutation_matrix_natives() {
        check_against_dense("(diagonal (1 -1 (0,-1) sqrt(2)))", 4);
        check_against_dense("(permutation (2 3 1))", 3);
        check_against_dense("(matrix (1 2) (3 4))", 2);
        check_against_dense("(matrix (1 0 2) (0 1 1))", 3);
    }

    #[test]
    fn paper_f4_and_fft16() {
        check_against_dense(
            "(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))",
            4,
        );
        let src = "(compose (tensor (compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2)) (I 4)) (T 16 4) (tensor (I 4) (compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))) (L 16 4))";
        let prog = compile(src);
        let x = ramp(16);
        let got = run(&prog, &x).unwrap();
        let want = reference::dft(&x);
        for (a, b) in got.iter().zip(&want) {
            assert!(a.approx_eq(*b, 1e-11));
        }
    }

    #[test]
    fn defines_resolve_in_order() {
        let table = TemplateTable::builtin();
        let sexp = parse_formula("(compose F4 (L 4 2))").unwrap();
        let f4 =
            parse_formula("(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))")
                .unwrap();
        let opts = ExpandOptions {
            defines: vec![("F4".into(), f4, false)],
            ..Default::default()
        };
        let prog = expand_formula(&sexp, &table, &opts).unwrap();
        assert_eq!(prog.n_in, 4);
    }

    #[test]
    fn unroll_marker_flags_loops() {
        let table = TemplateTable::builtin();
        let sexp = parse_formula("(tensor (I 32) I2F2)").unwrap();
        let i2f2 = parse_formula("(tensor (I 2) (F 2))").unwrap();
        let opts = ExpandOptions {
            defines: vec![("I2F2".into(), i2f2, true)],
            ..Default::default()
        };
        let prog = expand_formula(&sexp, &table, &opts).unwrap();
        // The outer (I 32) loop is not marked, the inner (I 2) loop is.
        let flags: Vec<bool> = prog
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::DoStart { unroll, .. } => Some(*unroll),
                _ => None,
            })
            .collect();
        assert_eq!(flags, vec![false, true]);
    }

    #[test]
    fn threshold_marks_small_subformulas() {
        let table = TemplateTable::builtin();
        let sexp = parse_formula("(tensor (I 32) (F 2))").unwrap();
        let opts = ExpandOptions {
            unroll_threshold: Some(2),
            ..Default::default()
        };
        let prog = expand_formula(&sexp, &table, &opts).unwrap();
        let flags: Vec<bool> = prog
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::DoStart { unroll, .. } => Some(*unroll),
                _ => None,
            })
            .collect();
        // Outer 64-point loop not marked; (F 2) generates no loops at all
        // (the butterfly override), so only one loop exists.
        assert_eq!(flags, vec![false]);
    }

    #[test]
    fn nary_compose_uses_two_buffers() {
        // A 5-factor chain must allocate at most two temporaries.
        let prog = compile("(compose (F 2) (J 2) (F 2) (J 2) (F 2))");
        assert!(prog.temps.len() <= 2, "{:?}", prog.temps);
        check_against_dense("(compose (F 2) (J 2) (F 2) (J 2) (F 2))", 2);
        check_against_dense(
            "(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))",
            4,
        );
    }

    #[test]
    fn nary_compose_with_rectangular_factors() {
        // (matrix 2x3) then (matrix 3x2) then F2: sizes shrink and grow.
        check_against_dense(
            "(compose (F 2) (matrix (1 0 1) (0 1 0)) (matrix (1 0) (0 1) (1 1)) (F 2))",
            2,
        );
    }

    #[test]
    fn binarize_right_associates() {
        // tensor/direct-sum binarize; compose stays n-ary (ping-pong).
        let s = parse_formula("(tensor (F 2) (I 2) (L 2 1) (T 2 1))").unwrap();
        let b = binarize(&s);
        assert_eq!(
            b.to_string(),
            "(tensor (F 2) (tensor (I 2) (tensor (L 2 1) (T 2 1))))"
        );
        let s = parse_formula("(compose (F 2) (I 2) (L 2 1))").unwrap();
        assert_eq!(binarize(&s).to_string(), "(compose (F 2) (I 2) (L 2 1))");
    }

    #[test]
    fn zero_trip_loops_follow_fortran_semantics() {
        // (pad n n) degenerates: the zero-fill loop has zero trips and
        // must simply vanish, leaving a copy.
        use spl_frontend::parser::parse_program;
        let src = "(template (pad m_ n_) [m_>=n_ && n_>=1]
           (do $i0 = 0,n_-1
                 $out($i0) = $in($i0)
            end
            do $i0 = n_,m_-1
                 $out($i0) = 0
            end))";
        let mut table = TemplateTable::builtin();
        for item in parse_program(src).unwrap().items {
            if let spl_frontend::Item::Template(t) = item {
                table.add(t);
            }
        }
        // m > n: pads.
        let sexp = parse_formula("(pad 5 3)").unwrap();
        let prog = expand_formula(&sexp, &table, &ExpandOptions::default()).unwrap();
        let x: Vec<Complex> = (1..=3).map(|v| Complex::real(v as f64)).collect();
        let y = run(&prog, &x).unwrap();
        assert_eq!(
            y.iter().map(|c| c.re).collect::<Vec<_>>(),
            vec![1.0, 2.0, 3.0, 0.0, 0.0]
        );
        // m == n: the fill loop is empty; the result is a plain copy.
        let sexp = parse_formula("(pad 3 3)").unwrap();
        let prog = expand_formula(&sexp, &table, &ExpandOptions::default()).unwrap();
        let y = run(&prog, &x).unwrap();
        assert_eq!(
            y.iter().map(|c| c.re).collect::<Vec<_>>(),
            vec![1.0, 2.0, 3.0]
        );
    }

    #[test]
    fn ragged_matrix_rejected_by_expander() {
        let table = TemplateTable::builtin();
        for src in ["(matrix (1 2) (3))", "(matrix (1 2) ())"] {
            let sexp = parse_formula(src).unwrap();
            assert!(
                expand_formula(&sexp, &table, &ExpandOptions::default()).is_err(),
                "{src} must be rejected"
            );
        }
    }

    #[test]
    fn no_matching_template_is_error() {
        let table = TemplateTable::builtin();
        let sexp = parse_formula("(frobnicate 4)").unwrap();
        assert!(expand_formula(&sexp, &table, &ExpandOptions::default()).is_err());
    }

    #[test]
    fn user_template_overrides_builtin() {
        use spl_frontend::parser::parse_program;
        // Override (F 2) to compute the *negated* butterfly, and observe
        // the override taking effect.
        let src = "\
(template (F 2)
  ( $f0 = $in(0) + $in(1)
    $f1 = $in(0) - $in(1)
    $out(0) = 0 - $f0
    $out(1) = 0 - $f1 ))
";
        let mut table = TemplateTable::builtin();
        for item in parse_program(src).unwrap().items {
            if let spl_frontend::Item::Template(t) = item {
                table.add(t);
            }
        }
        let sexp = parse_formula("(F 2)").unwrap();
        let prog = expand_formula(&sexp, &table, &ExpandOptions::default()).unwrap();
        let y = run(&prog, &[Complex::real(3.0), Complex::real(5.0)]).unwrap();
        assert_eq!(y[0].re, -8.0);
        assert_eq!(y[1].re, 2.0);
    }

    #[test]
    fn strided_views_compose_through_calls() {
        // (tensor (F 2) (I 2)) applies F2 at stride 2 twice; composing
        // with an outer (tensor (I 2) ...) nests offsets.
        check_against_dense("(tensor (I 2) (tensor (F 2) (I 2)))", 8);
        check_against_dense("(tensor (tensor (I 2) (F 2)) (I 2))", 8);
    }

    #[test]
    fn wht8_as_tensor_cube() {
        let prog = compile("(tensor (F 2) (F 2) (F 2))");
        let xr: Vec<f64> = (0..8).map(|i| i as f64 - 3.5).collect();
        let x: Vec<Complex> = xr.iter().map(|&v| Complex::real(v)).collect();
        let y = run(&prog, &x).unwrap();
        let want = reference::wht(&xr);
        for (a, b) in y.iter().zip(&want) {
            assert!((a.re - b).abs() < 1e-12 && a.im.abs() < 1e-12);
        }
    }
}
