//! The resolved execution engine: peephole fusion + loop strength
//! reduction over the flat VM program.
//!
//! [`resolve`] lowers a [`VmProgram`]'s op list one stage further than
//! [`crate::lower`]:
//!
//! 1. **Fusion** (peephole, in source order): negate folding
//!    (`t = -s; d = x ± t` becomes a single add/sub), multiply–add
//!    fusion (`t = a·b; d = t ± c` or `d = c − t` becomes one
//!    macro-op), and butterfly pairing (`d1 = a + b; d2 = a − b`
//!    becomes one macro-op that reads each operand once). Every
//!    rewrite preserves the exact sequence of f64 roundings — a
//!    multiply–add is two roundings, never a hardware FMA — so fused
//!    execution is bit-identical to the reference executor.
//! 2. **Loop strength reduction**: every operand becomes a *cursor* —
//!    an index into one unified `f64` arena holding the `$f`
//!    registers, constant tables, immediates, input, output, and
//!    temporaries. Cursors are initialized once per run (with all
//!    loop-invariant address components folded in) and advanced by
//!    precomputed per-loop strides at each loop latch, so the hot
//!    path never evaluates an affine subscript and never dispatches
//!    on operand kind.
//! 3. **Block-structured loops**: counted loops run as native `for`
//!    loops over their body range — trip handling lives outside the
//!    op dispatch entirely.
//!
//! Programs the resolver cannot prove safe (subscripts referencing
//! out-of-scope loop variables, address ranges that leave their
//! region, arithmetic overflow in stride precomputation) stay
//! unresolved; [`VmProgram::run`] then falls back to the checked
//! reference executor, preserving the old observable behavior.
//!
//! 4. **Vector plans**: for loops the compiler's `vectorize` pass
//!    marked lane-safe, the resolver independently re-verifies safety
//!    at the cursor level and attaches a [`VecPlan`] — the loop body
//!    as lane-wide macro-ops. Execution then runs `width()` iterations
//!    per chunk through [`crate::simd`], falling back to the scalar
//!    body for the remainder (and entirely, when the fallback is
//!    forced). Vector execution performs the exact same IEEE-754
//!    operations as scalar execution, so it stays bit-identical to the
//!    reference executor. Hints that fail re-verification are silently
//!    demoted (counted in `vm.vec.demoted`) — the mark is advisory,
//!    never trusted.
//!
//! One vocabulary, one executor: the ten float kinds are the [`Arith`]
//! enum, and a float op at every level — out of fusion, over cursors,
//! lane-wide — is the same [`FloatOp`] with a different operand type.
//! The node walk, the chunk executor and the two dispatches on the
//! kind are generic over a [`Probe`]: `run` instantiates them with
//! [`NoProbe`] (hooks that compile to nothing), `run_profiled` with
//! [`ProfBuf`], so a profile is by construction a profile of the code
//! that serves, SIMD lanes included.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::time::Instant;

use spl_icode::{BinOp, ProvNode};
use spl_telemetry::Telemetry;

use crate::profile::{
    build_nodes, LoopBlock, VmProfile, N_OP_CLASSES, OP_CLASS_FLOPS, VEC_CLASS_BASE,
};
use crate::program::{Addr, Dst, ISrc, Op, Src, VmProgram, VmState};
use crate::simd::{self, Lanes, MAX_VEC_WIDTH};

/// Counters from fusion and loop strength reduction, reported through
/// `spl-telemetry` as `vm.fuse.*` / `vm.lsr.*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolveStats {
    /// `mul`+`add`/`sub` pairs fused into multiply–add macro-ops.
    pub fused_muladd: u64,
    /// Negations folded into a following add/sub.
    pub fused_negfold: u64,
    /// `(a+b, a−b)` pairs fused into butterfly macro-ops.
    pub fused_butterfly: u64,
    /// Address cursors materialized (one per distinct operand per
    /// loop context).
    pub cursors: u64,
    /// Per-loop stride increments registered on loop latches.
    pub strength_reduced_steps: u64,
    /// Affine subscript terms hoisted out of per-access evaluation.
    pub hoisted_terms: u64,
    /// Compiler-hinted loops the resolver verified and planned for
    /// lane-wide execution.
    pub vec_loops: u64,
    /// Compiler hints demoted to scalar execution because resolver-side
    /// re-verification could not prove lane safety.
    pub vec_demoted: u64,
    /// Lane-wide macro-ops across all vector plans (static count).
    pub vec_ops: u64,
}

impl ResolveStats {
    /// Records the counters into a telemetry sink.
    pub fn record(&self, tel: &mut Telemetry) {
        tel.add("vm.fuse.muladd", self.fused_muladd);
        tel.add("vm.fuse.negfold", self.fused_negfold);
        tel.add("vm.fuse.butterfly", self.fused_butterfly);
        tel.add("vm.lsr.cursors", self.cursors);
        tel.add("vm.lsr.steps", self.strength_reduced_steps);
        tel.add("vm.lsr.hoisted_terms", self.hoisted_terms);
        tel.add("vm.vec.loops", self.vec_loops);
        tel.add("vm.vec.demoted", self.vec_demoted);
        tel.add("vm.vec.ops", self.vec_ops);
    }
}

/// Why a program stayed on the reference executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unsupported(pub(crate) &'static str);

// ---------------------------------------------------------------------------
// The op vocabulary.
// ---------------------------------------------------------------------------

/// The float operation kinds. The discriminant is the kind's profile
/// class — its slot in [`crate::profile::OP_CLASS_NAMES`] — and
/// [`VEC_CLASS_BASE`] + discriminant is the class of its lane-wide
/// form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arith {
    Add,
    Sub,
    Mul,
    Div,
    Copy,
    Neg,
    /// `d = a·b + c` (two roundings).
    MulAdd,
    /// `d = a·b − c`.
    MulSub,
    /// `d = c − a·b`.
    NegMulAdd,
    /// `d1 = a + b; d2 = a − b` with one read of each operand.
    Butterfly,
}

impl Arith {
    /// `(destinations, sources)` the kind takes; at least one of each.
    const fn arity(self) -> (usize, usize) {
        match self {
            Arith::Add | Arith::Sub | Arith::Mul | Arith::Div => (1, 2),
            Arith::Copy | Arith::Neg => (1, 1),
            Arith::MulAdd | Arith::MulSub | Arith::NegMulAdd => (1, 3),
            Arith::Butterfly => (2, 2),
        }
    }
}

/// One float op over destinations `D` and sources `S`: `&Dst`/`&Src`
/// out of fusion, cursor indices (`u32`) in [`RNode::Float`],
/// [`VOperand`]s in a [`VecPlan`]. Slots past the kind's arity hold
/// copies of slot 0 and are never read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FloatOp<D, S> {
    kind: Arith,
    d: [D; 2],
    s: [S; 3],
}

/// One operand of a [`FloatOp`], as [`FloatOp::map`] hands it out.
enum Operand<D, S> {
    Src(S),
    Dst(D),
}

impl<D: Copy, S: Copy> FloatOp<D, S> {
    /// Builds an op from exactly the operands its kind takes.
    fn new(kind: Arith, d: &[D], s: &[S]) -> Self {
        debug_assert_eq!((d.len(), s.len()), kind.arity());
        let mut op = FloatOp {
            kind,
            d: [d[0]; 2],
            s: [s[0]; 3],
        };
        op.d[..d.len()].copy_from_slice(d);
        op.s[..s.len()].copy_from_slice(s);
        op
    }

    fn dsts(&self) -> &[D] {
        &self.d[..self.kind.arity().0]
    }

    fn srcs(&self) -> &[S] {
        &self.s[..self.kind.arity().1]
    }

    /// The same op over operands `f` makes of this one's. `f` sees the
    /// sources first, then the destinations, each in slot order, and
    /// never a padded slot: a visit may allocate a cursor or emit a
    /// spill node that must precede the op.
    fn map<T: Copy, E>(
        &self,
        mut f: impl FnMut(Operand<D, S>) -> Result<T, E>,
    ) -> Result<FloatOp<T, T>, E> {
        let mut s = [f(Operand::Src(self.s[0]))?; 3];
        for (to, &from) in s.iter_mut().zip(self.srcs()).skip(1) {
            *to = f(Operand::Src(from))?;
        }
        let mut d = [f(Operand::Dst(self.d[0]))?; 2];
        for (to, &from) in d.iter_mut().zip(self.dsts()).skip(1) {
            *to = f(Operand::Dst(from))?;
        }
        Ok(FloatOp {
            kind: self.kind,
            d,
            s,
        })
    }
}

/// An integer operand of an [`IntOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RI {
    Const(i64),
    R(u32),
    Loop(u32),
}

/// The rare ops of unoptimized code: `$r` arithmetic, and spills of
/// integer state into a scratch cell a float op then reads.
#[derive(Debug, Clone, PartialEq)]
enum IntOp {
    /// Spills `r[r_idx] as f64` into the scratch cell behind cursor
    /// `d`.
    RToCell {
        d: u32,
        r_idx: u32,
    },
    /// Spills `loop[slot] as f64` into the scratch cell behind `d`.
    LoopToCell {
        d: u32,
        slot: u32,
    },
    Bin {
        op: BinOp,
        dst: u32,
        a: RI,
        b: RI,
    },
    Un {
        neg: bool,
        dst: u32,
        a: RI,
    },
}

impl IntOp {
    /// Profile class: the slots between the scalar and the lane-wide
    /// float classes.
    fn class(&self) -> usize {
        match self {
            IntOp::RToCell { .. } => 10,
            IntOp::LoopToCell { .. } => 11,
            IntOp::Bin { .. } => 12,
            IntOp::Un { .. } => 13,
        }
    }
}

/// A node of the block-structured program.
#[derive(Debug, Clone, PartialEq)]
enum RNode {
    /// A float op over cursors; each cursor holds the current arena
    /// cell of its operand.
    Float(FloatOp<u32, u32>),
    Int(IntOp),
    /// A counted loop; its body is `nodes[self+1 .. end]`.
    Loop {
        /// Trip count (0 for a zero-trip loop: body skipped).
        trips: u64,
        /// Loop-variable slot (maintained only when the program reads
        /// loop variables as values).
        var: u32,
        /// Initial loop-variable value.
        lo: i64,
        /// Index one past the last body node.
        end: u32,
        /// Range into [`ResolvedProgram::steps`]: the cursor strides
        /// applied at this loop's latch.
        steps: (u32, u32),
        /// Index into [`ResolvedProgram::vec_plans`] when the resolver
        /// verified this loop for lane-wide execution.
        vec: Option<u32>,
    },
}

/// Upper bound on `$f` registers promoted to lane registers per
/// vector plan (past it the hint is demoted). The fully unrolled
/// 64-point leaf body holds ~1400 live registers, so the cap sits
/// well above that; plans at or below [`SMALL_LANE_CELLS`] run from
/// a stack buffer, larger ones (entered a handful of times per run)
/// from a per-entry heap buffer.
const MAX_LANE_CELLS: usize = 2048;

/// Lane-register count up to which the chunk executor uses a fixed
/// stack buffer instead of allocating.
const SMALL_LANE_CELLS: usize = 64;

/// Where the lanes of a lane-wide operand live.
#[derive(Debug, Clone, Copy, PartialEq)]
enum VOperand {
    /// Lane `l` is `arena[cur[c] + l·s]`. A source with `s == 0`
    /// broadcasts a loop-invariant cell (constant, read-only `$f`
    /// register, or invariant subscript); destinations always have
    /// `s ≥ 1`.
    Mem { c: u32, s: i64 },
    /// An iteration-private `$f` register promoted to a lane register.
    Lane(u16),
}

/// A verified lane-wide execution plan for one counted loop: the body
/// re-expressed over [`VOperand`]s, executed op-major over chunks of
/// `W` consecutive iterations. Additive — the scalar body nodes stay in
/// place for remainder iterations and the forced-scalar fallback.
#[derive(Debug, Clone, PartialEq, Default)]
struct VecPlan {
    ops: Vec<FloatOp<VOperand, VOperand>>,
    /// Formula-node provenance per vector op (parallel to `ops`, or
    /// empty when the program carries none).
    prov: Vec<u32>,
    /// Cursors of the `$f` cells promoted to lane registers, indexed
    /// by lane-register id; lane `W−1` is written back to the arena
    /// after the chunks so trailing scalar code observes the value the
    /// last iteration left.
    lane_cells: Vec<u32>,
}

/// A fully resolved, fused, block-structured program.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ResolvedProgram {
    nodes: Vec<RNode>,
    /// Formula-node provenance per resolved node (parallel to `nodes`,
    /// or empty when the program carries none). Read only through a
    /// [`Probe`].
    node_prov: Vec<u32>,
    /// Flat `(cursor, delta)` stride table, sliced per loop.
    steps: Vec<(u32, i64)>,
    /// Per-cursor initial arena index (memcpy'd into the state at the
    /// start of every run).
    init_cursors: Vec<i64>,
    /// `(cell, value)` pairs preset in a fresh arena: constant tables
    /// and immediates.
    arena_init: Vec<(u32, f64)>,
    arena_len: usize,
    in_off: usize,
    n_in: usize,
    out_off: usize,
    n_out: usize,
    /// Whether loop-variable values are observable (via `LoopF` /
    /// integer ops); if not, latches skip maintaining them.
    track_loops: bool,
    /// Minimum `$r` / loop-variable state sizes this program touches;
    /// checked once per run so the hot loop cannot be handed an
    /// undersized state.
    need_r: usize,
    need_loop: usize,
    /// Verified lane-wide plans, indexed by `RNode::Loop::vec`.
    vec_plans: Vec<VecPlan>,
    stats: ResolveStats,
}

/// What the executor reports while it runs. [`NoProbe`] makes every
/// hook an empty inline function, so the instantiation `run` uses
/// carries no trace of them; [`ProfBuf`] builds a [`VmProfile`].
/// `prov` is the formula node the reported code was expanded from
/// (`u32::MAX`: none).
trait Probe {
    /// A scalar node of profile class `class` is about to execute.
    fn op(&mut self, prov: u32, class: usize);
    /// A lane-wide op is about to execute `w` iterations at once.
    fn vec_op(&mut self, prov: u32, kind: Arith, w: usize);
    /// A loop header was reached.
    fn loop_enter(&mut self, prov: u32);
    /// The innermost open loop, headed by node `node`, ran all `trips`
    /// iterations.
    fn loop_exit(&mut self, node: usize, trips: u64);
}

/// The probe of an unprofiled run.
struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn op(&mut self, _: u32, _: usize) {}
    #[inline(always)]
    fn vec_op(&mut self, _: u32, _: Arith, _: usize) {}
    #[inline(always)]
    fn loop_enter(&mut self, _: u32) {}
    #[inline(always)]
    fn loop_exit(&mut self, _: usize, _: u64) {}
}

impl ResolvedProgram {
    pub(crate) fn stats(&self) -> &ResolveStats {
        &self.stats
    }

    /// Builds a fresh arena with tables and immediates preset.
    pub(crate) fn fresh_arena(&self) -> Vec<f64> {
        let mut arena = vec![0.0; self.arena_len];
        for &(cell, v) in &self.arena_init {
            arena[cell as usize] = v;
        }
        arena
    }

    pub(crate) fn init_cursors(&self) -> &[i64] {
        &self.init_cursors
    }

    /// Executes the resolved program. State contract matches the
    /// reference executor: temporaries and `$f` registers persist
    /// across calls (inside the arena), input and output are copied
    /// through the arena windows each call.
    pub(crate) fn run(&self, x: &[f64], y: &mut [f64], st: &mut VmState) {
        self.run_with(x, y, st, || NoProbe);
    }

    /// [`ResolvedProgram::run`] — the same code, instantiated over
    /// [`ProfBuf`] — returning the collected [`VmProfile`]; see
    /// [`crate::VmProgram::run_profiled`].
    pub(crate) fn run_profiled(
        &self,
        x: &[f64],
        y: &mut [f64],
        st: &mut VmState,
        prov_nodes: &[ProvNode],
    ) -> VmProfile {
        let n_ids = if self.node_prov.is_empty() {
            0
        } else {
            prov_nodes.len()
        };
        self.run_with(x, y, st, || ProfBuf::new(n_ids))
            .finish(prov_nodes)
    }

    /// One run under the probe `start` makes — once the state is
    /// loaded, so that a probe with a clock starts it at the first op,
    /// not at the input copy.
    ///
    /// The unchecked indexing of the executor (`get!`/`put!`,
    /// `ld!`/`st!`) rests on three facts, each a `debug_assert!` at
    /// the access itself, so a debug build is a bounds-checked run:
    ///
    /// 1. the checks below — `st.cur` has exactly this program's
    ///    cursor count, the arena at least `arena_len` cells, and the
    ///    integer state (which stays bounds-checked: it is cold)
    ///    covers every `$r` and loop slot the program names;
    /// 2. `Builder::mem` rejects any operand whose reachable address
    ///    box leaves its region — exact, since counted loops reach
    ///    every bound combination — and fixed cells are in range by
    ///    construction, so every cursor *value* at a dereference is a
    ///    cell of the arena;
    /// 3. lane `l` of a lane-wide operand is the address scalar
    ///    iteration `t + l` dereferences through the same cursor, and
    ///    chunks run only with `W` full iterations left.
    fn run_with<P: Probe>(
        &self,
        x: &[f64],
        y: &mut [f64],
        st: &mut VmState,
        start: impl FnOnce() -> P,
    ) -> P {
        assert!(st.arena.len() >= self.arena_len, "arena state mismatch");
        assert!(st.r.len() >= self.need_r, "register state mismatch");
        assert!(st.loops.len() >= self.need_loop, "loop state mismatch");
        assert_eq!(
            st.cur.len(),
            self.init_cursors.len(),
            "cursor state mismatch"
        );
        st.cur.copy_from_slice(&self.init_cursors);
        st.arena[self.in_off..self.in_off + self.n_in].copy_from_slice(x);
        // The reference executor lets accumulations read back the
        // caller's output buffer, so copy it in as well.
        st.arena[self.out_off..self.out_off + self.n_out].copy_from_slice(y);
        let mut probe = start();
        self.exec(
            0..self.nodes.len(),
            &mut st.arena,
            &mut st.cur,
            &mut st.r,
            &mut st.loops,
            &mut probe,
        );
        y.copy_from_slice(&st.arena[self.out_off..self.out_off + self.n_out]);
        probe
    }

    #[inline(always)]
    fn prov(&self, node: usize) -> u32 {
        self.node_prov.get(node).copied().unwrap_or(u32::MAX)
    }

    fn exec<P: Probe>(
        &self,
        nodes: Range<usize>,
        arena: &mut [f64],
        cur: &mut [i64],
        r: &mut [i64],
        loops: &mut [i64],
        probe: &mut P,
    ) {
        let mut i = nodes.start;
        while i < nodes.end {
            match &self.nodes[i] {
                RNode::Float(op) => {
                    probe.op(self.prov(i), op.kind as usize);
                    exec_float(op, arena, cur);
                    i += 1;
                }
                RNode::Int(op) => {
                    probe.op(self.prov(i), op.class());
                    exec_int(op, arena, cur, r, loops);
                    i += 1;
                }
                RNode::Loop {
                    trips,
                    var,
                    lo: l0,
                    end,
                    steps,
                    vec,
                } => {
                    probe.loop_enter(self.prov(i));
                    let end = *end as usize;
                    let stp = &self.steps[steps.0 as usize..steps.1 as usize];
                    // Lane-wide chunks first, the scalar body for
                    // whatever they leave.
                    let done = match vec {
                        Some(p) => {
                            run_chunks(&self.vec_plans[*p as usize], *trips, stp, arena, cur, probe)
                        }
                        None => 0,
                    };
                    if self.track_loops {
                        // Mirror the reference executor exactly: the
                        // variable is set only when the body runs and
                        // is left at `hi` (not `hi+1`) afterwards.
                        for t in done..*trips {
                            loops[*var as usize] = l0 + t as i64;
                            self.exec(i + 1..end, arena, cur, r, loops, probe);
                            for &(k, d) in stp {
                                cur[k as usize] += d;
                            }
                        }
                        if done == *trips && *trips > 0 {
                            // No scalar remainder ran; leave the
                            // variable where the scalar loop would.
                            // (Plan verification guarantees the body
                            // itself never reads it.)
                            loops[*var as usize] = l0 + (*trips - 1) as i64;
                        }
                    } else {
                        for _ in done..*trips {
                            self.exec(i + 1..end, arena, cur, r, loops, probe);
                            for &(k, d) in stp {
                                cur[k as usize] += d;
                            }
                        }
                    }
                    probe.loop_exit(i, *trips);
                    i = end;
                }
            }
        }
    }
}

/// Executes one float op over cursors. Sound by the three facts on
/// [`ResolvedProgram::run_with`].
#[inline(always)]
fn exec_float(op: &FloatOp<u32, u32>, arena: &mut [f64], cur: &[i64]) {
    macro_rules! cell {
        ($k:expr) => {{
            let k = *$k as usize;
            debug_assert!(k < cur.len(), "cursor {k} of {}", cur.len());
            // SAFETY: fact 1 — cursor indices are below the pinned
            // cursor count.
            let at = unsafe { *cur.get_unchecked(k) };
            debug_assert!(
                at >= 0 && (at as usize) < arena.len(),
                "cursor {k} at cell {at} of {}",
                arena.len()
            );
            at as usize
        }};
    }
    macro_rules! get {
        ($k:expr) => {{
            let at = cell!($k);
            // SAFETY: fact 2 — the cursor's value is an arena cell.
            unsafe { *arena.get_unchecked(at) }
        }};
    }
    macro_rules! put {
        ($k:expr, $v:expr) => {{
            let v = $v;
            let at = cell!($k);
            // SAFETY: fact 2.
            unsafe { *arena.get_unchecked_mut(at) = v }
        }};
    }
    // Operands bound by reference: an arm loads only what it reads.
    let [d, d2] = &op.d;
    let [a, b, c] = &op.s;
    match op.kind {
        Arith::Add => put!(d, get!(a) + get!(b)),
        Arith::Sub => put!(d, get!(a) - get!(b)),
        Arith::Mul => put!(d, get!(a) * get!(b)),
        Arith::Div => put!(d, get!(a) / get!(b)),
        Arith::Copy => put!(d, get!(a)),
        Arith::Neg => put!(d, -get!(a)),
        Arith::MulAdd => put!(d, get!(a) * get!(b) + get!(c)),
        Arith::MulSub => put!(d, get!(a) * get!(b) - get!(c)),
        Arith::NegMulAdd => put!(d, get!(c) - get!(a) * get!(b)),
        Arith::Butterfly => {
            let av = get!(a);
            let bv = get!(b);
            put!(d, av + bv);
            put!(d2, av - bv);
        }
    }
}

/// Executes one integer or spill op. Bounds-checked throughout: these
/// run in unoptimized code only, and their `$r`/loop indices come from
/// the lowered program rather than the resolver.
fn exec_int(op: &IntOp, arena: &mut [f64], cur: &[i64], r: &mut [i64], loops: &[i64]) {
    let ri = |s: &RI, r: &[i64]| match s {
        RI::Const(c) => *c,
        RI::R(k) => r[*k as usize],
        RI::Loop(k) => loops[*k as usize],
    };
    match op {
        IntOp::RToCell { d, r_idx } => {
            arena[cur[*d as usize] as usize] = r[*r_idx as usize] as f64;
        }
        IntOp::LoopToCell { d, slot } => {
            arena[cur[*d as usize] as usize] = loops[*slot as usize] as f64;
        }
        IntOp::Bin { op, dst, a, b } => {
            let (av, bv) = (ri(a, r), ri(b, r));
            r[*dst as usize] = match op {
                BinOp::Add => av + bv,
                BinOp::Sub => av - bv,
                BinOp::Mul => av * bv,
                BinOp::Div => av / bv,
            };
        }
        IntOp::Un { neg, dst, a } => {
            let av = ri(a, r);
            r[*dst as usize] = if *neg { -av } else { av };
        }
    }
}

// ---------------------------------------------------------------------------
// Lane-wide (vector) plan execution.
// ---------------------------------------------------------------------------

/// Runs as many full `W`-iteration chunks of a planned loop as the
/// active SIMD backend allows and returns how many iterations were
/// covered (0 when no backend is active or the fallback is forced —
/// the caller then runs everything through the scalar body).
fn run_chunks<P: Probe>(
    plan: &VecPlan,
    trips: u64,
    stp: &[(u32, i64)],
    arena: &mut [f64],
    cur: &mut [i64],
    probe: &mut P,
) -> u64 {
    match simd::active() {
        simd::Backend::Scalar => 0,
        #[cfg(target_arch = "x86_64")]
        simd::Backend::Sse2 => chunks_generic::<simd::Sse2, P>(plan, trips, stp, arena, cur, probe),
        #[cfg(target_arch = "x86_64")]
        simd::Backend::Avx => {
            // SAFETY: `Backend::Avx` is only reported when runtime
            // detection confirmed AVX support.
            unsafe { chunks_avx(plan, trips, stp, arena, cur, probe) }
        }
        #[cfg(target_arch = "aarch64")]
        simd::Backend::Neon => chunks_generic::<simd::Neon, P>(plan, trips, stp, arena, cur, probe),
    }
}

/// AVX entry point: the `target_feature` frame into which the generic
/// chunk executor (and the AVX intrinsics inside it) inlines.
///
/// # Safety
///
/// The CPU must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn chunks_avx<P: Probe>(
    plan: &VecPlan,
    trips: u64,
    stp: &[(u32, i64)],
    arena: &mut [f64],
    cur: &mut [i64],
    probe: &mut P,
) -> u64 {
    chunks_generic::<simd::Avx, P>(plan, trips, stp, arena, cur, probe)
}

/// Executes `trips / W` full chunks op-major: each lane-wide op runs
/// `W` consecutive iterations at once, then the latch strides advance
/// by `W` steps. Plan verification guarantees op-major order is
/// observably identical to iteration order (no loop-carried values,
/// no memory conflicts at lane distance), and every lane performs the
/// exact scalar IEEE-754 op — so the result is bit-identical to
/// scalar execution.
#[inline(always)]
fn chunks_generic<L: Lanes, P: Probe>(
    plan: &VecPlan,
    trips: u64,
    stp: &[(u32, i64)],
    arena: &mut [f64],
    cur: &mut [i64],
    probe: &mut P,
) -> u64 {
    let w = L::W as u64;
    let chunks = trips / w;
    if chunks == 0 {
        return 0;
    }
    let n_cells = plan.lane_cells.len();
    let mut small = [L::splat(0.0); SMALL_LANE_CELLS];
    let mut big = Vec::new();
    let lanes: &mut [L::V] = if n_cells <= SMALL_LANE_CELLS {
        &mut small
    } else {
        big.resize(n_cells, L::splat(0.0));
        &mut big
    };
    for _ in 0..chunks {
        for (j, op) in plan.ops.iter().enumerate() {
            probe.vec_op(plan.prov.get(j).copied().unwrap_or(u32::MAX), op.kind, L::W);
            // SAFETY: fact 3 on `ResolvedProgram::run_with` — `chunks`
            // counts only full chunks, so every lane address is one
            // the scalar iterations of this chunk dereference.
            unsafe { exec_vec_op::<L>(op, lanes, arena, cur) };
        }
        for &(k, d) in stp {
            cur[k as usize] += d * w as i64;
        }
    }
    // Lane registers are iteration-private (written before read every
    // iteration), so only the last iteration's value — lane W−1 of the
    // last chunk — is observable after the loop; write it back for
    // trailing scalar code. Remainder iterations, if any, overwrite it.
    for (k, &cell) in plan.lane_cells.iter().enumerate() {
        arena[cur[cell as usize] as usize] = L::lane(lanes[k], L::W - 1);
    }
    chunks * w
}

/// `true` when the `w` lanes at `base + l·s` all lie inside an arena
/// of `len` cells, whichever way `s` points.
fn lanes_in_bounds(base: i64, s: i64, w: usize, len: usize) -> bool {
    let last = base + (w as i64 - 1) * s;
    base.min(last) >= 0 && (base.max(last) as usize) < len
}

/// Executes one lane-wide op.
///
/// # Safety
///
/// `W` full iterations of the planned loop must remain (fact 3 on
/// [`ResolvedProgram::run_with`]); lane-register ids index `lanes` by
/// plan construction.
#[inline(always)]
unsafe fn exec_vec_op<L: Lanes>(
    op: &FloatOp<VOperand, VOperand>,
    lanes: &mut [L::V],
    arena: &mut [f64],
    cur: &[i64],
) {
    macro_rules! base {
        ($c:expr, $s:expr) => {{
            debug_assert!((*$c as usize) < cur.len());
            let base = *cur.get_unchecked(*$c as usize);
            debug_assert!(
                lanes_in_bounds(base, *$s, L::W, arena.len()),
                "{} lanes from cell {base} by {} in {}",
                L::W,
                $s,
                arena.len()
            );
            base as isize
        }};
    }
    macro_rules! ld {
        ($s:expr) => {
            match $s {
                VOperand::Mem { c, s } => L::load(arena.as_ptr().offset(base!(c, s)), *s),
                VOperand::Lane(k) => {
                    debug_assert!((*k as usize) < lanes.len());
                    *lanes.get_unchecked(*k as usize)
                }
            }
        };
    }
    macro_rules! st {
        ($d:expr, $v:expr) => {{
            let v = $v;
            match $d {
                VOperand::Mem { c, s } => L::store(arena.as_mut_ptr().offset(base!(c, s)), *s, v),
                VOperand::Lane(k) => {
                    debug_assert!((*k as usize) < lanes.len());
                    *lanes.get_unchecked_mut(*k as usize) = v
                }
            }
        }};
    }
    // By reference — copying the operand arrays out (80 bytes per
    // lane-op) measurably slows the width-4 loop.
    let [d, d2] = &op.d;
    let [a, b, c] = &op.s;
    match op.kind {
        Arith::Add => st!(d, L::add(ld!(a), ld!(b))),
        Arith::Sub => st!(d, L::sub(ld!(a), ld!(b))),
        Arith::Mul => st!(d, L::mul(ld!(a), ld!(b))),
        Arith::Div => st!(d, L::div(ld!(a), ld!(b))),
        Arith::Copy => st!(d, ld!(a)),
        Arith::Neg => st!(d, L::neg(ld!(a))),
        Arith::MulAdd => st!(d, L::add(L::mul(ld!(a), ld!(b)), ld!(c))),
        Arith::MulSub => st!(d, L::sub(L::mul(ld!(a), ld!(b)), ld!(c))),
        Arith::NegMulAdd => st!(d, L::sub(ld!(c), L::mul(ld!(a), ld!(b)))),
        Arith::Butterfly => {
            let av = ld!(a);
            let bv = ld!(b);
            st!(d, L::add(av, bv));
            st!(d2, L::sub(av, bv));
        }
    }
}

/// The [`Probe`] of a profiled run: accumulates a [`VmProfile`].
struct ProfBuf {
    op_counts: [u64; N_OP_CLASSES],
    /// Per-provenance-id self time / flops / op counts (empty when
    /// the program carries no provenance).
    node_ns: Vec<u128>,
    node_flops: Vec<u64>,
    node_ops: Vec<u64>,
    unattributed_ns: u128,
    /// Provenance id currently on the clock (`u32::MAX` = none).
    cur_attr: u32,
    /// Timestamp of the last attribution transition.
    last: Instant,
    start: Instant,
    /// Entry times of the loops currently open, outermost first.
    open: Vec<Instant>,
    /// Loop-header node index → (depth, entries, iterations, wall_ns).
    loops: HashMap<usize, (u32, u64, u64, u128)>,
}

impl ProfBuf {
    fn new(n_ids: usize) -> ProfBuf {
        let now = Instant::now();
        ProfBuf {
            op_counts: [0; N_OP_CLASSES],
            node_ns: vec![0; n_ids],
            node_flops: vec![0; n_ids],
            node_ops: vec![0; n_ids],
            unattributed_ns: 0,
            cur_attr: u32::MAX,
            last: now,
            start: now,
            open: Vec::new(),
            loops: HashMap::new(),
        }
    }

    /// Telescoping attribution: the clock is read only when execution
    /// crosses from one formula node to another, and the interval
    /// since the previous read is credited in full to the node just
    /// left — so self times sum exactly to the total by construction.
    fn attribute(&mut self, p: u32) {
        if p != self.cur_attr {
            self.flush();
            self.cur_attr = p;
        }
    }

    /// Credits the open interval to the current node and restarts it.
    fn flush(&mut self) {
        let now = Instant::now();
        let dt = (now - self.last).as_nanos();
        match self.node_ns.get_mut(self.cur_attr as usize) {
            Some(slot) => *slot += dt,
            None => self.unattributed_ns += dt,
        }
        self.last = now;
    }

    /// Counts `n` executions of `class` against the current node.
    fn count(&mut self, class: usize, n: u64) {
        self.op_counts[class] += n;
        let id = self.cur_attr as usize;
        if id < self.node_ops.len() {
            self.node_ops[id] += n;
            self.node_flops[id] += n * OP_CLASS_FLOPS[class];
        }
    }

    fn finish(mut self, prov_nodes: &[ProvNode]) -> VmProfile {
        self.flush();
        let total_ns = (self.last - self.start).as_nanos();
        let nodes = if self.node_ns.is_empty() {
            Vec::new()
        } else {
            build_nodes(prov_nodes, &self.node_ns, &self.node_flops, &self.node_ops)
        };
        let mut loop_list: Vec<LoopBlock> = self
            .loops
            .iter()
            .map(
                |(&node, &(depth, entries, iterations, wall_ns))| LoopBlock {
                    node: node as u32,
                    depth,
                    entries,
                    iterations,
                    wall_ns,
                },
            )
            .collect();
        loop_list.sort_by_key(|l| l.node);
        VmProfile {
            total_ns,
            unattributed_ns: self.unattributed_ns,
            op_counts: self.op_counts,
            nodes,
            loops: loop_list,
        }
    }
}

impl Probe for ProfBuf {
    fn op(&mut self, prov: u32, class: usize) {
        self.attribute(prov);
        self.count(class, 1);
    }

    /// Lane-wide classes count *lanes* (one per covered iteration), so
    /// totals across a run equal the scalar run's op and flop totals —
    /// only the class binning moves.
    fn vec_op(&mut self, prov: u32, kind: Arith, w: usize) {
        self.attribute(prov);
        self.count(VEC_CLASS_BASE + kind as usize, w as u64);
    }

    fn loop_enter(&mut self, prov: u32) {
        self.attribute(prov);
        self.open.push(Instant::now());
    }

    fn loop_exit(&mut self, node: usize, trips: u64) {
        let t0 = self.open.pop().expect("loop_exit pairs with loop_enter");
        let wall_ns = t0.elapsed().as_nanos();
        let depth = self.open.len() as u32;
        let e = self.loops.entry(node).or_insert((depth, 0, 0, 0));
        e.1 += 1;
        e.2 += trips;
        e.3 += wall_ns;
    }
}

// ---------------------------------------------------------------------------
// Fusion: flat Op stream → fused op stream.
// ---------------------------------------------------------------------------

/// An op after peephole fusion, still at the symbolic operand level:
/// float ops in the shared vocabulary over the lowered program's own
/// operands, everything else — loop structure and integer bookkeeping
/// — passed through.
#[derive(Debug, Clone, Copy)]
enum FOp<'a> {
    Float(FloatOp<&'a Dst, &'a Src>),
    Pass(&'a Op),
}

/// Counts reads of each `$f` register across the whole program.
fn count_f_reads(code: &[Op]) -> HashMap<u32, usize> {
    let mut reads: HashMap<u32, usize> = HashMap::new();
    let mut see = |s: &Src| {
        if let Src::F(k) = s {
            *reads.entry(*k).or_insert(0) += 1;
        }
    };
    for op in code {
        match op {
            Op::Bin { a, b, .. } => {
                see(a);
                see(b);
            }
            Op::Un { a, .. } => see(a),
            _ => {}
        }
    }
    reads
}

/// Two addresses in the same region that provably never collide: same
/// affine terms, different constant base.
fn disjoint(x: &Addr, y: &Addr) -> bool {
    x.terms == y.terms && x.base != y.base
}

/// `true` when a write through `d` can never change the value read
/// through `s` (conservative: same-region addresses must be provably
/// disjoint).
fn alias_free(d: &Dst, s: &Src) -> bool {
    match (d, s) {
        (Dst::F(k), Src::F(j)) => k != j,
        (Dst::Out(da), Src::Out(sa)) => disjoint(da, sa),
        (Dst::Temp(da), Src::Temp(sa)) => disjoint(da, sa),
        _ => true,
    }
}

/// Destinations that may refer to the same storage (conservative).
fn dsts_alias(x: &Dst, y: &Dst) -> bool {
    match (x, y) {
        (Dst::F(a), Dst::F(b)) => a == b,
        (Dst::Out(a), Dst::Out(b)) => !disjoint(a, b),
        (Dst::Temp(a), Dst::Temp(b)) => !disjoint(a, b),
        _ => false,
    }
}

fn writes_of<'f, 'a>(f: &'f FOp<'a>) -> &'f [&'a Dst] {
    match f {
        FOp::Float(op) => op.dsts(),
        FOp::Pass(_) => &[],
    }
}

fn reads_of<'f, 'a>(f: &'f FOp<'a>) -> &'f [&'a Src] {
    match f {
        FOp::Float(op) => op.srcs(),
        FOp::Pass(_) => &[],
    }
}

/// Ops fusion never crosses: loop structure and integer bookkeeping
/// (whose register/loop-variable effects the float alias model does
/// not track).
fn is_barrier(f: &FOp) -> bool {
    matches!(f, FOp::Pass(_))
}

/// `true` when the op at `p` can be moved to the end of `out` (fused
/// into the op about to be emitted): its writes must commute with
/// every read and write after it, and its reads with every write.
/// Register-as-float reads are safe to move because `$r` and loop
/// variables only change at barrier ops, which bound the window.
fn can_pull(out: &[FOp], p: usize) -> bool {
    let (pw, pr) = (writes_of(&out[p]), reads_of(&out[p]));
    out[p + 1..].iter().all(|m| {
        let (mw, mr) = (writes_of(m), reads_of(m));
        pw.iter()
            .all(|w| mr.iter().all(|s| alias_free(w, s)) && mw.iter().all(|x| !dsts_alias(w, x)))
            && pr.iter().all(|r| mw.iter().all(|w| alias_free(w, r)))
    })
}

/// How far back (in already-emitted ops) fusion looks for a producer.
/// Generated complex arithmetic interleaves the real and imaginary
/// halves, so a multiply and its consuming add sit up to four ops
/// apart; eight gives headroom for unrolled leaves.
const FUSE_WINDOW: usize = 8;

/// Candidate producer positions in `out`, nearest first, bounded by
/// the window and never crossing a barrier.
fn window_positions<'o>(out: &'o [FOp<'o>]) -> impl Iterator<Item = usize> + 'o {
    (0..out.len())
        .rev()
        .take(FUSE_WINDOW)
        .take_while(|&q| !is_barrier(&out[q]))
}

/// The peephole fusion pass: one forward sweep that, at each emitted
/// add/sub, tries to pull a matching producer out of the recent
/// window — a negation to fold, an add to pair into a butterfly, or a
/// multiply to fuse into a multiply–add. Every rewrite preserves the
/// exact f64 rounding sequence of the unfused program.
///
/// `prov` is per-input-op formula-node provenance (empty or parallel
/// to `code`); the returned second vector carries it over per fused
/// op, a fused macro-op inheriting its *consumer's* node.
fn fuse<'a>(code: &'a [Op], prov: &[u32], stats: &mut ResolveStats) -> (Vec<FOp<'a>>, Vec<u32>) {
    let reads = count_f_reads(code);
    let single = |k: &u32| reads.get(k).copied().unwrap_or(0) == 1;
    let has_prov = prov.len() == code.len();
    let mut out: Vec<FOp> = Vec::with_capacity(code.len());
    let mut provs: Vec<u32> = Vec::with_capacity(if has_prov { code.len() } else { 0 });

    for (pc, op) in code.iter().enumerate() {
        let cur_prov = if has_prov { prov[pc] } else { 0 };
        let mut cur = match op {
            Op::Bin { op, dst, a, b } => {
                let kind = match op {
                    BinOp::Add => Arith::Add,
                    BinOp::Sub => Arith::Sub,
                    BinOp::Mul => Arith::Mul,
                    BinOp::Div => Arith::Div,
                };
                FloatOp::new(kind, &[dst], &[a, b])
            }
            Op::Un { neg, dst, a } => {
                FloatOp::new(if *neg { Arith::Neg } else { Arith::Copy }, &[dst], &[a])
            }
            _ => {
                out.push(FOp::Pass(op));
                provs.push(cur_prov);
                continue;
            }
        };

        // Negate folding: t = −s; …; d = x ± t → d = x ∓ s (the
        // remaining case (−s) − y has no single-op equivalent). The
        // rewrite feeds the butterfly/muladd attempts below.
        if let Arith::Add | Arith::Sub = cur.kind {
            let [a, b, _] = cur.s;
            let mut folded = None;
            for q in window_positions(&out) {
                let FOp::Float(FloatOp {
                    kind: Arith::Neg,
                    d: [Dst::F(k), _],
                    s: [s, ..],
                }) = &out[q]
                else {
                    continue;
                };
                if !single(k) || !can_pull(&out, q) {
                    continue;
                }
                let repl = match (cur.kind, a, b) {
                    // x + (−s) = x − s
                    (Arith::Add, x, Src::F(j)) if j == k => Some((Arith::Sub, x)),
                    // (−s) + y = y − s
                    (Arith::Add, Src::F(j), y) if j == k => Some((Arith::Sub, y)),
                    // x − (−s) = x + s
                    (Arith::Sub, x, Src::F(j)) if j == k => Some((Arith::Add, x)),
                    _ => None,
                };
                if let Some((kind, other)) = repl {
                    folded = Some((q, FloatOp::new(kind, &[cur.d[0]], &[other, *s])));
                    break;
                }
            }
            if let Some((q, repl)) = folded {
                out.remove(q);
                provs.remove(q);
                stats.fused_negfold += 1;
                cur = repl;
            }
        }

        // Butterfly: d1 = a + b; …; d2 = a − b over structurally
        // identical operands. The pulled add must not have clobbered
        // an operand the sub re-reads.
        if cur.kind == Arith::Sub {
            let [a, b, _] = cur.s;
            let hit = window_positions(&out).find(|&q| {
                matches!(
                    &out[q],
                    FOp::Float(FloatOp { kind: Arith::Add, d: [d1, _], s: [a2, b2, _] })
                        if *a2 == a && *b2 == b && alias_free(d1, a) && alias_free(d1, b)
                ) && can_pull(&out, q)
            });
            if let Some(q) = hit {
                let FOp::Float(add) = out.remove(q) else {
                    unreachable!("window candidate was an add");
                };
                provs.remove(q);
                out.push(FOp::Float(FloatOp::new(
                    Arith::Butterfly,
                    &[add.d[0], cur.d[0]],
                    &[a, b],
                )));
                provs.push(cur_prov);
                stats.fused_butterfly += 1;
                continue;
            }
        }

        // Multiply–add: t = a·b; …; d = t ± c or d = c − t, where t
        // is an `$f` register with exactly one reader.
        if let Arith::Add | Arith::Sub = cur.kind {
            let [a, b, _] = cur.s;
            let mut hit = None;
            for q in window_positions(&out) {
                if let FOp::Float(FloatOp {
                    kind: Arith::Mul,
                    d: [Dst::F(k), _],
                    ..
                }) = &out[q]
                {
                    if !single(k) || !can_pull(&out, q) {
                        continue;
                    }
                    if matches!(a, Src::F(j) if j == k) {
                        hit = Some((q, true));
                        break;
                    }
                    if matches!(b, Src::F(j) if j == k) {
                        hit = Some((q, false));
                        break;
                    }
                }
            }
            if let Some((q, t_is_left)) = hit {
                let FOp::Float(mul) = out.remove(q) else {
                    unreachable!("window candidate was a mul");
                };
                provs.remove(q);
                let kind = match (cur.kind, t_is_left) {
                    // t + c and c + t
                    (Arith::Add, _) => Arith::MulAdd,
                    // t − c
                    (_, true) => Arith::MulSub,
                    // c − t
                    (_, false) => Arith::NegMulAdd,
                };
                let c = if t_is_left { b } else { a };
                out.push(FOp::Float(FloatOp::new(
                    kind,
                    &[cur.d[0]],
                    &[mul.s[0], mul.s[1], c],
                )));
                provs.push(cur_prov);
                stats.fused_muladd += 1;
                continue;
            }
        }

        out.push(FOp::Float(cur));
        provs.push(cur_prov);
    }
    debug_assert_eq!(out.len(), provs.len());
    (out, if has_prov { provs } else { Vec::new() })
}

// ---------------------------------------------------------------------------
// Resolution: fused ops → cursors, strides, and block structure.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Region {
    In,
    Out,
    Temp,
    Table,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CursorKey {
    /// A cursor over a fixed arena cell (register, immediate, scratch).
    Fixed(usize),
    /// A strided memory operand: region, base, affine terms, and the
    /// innermost enclosing loop (node index; `usize::MAX` at top
    /// level). Identical operands in the same loop context share one
    /// cursor and one set of strides.
    Mem(Region, i64, Vec<(i64, u32)>, usize),
}

/// What a cursor points at — kept parallel to the cursor table for
/// vector-plan verification.
#[derive(Debug, Clone, PartialEq)]
enum CursorMeta {
    /// A fixed cell: `$f` register, immediate, or scratch spill.
    /// Fixed cells never alias the strided regions (disjoint arena
    /// layout).
    Fixed,
    /// A strided operand: its region and region-relative affine terms
    /// (`(coefficient, loop-variable slot)`).
    Mem {
        region: Region,
        terms: Vec<(i64, u32)>,
    },
}

struct Frame {
    node_idx: usize,
    var: u32,
    lo: i64,
    hi: i64,
    trips: u64,
    steps: Vec<(u32, i64)>,
    /// Advisory lane-safety mark carried from the compiler pass.
    vec_hint: bool,
}

struct Builder {
    nodes: Vec<RNode>,
    /// Formula-node provenance per resolved node, parallel to `nodes`
    /// (unused and left empty when the program carries none).
    node_prov: Vec<u32>,
    /// Provenance id of the fused op currently being resolved (spill
    /// nodes emitted for its operands inherit it).
    cur_prov: u32,
    has_prov: bool,
    steps: Vec<(u32, i64)>,
    init: Vec<i64>,
    arena_len: usize,
    arena_init: Vec<(u32, f64)>,
    cursor_map: HashMap<CursorKey, u32>,
    const_map: HashMap<u64, usize>,
    /// Per-cursor classification, parallel to `init`.
    cursor_meta: Vec<CursorMeta>,
    vec_plans: Vec<VecPlan>,
    frames: Vec<Frame>,
    track_loops: bool,
    /// `$r` registers / loop slots the program names so far (highest
    /// index + 1).
    need_r: usize,
    need_loop: usize,
    // Region offsets and lengths.
    f_off: usize,
    table_off: usize,
    in_off: usize,
    out_off: usize,
    temp_off: usize,
    n_in: usize,
    n_out: usize,
    temp_len: usize,
    n_tab: usize,
    stats: ResolveStats,
}

impl Builder {
    fn new(prog: &VmProgram, stats: ResolveStats) -> Builder {
        let f_off = 0;
        let table_off = f_off + prog.n_f;
        let in_off = table_off + prog.tables.len();
        let out_off = in_off + prog.n_in;
        let temp_off = out_off + prog.n_out;
        let arena_len = temp_off + prog.temp_len;
        let arena_init = prog
            .tables
            .iter()
            .enumerate()
            .map(|(i, &v)| ((table_off + i) as u32, v))
            .collect();
        Builder {
            nodes: Vec::new(),
            node_prov: Vec::new(),
            cur_prov: 0,
            has_prov: false,
            steps: Vec::new(),
            init: Vec::new(),
            arena_len,
            arena_init,
            cursor_map: HashMap::new(),
            const_map: HashMap::new(),
            cursor_meta: Vec::new(),
            vec_plans: Vec::new(),
            frames: Vec::new(),
            track_loops: false,
            need_r: 0,
            need_loop: 0,
            f_off,
            table_off,
            in_off,
            out_off,
            temp_off,
            n_in: prog.n_in,
            n_out: prog.n_out,
            temp_len: prog.temp_len,
            n_tab: prog.tables.len(),
            stats,
        }
    }

    /// Appends a node, mirroring the current op's provenance into the
    /// parallel `node_prov` table.
    fn push_node(&mut self, n: RNode) {
        self.nodes.push(n);
        if self.has_prov {
            self.node_prov.push(self.cur_prov);
        }
    }

    fn new_cursor(&mut self, init: i64, meta: CursorMeta) -> Result<u32, Unsupported> {
        let id = u32::try_from(self.init.len()).map_err(|_| Unsupported("cursor overflow"))?;
        self.init.push(init);
        self.cursor_meta.push(meta);
        Ok(id)
    }

    /// A cursor permanently pointing at one arena cell.
    fn fixed(&mut self, cell: usize) -> Result<u32, Unsupported> {
        if let Some(&c) = self.cursor_map.get(&CursorKey::Fixed(cell)) {
            return Ok(c);
        }
        let c = self.new_cursor(cell as i64, CursorMeta::Fixed)?;
        self.cursor_map.insert(CursorKey::Fixed(cell), c);
        Ok(c)
    }

    /// A fresh tail cell (immediates, scratch spills).
    fn alloc_cell(&mut self) -> usize {
        let cell = self.arena_len;
        self.arena_len += 1;
        cell
    }

    fn const_cell(&mut self, v: f64) -> Result<u32, Unsupported> {
        let cell = match self.const_map.get(&v.to_bits()) {
            Some(&c) => c,
            None => {
                let c = self.alloc_cell();
                self.const_map.insert(v.to_bits(), c);
                self.arena_init.push((
                    u32::try_from(c).map_err(|_| Unsupported("arena overflow"))?,
                    v,
                ));
                c
            }
        };
        self.fixed(cell)
    }

    /// Resolves a strided memory operand: dedups per loop context,
    /// folds loop-invariant components into the cursor's initial
    /// value, bounds-checks the reachable address box against the
    /// region, and registers latch strides on the enclosing loops.
    fn mem(&mut self, region: Region, addr: &Addr) -> Result<u32, Unsupported> {
        let ctx = self.frames.last().map(|f| f.node_idx).unwrap_or(usize::MAX);
        let key = CursorKey::Mem(region, addr.base, addr.terms.clone(), ctx);
        if let Some(&c) = self.cursor_map.get(&key) {
            return Ok(c);
        }
        let (region_off, region_len) = match region {
            Region::In => (self.in_off, self.n_in),
            Region::Out => (self.out_off, self.n_out),
            Region::Temp => (self.temp_off, self.temp_len),
            Region::Table => (self.table_off, self.n_tab),
        };
        // Per-frame coefficient (0 when the frame's variable does not
        // appear); every term must be bound by an enclosing frame.
        let mut coeffs = vec![0i64; self.frames.len()];
        for &(c, slot) in &addr.terms {
            // Innermost binding wins, matching the executor's view of
            // the current variable value.
            let j = self
                .frames
                .iter()
                .rposition(|f| f.var == slot)
                .ok_or(Unsupported(
                    "subscript references an out-of-scope loop variable",
                ))?;
            coeffs[j] = coeffs[j]
                .checked_add(c)
                .ok_or(Unsupported("address overflow"))?;
        }
        // Initial value: base + region offset + Σ coeff·lo.
        let mut init = (region_off as i64)
            .checked_add(addr.base)
            .ok_or(Unsupported("address overflow"))?;
        for (j, &c) in coeffs.iter().enumerate() {
            let t = c
                .checked_mul(self.frames[j].lo)
                .ok_or(Unsupported("address overflow"))?;
            init = init.checked_add(t).ok_or(Unsupported("address overflow"))?;
        }
        // Reachable-box bounds check, skipped when an enclosing loop
        // is zero-trip (the op can never execute).
        if self.frames.iter().all(|f| f.trips > 0) {
            let mut min = addr.base as i128;
            let mut max = addr.base as i128;
            for (j, &c) in coeffs.iter().enumerate() {
                let a = c as i128 * self.frames[j].lo as i128;
                let b = c as i128 * self.frames[j].hi as i128;
                min += a.min(b);
                max += a.max(b);
            }
            if min < 0 || max >= region_len as i128 {
                return Err(Unsupported("address range leaves its region"));
            }
        }
        let cursor = self.new_cursor(
            init,
            CursorMeta::Mem {
                region,
                terms: addr.terms.clone(),
            },
        )?;
        // Latch strides: S_j = coeff_j − coeff_{j+1}·trips_{j+1}
        // (frames are outer→inner; the innermost stride is its raw
        // coefficient).
        for j in 0..self.frames.len() {
            let inner = if j + 1 < self.frames.len() {
                let t = i64::try_from(self.frames[j + 1].trips)
                    .map_err(|_| Unsupported("trip-count overflow"))?;
                coeffs[j + 1]
                    .checked_mul(t)
                    .ok_or(Unsupported("address overflow"))?
            } else {
                0
            };
            let s = coeffs[j]
                .checked_sub(inner)
                .ok_or(Unsupported("address overflow"))?;
            if s != 0 {
                self.frames[j].steps.push((cursor, s));
                self.stats.strength_reduced_steps += 1;
            }
        }
        self.stats.hoisted_terms += addr.terms.len() as u64;
        self.cursor_map.insert(key, cursor);
        Ok(cursor)
    }

    fn use_r(&mut self, k: u32) {
        self.need_r = self.need_r.max(k as usize + 1);
    }

    fn use_loop(&mut self, slot: u32) {
        self.need_loop = self.need_loop.max(slot as usize + 1);
    }

    /// Resolves a source operand, emitting spill ops for the rare
    /// register-as-float reads.
    fn src(&mut self, s: &Src) -> Result<u32, Unsupported> {
        match s {
            Src::In(a) => self.mem(Region::In, a),
            Src::Out(a) => self.mem(Region::Out, a),
            Src::Temp(a) => self.mem(Region::Temp, a),
            Src::Table(a) => self.mem(Region::Table, a),
            Src::F(k) => self.fixed(self.f_off + *k as usize),
            Src::Const(v) => self.const_cell(*v),
            Src::RF(k) => {
                self.use_r(*k);
                let cell = self.alloc_cell();
                let c = self.fixed(cell)?;
                self.push_node(RNode::Int(IntOp::RToCell { d: c, r_idx: *k }));
                Ok(c)
            }
            Src::LoopF(k) => {
                self.track_loops = true;
                self.use_loop(*k);
                let cell = self.alloc_cell();
                let c = self.fixed(cell)?;
                self.push_node(RNode::Int(IntOp::LoopToCell { d: c, slot: *k }));
                Ok(c)
            }
        }
    }

    fn dst(&mut self, d: &Dst) -> Result<u32, Unsupported> {
        match d {
            Dst::Out(a) => self.mem(Region::Out, a),
            Dst::Temp(a) => self.mem(Region::Temp, a),
            Dst::F(k) => self.fixed(self.f_off + *k as usize),
        }
    }

    fn ri(&mut self, s: &ISrc) -> RI {
        match s {
            ISrc::Const(c) => RI::Const(*c),
            ISrc::R(k) => {
                self.use_r(*k);
                RI::R(*k)
            }
            ISrc::Loop(k) => {
                self.track_loops = true;
                self.use_loop(*k);
                RI::Loop(*k)
            }
        }
    }

    /// Attempts to build a lane-wide plan for a compiler-hinted loop
    /// whose body is `self.nodes[frame.node_idx + 1..]`. Returns
    /// `None` — demoting the hint to scalar execution — unless lane
    /// safety is provable from the resolved cursors alone:
    ///
    /// * every body node is a float op (no integer ops, spills, or
    ///   nested loops — so the body reads neither `$r` nor loop
    ///   variables);
    /// * every written `$f` cell is iteration-private (written before
    ///   any read in op order) and every read-only `$f`/immediate cell
    ///   is a loop-invariant broadcast;
    /// * every strided write advances (stride ≥ 1), and no two
    ///   same-region accesses can touch the same address at an
    ///   iteration distance a chunk could cover (`1 ‥ MAX_VEC_WIDTH−1`;
    ///   distance-0 conflicts keep op order per lane, and distances
    ///   ≥ the chunk width always cross a chunk boundary).
    fn vec_plan(&self, frame: &Frame) -> Option<VecPlan> {
        let trips = frame.trips;
        if trips < 2 {
            return None;
        }
        let first = frame.node_idx + 1;
        let stride = |terms: &[(i64, u32)]| -> i64 {
            terms
                .iter()
                .filter(|&&(_, slot)| slot == frame.var)
                .map(|&(c, _)| c)
                .sum()
        };
        let outer = |terms: &[(i64, u32)]| -> Vec<(i64, u32)> {
            terms
                .iter()
                .copied()
                .filter(|&(_, slot)| slot != frame.var)
                .collect()
        };
        struct MemUse {
            cursor: u32,
            region: Region,
            s: i64,
            outer: Vec<(i64, u32)>,
            write: bool,
        }
        // Re-express the body over lane-wide operands, classifying
        // each cursor's role as it is met (sources before destinations
        // within an op) and collecting the strided accesses. A role,
        // once given, is final: a broadcast cell written later is
        // loop-carried and demotes the loop.
        let mut lane_of: HashMap<u32, u16> = HashMap::new();
        let mut lane_cells: Vec<u32> = Vec::new();
        let mut broadcast: HashSet<u32> = HashSet::new();
        let mut mems: Vec<MemUse> = Vec::new();
        let mut ops = Vec::with_capacity(self.nodes.len() - first);
        for node in &self.nodes[first..] {
            let RNode::Float(op) = node else {
                return None; // nested loop, `$r` arithmetic, or spill
            };
            let lane_wide = op.map(|o| {
                let (c, write) = match o {
                    Operand::Src(c) => (c, false),
                    Operand::Dst(c) => (c, true),
                };
                match &self.cursor_meta[c as usize] {
                    CursorMeta::Mem { region, terms } => {
                        let s = stride(terms);
                        if write && s < 1 {
                            return Err(()); // stationary or backward write
                        }
                        mems.push(MemUse {
                            cursor: c,
                            region: *region,
                            s,
                            outer: outer(terms),
                            write,
                        });
                        Ok(VOperand::Mem { c, s })
                    }
                    CursorMeta::Fixed => {
                        if let Some(&k) = lane_of.get(&c) {
                            return Ok(VOperand::Lane(k));
                        }
                        if !write {
                            broadcast.insert(c);
                            return Ok(VOperand::Mem { c, s: 0 });
                        }
                        // First write: a lane register, unless the cell
                        // was read before it (loop-carried).
                        if broadcast.contains(&c) || lane_cells.len() >= MAX_LANE_CELLS {
                            return Err(());
                        }
                        let k = lane_cells.len() as u16;
                        lane_of.insert(c, k);
                        lane_cells.push(c);
                        Ok(VOperand::Lane(k))
                    }
                }
            });
            ops.push(lane_wide.ok()?);
        }
        // The full address interval an access can take across the open
        // loop nest: cursor init values already include every var's
        // `lo` term, so each outer var adds `coeff·(var − lo)` over
        // `0 ‥ hi − lo` and the hinted var adds `s·t` over
        // `0 ‥ trips − 1`. `None` when an outer term's loop is not on
        // the frame stack (not provably boundable).
        let range_of = |m: &MemUse| -> Option<(i128, i128)> {
            let base = self.init[m.cursor as usize] as i128;
            let inner = m.s as i128 * (trips as i128 - 1);
            let (mut lo, mut hi) = (base + inner.min(0), base + inner.max(0));
            for &(c, slot) in &m.outer {
                let f = self.frames.iter().find(|f| f.var == slot)?;
                let span = c as i128 * (f.hi as i128 - f.lo as i128);
                lo += span.min(0);
                hi += span.max(0);
            }
            Some((lo, hi))
        };
        // Alias verification: each strided write against every other
        // same-region access. When both subscripts share their outer
        // terms and stride, the address delta is invariant under the
        // outer loops and an exact iteration-distance test applies;
        // otherwise fall back to whole-range disjointness — regions
        // pack several temp buffers into one arena, and accesses to
        // different buffers have overlapping-looking strides but
        // disjoint intervals.
        for w in mems.iter().filter(|m| m.write) {
            for x in &mems {
                if x.cursor == w.cursor || x.region != w.region {
                    continue;
                }
                if x.outer != w.outer || (x.s != w.s && x.s != 0) {
                    let (Some((wl, wh)), Some((xl, xh))) = (range_of(w), range_of(x)) else {
                        return None;
                    };
                    if wh < xl || xh < wl {
                        continue; // provably disjoint buffers
                    }
                    return None;
                }
                let db = self.init[x.cursor as usize] - self.init[w.cursor as usize];
                if x.s == w.s {
                    if db % w.s == 0 {
                        let delta = (db / w.s).unsigned_abs();
                        if delta >= 1 && delta <= (MAX_VEC_WIDTH as u64 - 1).min(trips - 1) {
                            return None;
                        }
                    }
                } else {
                    // x.s == 0: strided write vs loop-invariant read —
                    // any collision in the trip range breaks broadcast.
                    if db % w.s == 0 {
                        let t = db / w.s;
                        if t >= 0 && (t as u64) < trips {
                            return None;
                        }
                    }
                }
            }
        }
        let prov = if self.has_prov {
            self.node_prov[first..].to_vec()
        } else {
            Vec::new()
        };
        Some(VecPlan {
            ops,
            prov,
            lane_cells,
        })
    }
}

/// Resolves a lowered program into the fused cursor-based engine, or
/// reports why it must stay on the reference executor.
pub(crate) fn resolve(prog: &VmProgram) -> Result<ResolvedProgram, Unsupported> {
    let mut stats = ResolveStats::default();
    let (fused, fprov) = fuse(prog.code(), prog.prov(), &mut stats);

    // Fusion shifts indices, so the original `end_pc` links are void;
    // re-match loop starts to their `hi` bound over the fused stream.
    let mut hi_at: HashMap<usize, i64> = HashMap::new();
    {
        let mut stack = Vec::new();
        for (idx, fop) in fused.iter().enumerate() {
            match fop {
                FOp::Pass(Op::LoopStart { .. }) => stack.push(idx),
                FOp::Pass(Op::LoopEnd { hi, .. }) => {
                    let start = stack.pop().ok_or(Unsupported("malformed loop structure"))?;
                    hi_at.insert(start, *hi);
                }
                _ => {}
            }
        }
        if !stack.is_empty() {
            return Err(Unsupported("malformed loop structure"));
        }
    }

    let mut b = Builder::new(prog, stats);
    b.has_prov = !fprov.is_empty();
    for (idx, fop) in fused.iter().enumerate() {
        if b.has_prov {
            b.cur_prov = fprov[idx];
        }
        match fop {
            FOp::Float(op) => {
                let op = op.map(|o| match o {
                    Operand::Src(s) => b.src(s),
                    Operand::Dst(d) => b.dst(d),
                })?;
                b.push_node(RNode::Float(op));
            }
            FOp::Pass(Op::LoopStart { var, lo, vec, .. }) => {
                if b.frames.iter().any(|f| f.var == *var) {
                    // Shadowed loop variables would need scoped
                    // cursor contexts; fall back instead.
                    return Err(Unsupported("nested loops share a variable slot"));
                }
                let hi = *hi_at
                    .get(&idx)
                    .ok_or(Unsupported("malformed loop structure"))?;
                let trips = if *lo > hi {
                    0
                } else {
                    u64::try_from(hi as i128 - *lo as i128 + 1)
                        .map_err(|_| Unsupported("trip-count overflow"))?
                };
                b.use_loop(*var);
                b.frames.push(Frame {
                    node_idx: b.nodes.len(),
                    var: *var,
                    lo: *lo,
                    hi,
                    trips,
                    steps: Vec::new(),
                    vec_hint: *vec,
                });
                b.push_node(RNode::Loop {
                    trips,
                    var: *var,
                    lo: *lo,
                    end: 0,
                    steps: (0, 0),
                    vec: None,
                });
            }
            FOp::Pass(Op::LoopEnd { .. }) => {
                let frame = b
                    .frames
                    .pop()
                    .ok_or(Unsupported("malformed loop structure"))?;
                let s0 = u32::try_from(b.steps.len()).map_err(|_| Unsupported("step overflow"))?;
                b.steps.extend_from_slice(&frame.steps);
                let s1 = u32::try_from(b.steps.len()).map_err(|_| Unsupported("step overflow"))?;
                let end =
                    u32::try_from(b.nodes.len()).map_err(|_| Unsupported("program too large"))?;
                let vec_idx = if frame.vec_hint {
                    match b.vec_plan(&frame) {
                        Some(plan) => {
                            b.stats.vec_loops += 1;
                            b.stats.vec_ops += plan.ops.len() as u64;
                            let id = u32::try_from(b.vec_plans.len())
                                .map_err(|_| Unsupported("program too large"))?;
                            b.vec_plans.push(plan);
                            Some(id)
                        }
                        None => {
                            b.stats.vec_demoted += 1;
                            None
                        }
                    }
                } else {
                    None
                };
                if let RNode::Loop {
                    end: e, steps, vec, ..
                } = &mut b.nodes[frame.node_idx]
                {
                    *e = end;
                    *steps = (s0, s1);
                    *vec = vec_idx;
                }
            }
            FOp::Pass(Op::IntBin { op, dst, a, b: rhs }) => {
                let a = b.ri(a);
                let rhs = b.ri(rhs);
                b.use_r(*dst);
                b.push_node(RNode::Int(IntOp::Bin {
                    op: *op,
                    dst: *dst,
                    a,
                    b: rhs,
                }));
            }
            FOp::Pass(Op::IntUn { neg, dst, a }) => {
                let a = b.ri(a);
                b.use_r(*dst);
                b.push_node(RNode::Int(IntOp::Un {
                    neg: *neg,
                    dst: *dst,
                    a,
                }));
            }
            FOp::Pass(Op::Bin { .. } | Op::Un { .. }) => {
                unreachable!("fusion puts every float op in the shared vocabulary")
            }
        }
    }
    if !b.frames.is_empty() {
        return Err(Unsupported("malformed loop structure"));
    }
    let mut stats = b.stats;
    stats.cursors = b.init.len() as u64;
    Ok(ResolvedProgram {
        node_prov: if b.has_prov && b.node_prov.len() == b.nodes.len() {
            b.node_prov
        } else {
            Vec::new()
        },
        nodes: b.nodes,
        steps: b.steps,
        init_cursors: b.init,
        arena_init: b.arena_init,
        arena_len: b.arena_len,
        in_off: b.in_off,
        n_in: b.n_in,
        out_off: b.out_off,
        n_out: b.n_out,
        track_loops: b.track_loops,
        need_r: b.need_r,
        need_loop: b.need_loop,
        vec_plans: b.vec_plans,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::OP_CLASS_NAMES;

    /// Every kind, in discriminant order, with the `(dsts, srcs)` and
    /// flop count the profile tables are laid out for.
    const KINDS: [(Arith, (usize, usize), u64); 10] = [
        (Arith::Add, (1, 2), 1),
        (Arith::Sub, (1, 2), 1),
        (Arith::Mul, (1, 2), 1),
        (Arith::Div, (1, 2), 1),
        (Arith::Copy, (1, 1), 0),
        (Arith::Neg, (1, 1), 1),
        (Arith::MulAdd, (1, 3), 2),
        (Arith::MulSub, (1, 3), 2),
        (Arith::NegMulAdd, (1, 3), 2),
        (Arith::Butterfly, (2, 2), 2),
    ];

    #[test]
    fn arith_discriminants_index_the_profile_tables() {
        for (slot, (kind, (nd, ns), flops)) in KINDS.into_iter().enumerate() {
            assert_eq!(kind as usize, slot, "{kind:?}");
            let name = format!("{kind:?}").to_lowercase();
            assert_eq!(OP_CLASS_NAMES[slot], name);
            assert_eq!(OP_CLASS_NAMES[VEC_CLASS_BASE + slot], format!("v{name}"));
            assert_eq!(OP_CLASS_FLOPS[slot], flops, "{name}");
            assert_eq!(OP_CLASS_FLOPS[VEC_CLASS_BASE + slot], flops, "v{name}");
            let op = FloatOp::new(kind, &[7u8, 8][..nd], &[1u8, 2, 3][..ns]);
            assert_eq!((op.dsts().len(), op.srcs().len()), (nd, ns), "{name}");
        }
        // The lane-wide classes fill the table to its end, and the four
        // integer classes sit between the two float blocks.
        assert_eq!(VEC_CLASS_BASE + KINDS.len(), N_OP_CLASSES);
        let spill = IntOp::RToCell { d: 0, r_idx: 0 };
        assert_eq!(spill.class(), KINDS.len());
        let un = IntOp::Un {
            neg: false,
            dst: 0,
            a: RI::Const(0),
        };
        assert_eq!(un.class(), VEC_CLASS_BASE - 1);
    }

    #[test]
    fn map_visits_sources_then_destinations_and_no_padding() {
        for (kind, (nd, ns), _) in KINDS {
            let op = FloatOp::new(kind, &[10u8, 11][..nd], &[1u8, 2, 3][..ns]);
            let mut seen = Vec::new();
            let mapped = op
                .map(|o| {
                    let v = match o {
                        Operand::Src(s) => s,
                        Operand::Dst(d) => d,
                    };
                    seen.push(v);
                    Ok::<_, ()>(u32::from(v) * 2)
                })
                .unwrap();
            let want: Vec<u8> = [1, 2, 3][..ns]
                .iter()
                .chain(&[10, 11][..nd])
                .copied()
                .collect();
            assert_eq!(seen, want, "{kind:?}");
            assert_eq!(mapped.kind, kind);
            assert_eq!(mapped.srcs(), &[2u32, 4, 6][..ns]);
            assert_eq!(mapped.dsts(), &[20u32, 22][..nd]);
        }
        // The first failure stops the walk: nothing after it is visited.
        let op = FloatOp::new(Arith::MulAdd, &[9u8], &[1u8, 2, 3]);
        let mut visits = 0;
        let r = op.map(|_| {
            visits += 1;
            if visits == 2 {
                Err("second")
            } else {
                Ok(0u32)
            }
        });
        assert_eq!((r, visits), (Err("second"), 2));
    }
}
