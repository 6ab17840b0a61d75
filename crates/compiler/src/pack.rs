//! C on complex pairs (`re` at an even index, `im` after it): each run's
//! value graph, seeded with its stores `a[e+2k]`, `a[e+2k+1]` (`e` the
//! subscript's loop-variable terms, equal in both), gives every pair of
//! values one 2-lane statement — a vector op, `l - r`
//! beside `l + r` blended by `__builtin_shufflevector`, a sign-mask xor, a
//! shuffle, a load of adjacent elements or a literal — and falls back to
//! scalar statements, lane extracts and `(spl_v2d){a, b}` builds. Each
//! lane performs its scalar statement's IEEE operation (`+` and `*` may
//! trade operands), so the C computes the VM's answer bit for bit.
//!
//! A loop body whose every subscript steps by 2 doubles per iteration
//! (a load may also step by 0) can print *wide* instead: two iterations
//! per 32-byte vector, lanes (re, im) of iteration `i` then of `i+1`, for
//! a loop that steps by 2. The mapping from the 2-lane items is
//! mechanical: a load or store of a pair becomes one 4-element access at
//! the same subscript (a load that does not step, a broadcast of its
//! pair), a literal repeats, a shuffle `(j, k)` becomes
//! `(j, k, j+2, k+2)`, the blend `(0, 3)` becomes `(0, 5, 2, 7)` and a
//! sign mask repeats. A wide body has no scalar fallback, and no two of
//! its stores to one array lie a pair apart, which two iterations side
//! by side would write out of order.
//!
//! The same two iterations per vector print the *leaf* of a lane nest
//! (`codegen::lane_nests`): the body of an innermost loop inside, or
//! equal to, a loop `v` of an even trip count in whose variable every
//! load of the body steps by 2 doubles or 0. Lanes 0–1 are iteration `v`,
//! lanes 2–3 iteration `v+1`. A store that steps by other than 2 doubles
//! in `v` splits into two 16-byte stores, lanes 2–3 at the subscript plus
//! its step; a temporary the nest keeps per lane (written and read in
//! `v`'s body, with no `v` term, accessed nowhere else) has lane 1's copy
//! behind lane 0's, so lanes 2–3 go that far on. Two split stores a pair
//! apart merge into two 32-byte stores. A leaf that reads such a
//! temporary, or a load that steps by other than 0 or 2, is refused. The
//! nest's legality (iterations `v` and `v+1` store to disjoint elements,
//! every element of a per-lane temporary is written earlier in the
//! iteration that reads it, no `$f` crosses from one block of the body to
//! another) is `codegen`'s to prove.
//!
//! A run outside any loop also prints on *quads*, two 2-lane items per
//! 32-byte vector, under `#if defined(__AVX__)` beside the pair form
//! under `#else`, when that takes fewer statements (a half move counted
//! twice). Loads of one array two doubles apart seed quads; an item whose
//! operands are lanes 0–1 of quads (a build or literal matches any) pairs
//! with an item alike that reads their lanes 2–3; stores two doubles
//! apart pair what is left, top down. Sign masks and literals
//! concatenate, a shuffle keeps each half's lanes `(i, j, i'+2, j'+2)`,
//! `+` beside `-` is one blend of `l - r` and `l + r`; other operands are
//! joined from 128-bit halves or a half is taken out (AVX1 moves only).
//! Each lane is its 2-lane statement's IEEE operation on the same operand
//! lanes, so the bits are the pair form's.
//! Two quads may read each other (the first's lanes 0–1 read the
//! second's, whose lanes 2–3 read the first's): then the pair form prints
//! alone.

use std::fmt::Write as _;
use std::ops::Range;

use spl_icode::{BinOp, IProgram, Instr, LoopVar, Place, UnOp, Value, VecKind};

use crate::codegen::{bin_sym, copy_at, write_affine, write_array, EmitStats, LaneNest};
use crate::mix::MixMap;
use Node::{Bin, Elem, Lit, Minus};
use Recipe::{Lanes, Load, Neg, Op, Pending, Shuffle};

/// The instructions `range` printed as `text`, what it counts, and the
/// `$f` registers it assigns for the code after it; a lane nest's, what
/// else it prints.
#[derive(Default)]
pub(crate) struct PackedRun {
    pub range: Range<usize>,
    pub text: String,
    pub stats: EmitStats,
    pub live_out: Vec<u32>,
    pub nest: Option<Box<LaneNest>>,
}

impl PackedRun {
    /// A copy of a run's text and counts, each line `levels` deeper.
    pub fn indented(&self, levels: usize) -> PackedRun {
        let pad = "  ".repeat(levels);
        let mut text = String::with_capacity(self.text.len() * 11 / 10);
        for line in self.text.split_inclusive('\n') {
            text.push_str(&pad);
            text.push_str(line);
        }
        PackedRun {
            range: self.range.clone(),
            text,
            stats: self.stats,
            live_out: self.live_out.clone(),
            nest: None,
        }
    }
}

/// The arithmetic `prog.instrs[range]` on pairs, each line after `pad`;
/// `None` when it reads an array it writes, stores to one array under two
/// sets of loop-variable terms (which may alias), reads a `$f` it did not
/// assign, touches integer registers, or pairs no more than falls back.
/// `read_until[k]`: one past the last read of `$f` `k`; `names`: the
/// unit's next temporary number.
///
/// `wide`: two iterations of a loop per vector; `None` as well when
/// anything falls back to scalars, a load steps by other than 0 or 2
/// doubles, or a store's lanes 2–3 land on another store, and then
/// `names` is as it was.
///
/// `quads`: a run outside any loop, which prints its items two per
/// 32-byte vector under `#if defined(__AVX__)` beside the pair form under
/// `#else` when that takes fewer statements.
pub(crate) fn pack(
    prog: &IProgram,
    range: Range<usize>,
    read_until: &[usize],
    names: &mut u32,
    pad: &str,
    wide: Option<Wide>,
    quads: bool,
) -> Option<PackedRun> {
    let first = *names;
    let mut packer = Packer::new(&prog.instrs[range.clone()], read_until, range.end, wide)?;
    packer.quads = quads;
    let run = packer.print(range, names, pad);
    if run.is_none() && wide.is_some() {
        *names = first;
    }
    let mut run = run?;
    if quads {
        packer.add_quads(&mut run, first, names, pad);
    }
    Some(run)
}

/// Two iterations of the loop over `var` per vector.
#[derive(Clone, Copy)]
pub(crate) struct Wide<'a> {
    pub var: LoopVar,
    /// Per temporary, how far on its lane-1 copy starts; 0 (or no entry)
    /// for one both lanes share.
    pub copy: &'a [i64],
}

/// An array and the interned loop-variable terms of a subscript: the
/// elements at constant offsets from one base address.
type Base = (VecKind, u32);

/// How a vector of one width is spelled: its type, a declaration's
/// start, a build's, a load's and a store's cast, a sign mask's integer
/// type.
struct Spelling {
    ty: &'static str,
    decl: &'static str,
    build: &'static str,
    load: &'static str,
    store: &'static str,
    int: &'static str,
}

const PAIR: Spelling = Spelling {
    ty: "spl_v2d",
    decl: "spl_v2d v",
    build: "(spl_v2d){",
    load: "*(const spl_v2du *)&",
    store: "*(spl_v2du *)&",
    int: "spl_v2l",
};

const WIDE: Spelling = Spelling {
    ty: "spl_v4d",
    decl: "spl_v4d v",
    build: "(spl_v4d){",
    load: "*(const spl_v4du *)&",
    store: "*(spl_v4du *)&",
    int: "spl_v4l",
};

/// `NONE`: no node or item, or an item not printed yet; `OPEN`: an item
/// whose operands are being printed.
const NONE: u32 = u32::MAX;
const OPEN: u32 = u32::MAX - 1;

/// A value of a run, numbered in program order: operands come first. An
/// element is (array, interned subscript terms, subscript constant).
#[derive(Clone, Copy)]
enum Node {
    Elem(VecKind, u32, i64),
    Lit(f64),
    Minus(u32),
    Bin(BinOp, u32, u32),
}

/// How an item is computed. An item is two nodes, a vector; or one node
/// and `NONE`, a scalar.
#[derive(Clone, Copy, PartialEq)]
enum Recipe {
    Pending,
    /// Adjacent elements of one array; a scalar: one element.
    Load(VecKind, u32, i64),
    /// A build of two scalar items (a fallback unless literals); a literal.
    Lanes(u32, u32),
    /// `l op0 r` on lane 0 beside `l op1 r` on lane 1.
    Op(BinOp, BinOp, u32, u32),
    /// `p` with the sign of lane 0, lane 1 or both (mask 1, 2, 3) flipped.
    Neg(u8, u32),
    /// Lanes `i`, `j` of vector `p`; a scalar: lane `i` of it.
    Shuffle(u32, u8, u8),
}

#[derive(Default)]
struct Packer {
    nodes: Vec<Node>,
    /// What the run leaves and its item: an element `(Some(base),
    /// constant)` (a pair's first stands for both), or a live-out `$f`
    /// `(None, k)`.
    roots: Vec<(Option<Base>, i64, u32)>,
    /// The subscripts' loop-variable terms, interned.
    terms: Vec<Vec<(i64, LoopVar)>>,
    items: Vec<([u32; 2], Recipe)>,
    index: MixMap<[u32; 2], u32>,
    /// Per node, the first vector that computes it, and the lane.
    home: Vec<(u32, u8)>,
    /// Per item, the number in its name once printed.
    name: Vec<u32>,
    /// Set when printing two iterations of a loop over it per vector.
    wide: Option<LoopVar>,
    /// Per temporary, how far on lane 1's copy starts (see [`Wide`]).
    copy: Vec<i64>,
    /// Printing quads: per item a quad holds, the quad's number and the
    /// item's first lane in it, once printed.
    quad: Vec<(u32, u8)>,
    /// Set when the run prints on quads too; then `order` holds the items
    /// in the order the pair form printed them: operands first.
    quads: bool,
    order: Vec<u32>,
}

impl Packer {
    /// The graph of `run`, which ends at instruction `end`, and the items
    /// it needs; `None` when the run must stay scalar.
    fn new(run: &[Instr], read_until: &[usize], end: usize, wide: Option<Wide>) -> Option<Packer> {
        let mut p = Packer {
            wide: wide.map(|w| w.var),
            copy: wide.map_or(Vec::new(), |w| w.copy.to_vec()),
            ..Packer::default()
        };
        let (mut leaves, mut store_at, mut stores) =
            (MixMap::default(), MixMap::default(), Vec::new());
        let (mut regs, mut read) = (vec![NONE; read_until.len()], Vec::new());
        let mut written: Vec<Base> = Vec::new();
        for ins in run {
            let mut operand = |v: &Value, p: &mut Packer| -> Option<u32> {
                let (key, node) = match v {
                    Value::Place(Place::F(k)) => {
                        return Some(regs[*k as usize]).filter(|&n| n != NONE)
                    }
                    Value::Place(Place::Vec(r)) => {
                        let (s, i) = (p.subscript(&r.idx.terms), r.idx.c);
                        // Lanes 2–3 load one pair on, or the same pair, of
                        // the array lanes 0–1 load.
                        let lanes =
                            |var| matches!(p.step(s, var), 0 | 2) && copy_at(&p.copy, r.kind) == 0;
                        if p.wide.is_some_and(|var| !lanes(var)) {
                            return None;
                        }
                        if !read.contains(&r.kind) {
                            read.push(r.kind);
                        }
                        ((Some(r.kind), s, i), Elem(r.kind, s, i))
                    }
                    // As the VM reads it: an `Int` is a double too.
                    _ => {
                        let c = v.as_const().filter(|c| c.is_real())?.re;
                        ((None, 0, c.to_bits() as i64), Lit(c))
                    }
                };
                Some(*leaves.entry(key).or_insert_with(|| p.push(node)))
            };
            let value = match ins {
                Instr::Bin { op, a, b, .. } => {
                    let (a, b) = (operand(a, &mut p)?, operand(b, &mut p)?);
                    p.push(Bin(*op, a, b))
                }
                Instr::Un { op, a, .. } => match (op, operand(a, &mut p)?) {
                    (UnOp::Neg, a) => p.push(Minus(a)),
                    (UnOp::Copy, a) => a,
                },
                Instr::DoStart { .. } | Instr::DoEnd => return None,
            };
            match ins.dst()? {
                Place::F(k) => regs[*k as usize] = value,
                Place::Vec(r) => {
                    let key = (r.kind, p.subscript(&r.idx.terms), r.idx.c);
                    match written.iter().find(|w| w.0 == key.0) {
                        Some(w) if w.1 != key.1 => return None,
                        Some(_) => {}
                        None => written.push((key.0, key.1)),
                    }
                    let s = *store_at.entry(key).or_insert(stores.len());
                    stores.extend((s == stores.len()).then_some((key, value)));
                    stores[s].1 = value;
                }
                Place::R(_) => return None,
            }
        }
        if written.iter().any(|w| read.contains(&w.0)) {
            return None;
        }
        // Side by side, iteration `i` stores `c + 2` after iteration `i+1`
        // stores `c`, the same element; the same for a split store's lanes
        // 2–3 on any store of the run.
        let apart = |&((k, t, c), _): &((VecKind, u32, i64), u32)| {
            let var = p.wide.expect("a wide body");
            store_at.contains_key(&(k, t, c + p.lane_offset(k, t, var)))
        };
        if wide.is_some() && stores.iter().any(apart) {
            return None;
        }
        // Per store, the value stored beside it in a pair `a[e+2k]`,
        // `a[e+2k+1]` (`OPEN`: it is that `a[e+2k+1]`). With loop terms the
        // constant may be negative: its parity is `rem_euclid`'s.
        let mut other = vec![NONE; stores.len()];
        for (s, &((kind, t, idx), _)) in stores.iter().enumerate() {
            if let (0, Some(&u)) = (idx.rem_euclid(2), store_at.get(&(kind, t, idx + 1))) {
                (other[s], other[u]) = (stores[u].1, OPEN);
            }
        }
        for (s, &((kind, t, idx), value)) in
            stores.iter().enumerate().filter(|s| other[s.0] != OPEN)
        {
            let item = p.intern([value, other[s]]);
            p.roots.push((Some((kind, t)), idx, item));
        }
        let live = |&(k, n): &(usize, u32)| n != NONE && read_until[k] > end;
        for (k, n) in regs.into_iter().enumerate().filter(live) {
            let item = p.intern([n, NONE]);
            p.roots.push((None, k as i64, item));
        }
        // Pairs of two nodes first, breadth first from the stores; then
        // the scalars and the splats, which may read those pairs' lanes.
        p.home = vec![(NONE, 0); p.nodes.len()];
        for late in [false, true] {
            let mut i = 0;
            while i < p.items.len() {
                // Every item costs a statement: more than a few per node
                // and the walk is going nowhere useful.
                if i > 4 * p.nodes.len() + 16 {
                    return None;
                }
                let ([a, b], recipe) = p.items[i];
                if recipe == Pending && (b == NONE || a == b) == late {
                    p.items[i].1 = p.decide(a, b);
                }
                i += 1;
            }
            for (i, &([a, b], recipe)) in p.items.iter().enumerate().rev() {
                if !late && b != NONE && matches!(recipe, Load(..) | Op(..) | Neg(3, _)) {
                    (p.home[a as usize], p.home[b as usize]) = ((i as u32, 0), (i as u32, 1));
                }
            }
        }
        Some(p)
    }

    /// The number of the loop-variable terms `t`: few per run, so a scan.
    fn subscript(&mut self, t: &[(i64, LoopVar)]) -> u32 {
        let at = self.terms.iter().position(|u| u[..] == *t);
        at.unwrap_or_else(|| {
            self.terms.push(t.to_vec());
            self.terms.len() - 1
        }) as u32
    }

    fn push(&mut self, node: Node) -> u32 {
        self.nodes.push(node);
        self.nodes.len() as u32 - 1
    }

    fn intern(&mut self, lanes: [u32; 2]) -> u32 {
        let next = self.items.len() as u32;
        let i = *self.index.entry(lanes).or_insert(next);
        self.items.extend((i == next).then_some((lanes, Pending)));
        i
    }

    fn decide(&mut self, a: u32, b: u32) -> Recipe {
        let (na, (h, lane)) = (self.nodes[a as usize], self.home[a as usize]);
        if b == NONE || a == b {
            // A scalar, or one node on both lanes: a leaf, a lane of the
            // node's home, else computed from scalars.
            return match (na, b) {
                (Elem(k, s, i), NONE) => Load(k, s, i),
                (Lit(_), NONE) => Lanes(NONE, NONE),
                _ if h != NONE => Shuffle(h, lane, lane),
                (Bin(op, x, y), NONE) => Op(op, op, self.intern([x, NONE]), self.intern([y, NONE])),
                (Minus(x), NONE) => Neg(1, self.intern([x, NONE])),
                _ => Lanes(self.intern([a, NONE]), self.intern([a, NONE])),
            };
        }
        let mirror = self.index.get(&[b, a]).copied();
        // Only a decided mirror that is no shuffle: two pending mirrors
        // must not become each other's.
        let made = mirror.filter(|&q| !matches!(self.items[q as usize].1, Pending | Shuffle(..)));
        let add_sub = [BinOp::Add, BinOp::Sub];
        match (na, self.nodes[b as usize]) {
            (Lit(_), Lit(_)) => Lanes(self.intern([a, NONE]), self.intern([b, NONE])),
            (Elem(k, s, i), Elem(l, u, j)) if (k, s) == (l, u) && j == i + 1 => Load(k, s, i),
            (Elem(k, s, i), Elem(l, u, j)) if (k, s) == (l, u) && i == j + 1 => {
                Shuffle(self.intern([b, a]), 1, 0)
            }
            _ if made.is_some() => Shuffle(made.expect("a made mirror"), 1, 0),
            (Bin(oa, a0, a1), Bin(ob, b0, b1))
                if oa == ob || add_sub.contains(&oa) && add_sub.contains(&ob) =>
            {
                let ([l, r], score) = self.orient(oa, ob, [a0, a1], [b0, b1]);
                // Operands that pack better lane-swapped: the mirror's shuffle.
                if mirror.is_none() && self.orient(ob, oa, [b0, b1], [a0, a1]).1 > score {
                    return Shuffle(self.intern([b, a]), 1, 0);
                }
                Op(oa, ob, self.intern(l), self.intern(r))
            }
            (Minus(a0), Minus(b0)) => Neg(3, self.intern([a0, b0])),
            (Minus(a0), _) => Neg(1, self.intern([a0, b])),
            (_, Minus(b0)) => Neg(2, self.intern([a, b0])),
            _ => Lanes(self.intern([a, NONE]), self.intern([b, NONE])),
        }
    }

    /// The operand pairs `[left, right]` of lane ops `oa` over `a` beside
    /// `ob` over `b` that pack best, and their score: as written, or with
    /// a commutative lane's operands swapped when that scores higher. A
    /// pair scores 2 made or one load or literal away, 1 if its mirror is.
    fn orient(&self, oa: BinOp, ob: BinOp, a: [u32; 2], b: [u32; 2]) -> ([[u32; 2]; 2], u32) {
        let commutes = |op| matches!(op, BinOp::Add | BinOp::Mul);
        let plain = [[a[0], b[0]], [a[1], b[1]]];
        let swapped = match (commutes(oa), commutes(ob)) {
            (_, true) => [[a[0], b[1]], [a[1], b[0]]],
            (true, _) => [[a[1], b[0]], [a[0], b[1]]],
            _ => plain,
        };
        let made = |x, y| u32::from(self.index.contains_key(&[x, y]));
        let score = |o: [[u32; 2]; 2]| -> u32 {
            let pair = |[x, y]: [u32; 2]| match (self.nodes[x as usize], self.nodes[y as usize]) {
                (Lit(_), Lit(_)) => 2,
                (Elem(k, s, i), Elem(l, u, j)) if (k, s) == (l, u) && j == i + 1 => 2,
                _ => (2 * made(x, y)).max(made(y, x)),
            };
            pair(o[0]) + pair(o[1])
        };
        // `max_by_key` keeps the last of equal scores: as written.
        let best = [swapped, plain].into_iter().max_by_key(|&o| score(o));
        best.map(|o| (o, score(o))).expect("two orders")
    }

    /// Prints the roots in program order, each after what it reads, depth
    /// first on an explicit stack. `None` when the run is better left
    /// scalar, or (defensively) when items read each other in a circle.
    fn print(&mut self, range: Range<usize>, names: &mut u32, pad: &str) -> Option<PackedRun> {
        self.name = vec![NONE; self.items.len()];
        let mut run = PackedRun::default();
        (run.range, run.text) = (range, String::with_capacity(40 * self.nodes.len()));
        for (r, with) in self.partners().into_iter().enumerate() {
            let (kind, idx, root) = self.roots[r];
            let mut stack = vec![(root, false)];
            while let Some((i, expanded)) = stack.pop() {
                if expanded {
                    if self.quads {
                        self.order.push(i);
                    }
                    self.name[i as usize] = *names;
                    let printed = self.statement(i, &mut run, pad);
                    *names += u32::from(printed);
                    // A scalar statement computes iteration `i`'s lane only.
                    if printed && self.wide.is_some() && self.items[i as usize].0[1] == NONE {
                        return None;
                    }
                } else if self.name[i as usize] == NONE {
                    self.name[i as usize] = OPEN;
                    stack.push((i, true));
                    // Reversed, so that a left operand prints first.
                    for d in self.reads(i).into_iter().rev().filter(|&d| d != NONE) {
                        match self.name[d as usize] {
                            OPEN => return None,
                            NONE => stack.push((d, false)),
                            _ => {}
                        }
                    }
                }
            }
            let paired = self.items[root as usize].0[1] != NONE;
            if !paired && self.wide.is_some() {
                return None;
            }
            if let (Some(base), Some(var)) = (kind.filter(|_| paired), self.wide) {
                let off = self.lane_offset(base.0, base.1, var);
                if off != 2 {
                    // Merged, the first of the two waits for the second.
                    match with {
                        NONE => self.split_store(&mut run, pad, base, idx, off, [root, NONE]),
                        p if p as usize > r => {}
                        p => {
                            let (_, lo, first) = self.roots[p as usize];
                            self.split_store(&mut run, pad, base, lo, off, [first, root]);
                        }
                    }
                    continue;
                }
            }
            self.store(r, &mut run, pad);
        }
        let more = run.stats.paired_stmts > run.stats.scalar_stmts;
        (more || self.wide.is_some()).then_some(run)
    }

    /// Prints root `r`'s store, or its live-out `$f`'s assignment.
    fn store(&self, r: usize, run: &mut PackedRun, pad: &str) {
        let (kind, idx, root) = self.roots[r];
        let paired = self.items[root as usize].0[1] != NONE;
        let t = &mut run.text;
        t.push_str(pad);
        if let Some((kind, s)) = kind {
            t.push_str(if paired { self.spelling().store } else { "" });
            self.element(t, kind, s, idx);
            t.push_str(" = ");
        } else {
            let _ = write!(t, "f{idx} = ");
            run.live_out.push(idx as u32);
        }
        self.value(root, t);
        t.push_str(";\n");
        run.stats.count(!paired);
    }

    /// The items item `i` reads, `NONE` past the last.
    fn reads(&self, i: u32) -> [u32; 2] {
        match self.items[i as usize].1 {
            Op(_, _, l, r) | Lanes(l, r) => [l, r],
            Neg(_, c) | Shuffle(c, ..) => [c, NONE],
            Load(..) | Pending => [NONE; 2],
        }
    }

    /// Per root, the root a wide body merges its split store with (`NONE`:
    /// none): the store a pair after it, or before it, to the same base
    /// and not yet taken, in root order.
    fn partners(&self) -> Vec<u32> {
        let mut partner = vec![NONE; self.roots.len()];
        let Some(var) = self.wide else {
            return partner;
        };
        let split: MixMap<(VecKind, u32, i64), usize> = (self.roots.iter().enumerate())
            .filter_map(|(r, &(base, idx, item))| {
                let (kind, s) = base.filter(|_| self.items[item as usize].0[1] != NONE)?;
                (self.lane_offset(kind, s, var) != 2).then_some(((kind, s, idx), r))
            })
            .collect();
        for (r, &(base, idx, _)) in self.roots.iter().enumerate() {
            let Some((kind, s)) = base.filter(|_| partner[r] == NONE) else {
                continue;
            };
            if !split.contains_key(&(kind, s, idx)) {
                continue;
            }
            let free = |c| split.get(&(kind, s, c)).filter(|&&q| partner[q] == NONE);
            if let Some(&q) = free(idx + 2).or_else(|| free(idx - 2)) {
                (partner[r], partner[q]) = (q as u32, r as u32);
            }
        }
        partner
    }

    /// Prints the stores of a wide body's vector `v[0]` at `idx` and, when
    /// merged, `v[1]` at `idx + 2`, to `base` (lanes 0–1) and `off`
    /// further on (lanes 2–3): two 16-byte stores, or two 32-byte ones.
    fn split_store(
        &self,
        run: &mut PackedRun,
        pad: &str,
        base: Base,
        idx: i64,
        off: i64,
        v: [u32; 2],
    ) {
        let [lo, hi] = v.map(|i| (i != NONE).then(|| self.name[i as usize]));
        let lo = lo.expect("a stored vector");
        for (lanes, at) in [([0, 1], idx), ([2, 3], idx + off)] {
            let t = &mut run.text;
            let (store, [a, b]) = (if hi.is_some() { WIDE.store } else { PAIR.store }, lanes);
            let _ = write!(t, "{pad}{store}");
            self.element(t, base.0, base.1, at);
            let _ = match hi {
                None => writeln!(t, " = __builtin_shufflevector(v{lo}, v{lo}, {a}, {b});"),
                Some(hi) => writeln!(
                    t,
                    " = __builtin_shufflevector(v{lo}, v{hi}, {a}, {b}, {}, {});",
                    a + 4,
                    b + 4
                ),
            };
            run.stats.count(false);
        }
    }

    /// Where a wide body stores lanes 2–3 of a pair whose lanes 0–1 go to
    /// `kind` under terms `s`: what the subscript steps by in `var`, plus
    /// the distance to lane 1's copy of a per-lane temporary.
    fn lane_offset(&self, kind: VecKind, s: u32, var: LoopVar) -> i64 {
        self.step(s, var) + copy_at(&self.copy, kind)
    }

    /// A pair's spelling, or a wide vector's.
    fn spelling(&self) -> &'static Spelling {
        if self.wide.is_some() {
            &WIDE
        } else {
            &PAIR
        }
    }

    /// Prints the statement of item `i` and counts it; `false` for a
    /// scalar leaf or lane, which is printed where it is read.
    fn statement(&self, i: u32, run: &mut PackedRun, pad: &str) -> bool {
        let ([a, b], recipe) = self.items[i as usize];
        let scalar = b == NONE;
        if scalar && !matches!(recipe, Op(..) | Neg(..)) {
            return false;
        }
        let (t, v) = (&mut run.text, |j: u32| self.name[j as usize]);
        let sp = self.spelling();
        let kind = if scalar { "double s" } else { sp.decl };
        let _ = write!(t, "{pad}{kind}{} = ", v(i));
        let _ = match recipe {
            Op(op, _, l, r) if scalar => {
                self.value(l, t);
                let _ = write!(t, " {} ", bin_sym(op));
                self.value(r, t);
                Ok(())
            }
            Neg(_, c) if scalar => {
                t.push_str("-(");
                self.value(c, t);
                write!(t, ")")
            }
            // Wide, iteration `i+1`'s lanes follow `i`'s.
            Lanes(l, r) => {
                t.push_str(sp.build);
                self.value(l, t);
                t.push_str(", ");
                self.value(r, t);
                if self.wide.is_some() {
                    t.push_str(", ");
                    self.next_value(l, t);
                    t.push_str(", ");
                    self.next_value(r, t);
                }
                write!(t, "}}")
            }
            // Wide, a pair that does not step: a broadcast.
            Load(kind, s, idx) if self.wide.is_some_and(|var| self.step(s, var) == 0) => {
                t.push_str(sp.build);
                for (k, c) in [idx, idx + 1, idx, idx + 1].into_iter().enumerate() {
                    t.push_str(if k > 0 { ", " } else { "" });
                    self.element(t, kind, s, c);
                }
                write!(t, "}}")
            }
            Load(kind, s, idx) => {
                t.push_str(sp.load);
                self.element(t, kind, s, idx);
                Ok(())
            }
            Op(op0, op1, l, r) if op0 == op1 => write!(t, "v{} {} v{}", v(l), bin_sym(op0), v(r)),
            Op(op0, op1, l, r) => {
                let half = |op| format!("v{} {} v{}", v(l), bin_sym(op), v(r));
                let (x, y) = (half(op0), half(op1));
                let blend = if self.wide.is_some() {
                    "0, 5, 2, 7"
                } else {
                    "0, 3"
                };
                write!(t, "__builtin_shufflevector({x}, {y}, {blend})")
            }
            Neg(mask, c) => {
                let m = ["", "SPL_SIGN, 0", "0, SPL_SIGN", "SPL_SIGN, SPL_SIGN"][mask as usize];
                let (ty, int) = (sp.ty, sp.int);
                let _ = write!(t, "({ty})(({int})v{} ^ ({int}){{{m}", v(c));
                if self.wide.is_some() {
                    let _ = write!(t, ", {m}");
                }
                write!(t, "}})")
            }
            Shuffle(c, j, k) if self.wide.is_some() => {
                let (c, j2, k2) = (v(c), j + 2, k + 2);
                write!(
                    t,
                    "__builtin_shufflevector(v{c}, v{c}, {j}, {k}, {j2}, {k2})"
                )
            }
            Shuffle(c, j, k) => write!(t, "__builtin_shufflevector(v{0}, v{0}, {j}, {k})", v(c)),
            Pending => unreachable!("every item is decided before printing"),
        };
        t.push_str(";\n");
        let lit = |n: u32| matches!(self.nodes[n as usize], Lit(_));
        run.stats
            .count(scalar || matches!(recipe, Lanes(..)) && !(lit(a) && lit(b)));
        true
    }

    /// Appends what reads item `i`: a vector's name, or a scalar's
    /// element, literal, lane or name.
    fn value(&self, i: u32, t: &mut String) {
        let ([a, b], recipe) = self.items[i as usize];
        let _ = match (recipe, self.nodes[a as usize]) {
            _ if b != NONE => write!(t, "v{}", self.name[i as usize]),
            (Load(kind, s, idx), _) => {
                self.element(t, kind, s, idx);
                Ok(())
            }
            (Lanes(..), Lit(c)) => write!(t, "{c:?}"),
            (Shuffle(h, lane, _), _) => match self.quad.get(h as usize) {
                Some(&(q, at)) if q != NONE => write!(t, "v{q}[{}]", lane + at),
                _ => write!(t, "v{}[{lane}]", self.name[h as usize]),
            },
            _ => write!(t, "s{}", self.name[i as usize]),
        };
    }

    /// What the subscript terms `s` step by per iteration of `var`.
    fn step(&self, s: u32, var: LoopVar) -> i64 {
        let terms = &self.terms[s as usize];
        terms.iter().find(|t| t.1 == var).map_or(0, |t| t.0)
    }

    /// Appends what reads scalar item `i` in the second iteration of a
    /// wide vector: an element one step on, a lane two on, a literal.
    /// (A scalar statement's name never gets here: it refuses the body.)
    fn next_value(&self, i: u32, t: &mut String) {
        let var = self.wide.expect("a wide body");
        let _ = match self.items[i as usize].1 {
            Load(kind, s, idx) => {
                self.element(t, kind, s, idx + self.step(s, var));
                Ok(())
            }
            Shuffle(h, lane, _) => write!(t, "v{}[{}]", self.name[h as usize], lane + 2),
            _ => {
                self.value(i, t);
                Ok(())
            }
        };
    }

    /// Appends element `c` + terms `s` of `kind`'s array.
    fn element(&self, t: &mut String, kind: VecKind, s: u32, c: i64) {
        write_array(t, kind);
        t.push('[');
        write_affine(t, &self.terms[s as usize], c);
        t.push(']');
    }
}

/// An operand a partner matches with any build or literal: the quad
/// builds its four lanes.
const WILD: u32 = u32::MAX - 2;

/// Which 2-lane items share a 32-byte vector: per item, its partner
/// (`NONE`: none) and whether it is lanes 2–3.
struct Mates {
    mate: Vec<u32>,
    hi: Vec<bool>,
}

impl Mates {
    fn pair(&mut self, a: u32, b: u32) {
        (self.mate[a as usize], self.mate[b as usize]) = (b, a);
        (self.hi[a as usize], self.hi[b as usize]) = (false, true);
    }

    /// The partner of `a` when `a` is lanes 0–1 of a quad.
    fn lo(&self, a: u32) -> Option<u32> {
        let m = *self.mate.get(a as usize)?;
        (m != NONE && !self.hi[a as usize]).then_some(m)
    }

    /// The item that names `i`'s statement: lanes 0–1 of its quad, or `i`.
    fn unit(&self, i: u32) -> u32 {
        match self.mate[i as usize] {
            m if m != NONE && self.hi[i as usize] => m,
            _ => i,
        }
    }
}

/// The quad form as it prints: the next name, per unit 0 (not reached),
/// 1 (printing what it reads) or 2 (printed), and the 4-lane values
/// joined or built from two items, by the pair.
struct QuadText<'m> {
    mates: &'m Mates,
    pad: &'m str,
    next: u32,
    run: PackedRun,
    state: Vec<u8>,
    made: MixMap<(u32, u32), u32>,
}

impl Packer {
    /// Prints the run again on quads, names from `first` on as the pair
    /// form's (one text or the other compiles), and keeps that text under
    /// an AVX guard beside `run`'s when it takes fewer statements, a half
    /// move counted twice: it adds a shuffle's latency where a 2-lane
    /// statement adds none (2³'s quads, 49 statements of which 12 half
    /// moves against 57, were no faster). Quads that read each other in a
    /// circle leave `run` as it is. A run whose quads cannot be shorter
    /// by [`quad_floor`](Self::quad_floor) is not printed on quads at all.
    fn add_quads(&mut self, run: &mut PackedRun, first: u32, names: &mut u32, pad: &str) {
        let pair = run.stats.paired_stmts + run.stats.scalar_stmts;
        let mates = self.mates();
        let floor = self.quad_floor(&mates, pair);
        // A debug build prints the quads anyway, to hold the floor to them.
        if floor >= pair && !cfg!(debug_assertions) {
            return;
        }
        let Some((mut quads, next)) = self.print_quads(&mates, first, pad) else {
            return;
        };
        let s = quads.stats;
        let counted = s.paired_stmts + s.scalar_stmts + s.quad_stmts + 2 * s.quad_joins;
        debug_assert!(
            floor <= counted,
            "quad floor {floor} above the {counted} counted"
        );
        if counted < pair {
            let _ = write!(quads.text, "#else\n{}#endif\n", run.text);
            (run.text, run.stats.quad_stmts, run.stats.quad_joins) =
                (quads.text, s.quad_stmts, s.quad_joins);
            *names = next.max(*names);
        }
    }

    /// A floor under the statements the quad text on `mates` counts as
    /// [`add_quads`](Self::add_quads) weighs them, from the pair form's
    /// `pair`: every item prints there as in the pair form, except that a
    /// quad prints two items in one statement, a 4-lane build of two
    /// builds may stand for both, and at most half the stores of quad
    /// items merge; each operand pair of a quad that is no quad and no two
    /// builds is a join, and each quad a 2-lane statement reads alone a
    /// half move, each counted twice.
    fn quad_floor(&self, mates: &Mates, pair: u64) -> u64 {
        let lanes = |i: u32| matches!(self.items[i as usize].1, Lanes(..));
        let mated = |i: u32| i != NONE && mates.mate[i as usize] != NONE;
        // Per item: bit 1, a quad's half read alone; bit 2, a build a
        // 4-lane build reads.
        let mut mark = vec![0u8; self.items.len()];
        let (mut quads, mut builds, mut joins) = (0, Vec::new(), Vec::new());
        for a in 0..self.items.len() as u32 {
            let Some(b) = mates.lo(a) else {
                if self.items[a as usize].0[1] != NONE && !mated(a) && !lanes(a) {
                    for d in self.reads(a).into_iter().filter(|&d| mated(d)) {
                        mark[d as usize] |= 1;
                    }
                }
                continue;
            };
            quads += 1;
            for (x, y) in self.reads(a).into_iter().zip(self.reads(b)) {
                if x == NONE || mates.lo(x) == Some(y) {
                    continue;
                }
                if lanes(x) && lanes(y) {
                    builds.push((x, y));
                    mark[x as usize] |= 2;
                    mark[y as usize] |= 2;
                } else {
                    joins.push((x, y));
                    for d in [x, y]
                        .into_iter()
                        .filter(|&d| mated(d) && !(mated(x) && mated(y)))
                    {
                        mark[d as usize] |= 1;
                    }
                }
            }
        }
        fn distinct(v: &mut Vec<(u32, u32)>) -> u64 {
            v.sort_unstable();
            v.dedup();
            v.len() as u64
        }
        let marked = |bit: u8| mark.iter().filter(|&&m| m & bit != 0).count() as u64;
        let stores = self.roots.iter().filter(|r| mated(r.2)).count() as u64 / 2;
        (pair + distinct(&mut builds) + 2 * (distinct(&mut joins) + marked(1)))
            .saturating_sub(quads + marked(2) + stores)
    }

    /// What a partner must share with 2-lane item `i` for the two to be
    /// one statement; `None` for a scalar, a build or a literal.
    fn class(&self, i: u32) -> Option<u8> {
        let add_sub = |op| matches!(op, BinOp::Add | BinOp::Sub);
        match self.items[i as usize] {
            ([_, NONE], _) | (_, Lanes(..) | Pending) => None,
            (_, Load(..)) => Some(0),
            (_, Neg(..)) => Some(1),
            (_, Shuffle(..)) => Some(2),
            (_, Op(x, y, ..)) if add_sub(x) && add_sub(y) => Some(3),
            (_, Op(x, ..)) => Some(4 + x as u8),
        }
    }

    /// Pairs 2-lane items into quads: loads of one array two doubles
    /// apart; then, operands before what reads them, an item whose every
    /// operand is lanes 0–1 of a quad (or a build) with an item alike
    /// that reads those quads' lanes 2–3 in the same places; then down
    /// from two stores two doubles apart, operand by operand, for what is
    /// left, and upward once more.
    fn mates(&self) -> Mates {
        let n = self.items.len();
        let mut m = Mates {
            mate: vec![NONE; n],
            hi: vec![false; n],
        };
        let class: Vec<_> = (0..n as u32).map(|i| self.class(i)).collect();
        let wild = |j: u32| match self.items.get(j as usize) {
            Some((_, Lanes(..))) => WILD,
            _ => j,
        };
        let ops: Vec<_> = (0..n as u32).map(|i| self.reads(i).map(wild)).collect();
        // Per kind and operands, the first item alike in print order,
        // chained to the next; the loads by array and subscript.
        let (mut alike, mut next) = (MixMap::default(), vec![NONE; n]);
        let (mut loads, mut at) = (Vec::new(), MixMap::default());
        for &i in self.order.iter().rev() {
            let i = i as usize;
            match (self.items[i].1, class[i]) {
                (Load(k, s, c), Some(_)) => {
                    loads.push((c, i as u32));
                    at.insert((k, s, c), i as u32);
                }
                (_, Some(c)) => next[i] = alike.insert((c, ops[i]), i as u32).unwrap_or(NONE),
                _ => {}
            }
        }
        loads.sort_unstable();
        for (c, a) in loads {
            let Load(k, s, _) = self.items[a as usize].1 else {
                unreachable!("a load")
            };
            let free = |b: &&u32| m.mate[a as usize] == NONE && m.mate[**b as usize] == NONE;
            if let Some(&b) = at.get(&(k, s, c + 2)).filter(free) {
                m.pair(a, b);
            }
        }
        let grow = |m: &mut Mates| {
            for &a in &self.order {
                let Some(c) = class[a as usize].filter(|&c| c > 0 && m.mate[a as usize] == NONE)
                else {
                    continue;
                };
                let [Some(x), Some(y)] =
                    ops[a as usize].map(|o| if o >= WILD { Some(o) } else { m.lo(o) })
                else {
                    continue;
                };
                let Some(&b) = alike.get(&(c, [x, y])).filter(|_| x.min(y) < WILD) else {
                    continue;
                };
                let mut chain = std::iter::successors(Some(b), |&b| {
                    Some(next[b as usize]).filter(|&b| b != NONE)
                });
                if let Some(b) = chain.find(|&b| b != a && m.mate[b as usize] == NONE) {
                    m.pair(a, b);
                }
            }
        };
        grow(&mut m);
        let stored: MixMap<_, u32> = (self.roots.iter())
            .filter(|r| self.items[r.2 as usize].0[1] != NONE)
            .filter_map(|&(base, c, i)| base.map(|(k, s)| ((k, s, c), i)))
            .collect();
        let mut down = Vec::new();
        for &(base, c, a) in &self.roots {
            down.extend(
                base.and_then(|(k, s)| stored.get(&(k, s, c + 2)))
                    .map(|&b| (a, b)),
            );
            while let Some((a, b)) = down.pop() {
                let free = |i: u32| i < WILD && m.mate[i as usize] == NONE;
                if a == b || !free(a) || !free(b) || class[a as usize] != class[b as usize] {
                    continue;
                }
                let fits = match self.items[a as usize].1 {
                    Load(k, s, i) => self.items[b as usize].1 == Load(k, s, i + 2),
                    _ => class[a as usize].is_some(),
                };
                if fits {
                    m.pair(a, b);
                    let (x, y) = (ops[a as usize], ops[b as usize]);
                    down.extend([(x[0], y[0]), (x[1], y[1])]);
                }
            }
        }
        grow(&mut m);
        m
    }

    /// The run on `mates`' quads from name `first` on, roots in order and
    /// each after what it reads, as [`print`](Self::print) does, and the
    /// next name; `None` when a quad reads itself through other quads.
    fn print_quads(&mut self, mates: &Mates, first: u32, pad: &str) -> Option<(PackedRun, u32)> {
        let n = self.items.len();
        (self.name, self.quad) = (vec![NONE; n], vec![(NONE, 0); n]);
        let (run, made) = (PackedRun::default(), MixMap::default());
        let mut q = QuadText {
            mates,
            pad,
            next: first,
            run,
            state: vec![0; n],
            made,
        };
        // Room for the pair form's text too, which follows under `#else`.
        q.run.text.reserve(80 * self.nodes.len());
        q.run.text.push_str("#if defined(__AVX__)\n");
        let at: MixMap<_, usize> = (self.roots.iter().enumerate())
            .filter_map(|(r, &(base, c, _))| base.map(|(k, s)| ((k, s, c), r)))
            .collect();
        let mut done = vec![false; self.roots.len()];
        for r in 0..self.roots.len() {
            let (base, idx, root) = self.roots[r];
            let mut stack = vec![(mates.unit(root), false)];
            while let Some((u, expanded)) = stack.pop() {
                if expanded {
                    self.unit_statement(u, &mut q);
                    q.state[u as usize] = 2;
                    continue;
                } else if q.state[u as usize] != 0 {
                    continue;
                }
                q.state[u as usize] = 1;
                stack.push((u, true));
                let b = mates.mate[u as usize];
                let [[l, r], [l2, r2]] =
                    [u, b].map(|i| if i == NONE { [NONE; 2] } else { self.reads(i) });
                for w in [l, r, l2, r2]
                    .into_iter()
                    .rev()
                    .filter(|&d| d != NONE)
                    .map(|d| mates.unit(d))
                {
                    match q.state[w as usize] {
                        0 => stack.push((w, false)),
                        1 => return None,
                        _ => {}
                    }
                }
            }
            // Both halves of a quad in place: one 32-byte store.
            let (quad, lane) = self.quad[root as usize];
            let other = if lane == 0 { idx + 2 } else { idx - 2 };
            let other = base.and_then(|(k, s)| at.get(&(k, s, other)));
            match other.filter(|&&o| !done[r] && self.roots[o].2 == mates.mate[root as usize]) {
                Some(&o) => {
                    let ((kind, s), t) = (base.expect("a store"), &mut q.run.text);
                    let _ = write!(t, "{pad}{}", WIDE.store);
                    self.element(t, kind, s, idx.min(self.roots[o].1));
                    let _ = writeln!(t, " = v{quad};");
                    done[o] = true;
                    q.run.stats.quad_stmts += 1;
                }
                None if !done[r] => {
                    if self.items[root as usize].0[1] != NONE {
                        self.half(root, &mut q);
                    }
                    self.store(r, &mut q.run, pad);
                }
                None => {}
            }
        }
        Some((q.run, q.next))
    }

    /// Prints the statement of unit `u`: a quad's, or its item's as the
    /// pair form prints it, after the 2-lane values it reads. A build or
    /// literal is printed where a 2-lane statement first reads it.
    fn unit_statement(&mut self, u: u32, q: &mut QuadText) {
        let (b, ([_, lane1], recipe)) = (q.mates.mate[u as usize], self.items[u as usize]);
        if b == NONE {
            if lane1 != NONE && matches!(recipe, Lanes(..)) {
                return;
            }
            for d in self
                .reads(u)
                .into_iter()
                .filter(|&d| d != NONE && lane1 != NONE)
            {
                self.half(d, q);
            }
            self.name[u as usize] = q.next;
            q.next += u32::from(self.statement(u, &mut q.run, q.pad));
            return;
        }
        let ([l, r], [l2, r2]) = (self.reads(u), self.reads(b));
        let (x, y) = (self.both(l, l2, q), self.both(r, r2, q));
        let (t, v) = (&mut q.run.text, q.next);
        let _ = write!(t, "{}{}{v} = ", q.pad, WIDE.decl);
        let _ = match (recipe, self.items[b as usize].1) {
            (Load(kind, s, c), _) => {
                t.push_str(WIDE.load);
                self.element(t, kind, s, c);
                Ok(())
            }
            (Op(o0, o1, ..), Op(o2, o3, ..)) if [o1, o2, o3] == [o0; 3] => {
                write!(t, "v{x} {} v{y}", bin_sym(o0))
            }
            // Each lane `l - r` or `l + r`: lanes 0–3 of one, 4–7 of the other.
            (Op(o0, o1, ..), Op(o2, o3, ..)) => {
                let [i, j, k, l] = [(o0, 0), (o1, 1), (o2, 2), (o3, 3)]
                    .map(|(o, k)| k + 4 * usize::from(o == BinOp::Add));
                write!(
                    t,
                    "__builtin_shufflevector(v{x} - v{y}, v{x} + v{y}, {i}, {j}, {k}, {l})"
                )
            }
            (Neg(m0, _), Neg(m1, _)) => {
                let [i, j, k, l] =
                    [m0 & 1, m0 & 2, m1 & 1, m1 & 2].map(|m| if m != 0 { "SPL_SIGN" } else { "0" });
                write!(
                    t,
                    "(spl_v4d)((spl_v4l)v{x} ^ (spl_v4l){{{i}, {j}, {k}, {l}}})"
                )
            }
            (Shuffle(_, i, j), Shuffle(_, k, l)) => {
                write!(
                    t,
                    "__builtin_shufflevector(v{x}, v{x}, {i}, {j}, {}, {})",
                    k + 2,
                    l + 2
                )
            }
            _ => unreachable!("the halves of a quad are alike"),
        };
        t.push_str(";\n");
        (self.quad[u as usize], self.quad[b as usize], q.next) = ((v, 0), (v, 2), v + 1);
        q.run.stats.quad_stmts += 1;
    }

    /// The 2-lane value of vector item `i`: its statement's, lanes 2–3 or
    /// 0–1 of its quad taken out, or its build printed now.
    fn half(&mut self, i: u32, q: &mut QuadText) -> u32 {
        if self.name[i as usize] == NONE {
            let ((quad, lane), v) = (self.quad[i as usize], q.next);
            (self.name[i as usize], q.next) = (v, v + 1);
            if quad == NONE {
                self.statement(i, &mut q.run, q.pad);
            } else {
                let shuffle = format!(
                    "__builtin_shufflevector(v{quad}, v{quad}, {lane}, {})",
                    lane + 1
                );
                let _ = writeln!(q.run.text, "{}spl_v2d v{v} = {shuffle};", q.pad);
                q.run.stats.quad_joins += 1;
            }
        }
        self.name[i as usize]
    }

    /// The 4-lane value of items `a` (lanes 0–1) and `b`: their quad, a
    /// build of two builds or literals, or a join of 128-bit halves.
    fn both(&mut self, a: u32, b: u32, q: &mut QuadText) -> u32 {
        if a == NONE || q.mates.lo(a) == Some(b) {
            return self.quad.get(a as usize).map_or(NONE, |h| h.0);
        } else if let Some(&v) = q.made.get(&(a, b)) {
            return v;
        }
        let lanes = match (self.items[a as usize].1, self.items[b as usize].1) {
            (Lanes(l, r), Lanes(l2, r2)) => Some([l, r, l2, r2]),
            _ => None,
        };
        // Else lanes `i, i+1` of `x` beside lanes `k, k+1` of `y`, whose
        // lanes number from `w` on; a 2-lane value beside a half of a
        // quad, that half taken out.
        let [x, y, i, k, w] = match (self.quad[a as usize], self.quad[b as usize]) {
            _ if lanes.is_some() => [NONE; 5],
            ((x, i), (y, k)) if x != NONE && y != NONE => [x, y, i.into(), k.into(), 4],
            _ => [self.half(a, q), self.half(b, q), 0, 0, 2],
        };
        let (t, v) = (&mut q.run.text, q.next);
        let _ = write!(t, "{}{}{v} = ", q.pad, WIDE.decl);
        if let Some(lanes) = lanes {
            t.push_str(WIDE.build);
            for (k, i) in lanes.into_iter().enumerate() {
                t.push_str(if k > 0 { ", " } else { "" });
                self.value(i, t);
            }
            t.push_str("};\n");
            q.run.stats.quad_stmts += 1;
        } else {
            let (j, l, m) = (i + 1, w + k, w + k + 1);
            let _ = writeln!(
                t,
                "__builtin_shufflevector(v{x}, v{y}, {i}, {j}, {l}, {m});"
            );
            q.run.stats.quad_joins += 1;
        }
        q.made.insert((a, b), v);
        q.next = v + 1;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spl_icode::{Affine, VecRef};

    const I0: LoopVar = LoopVar(0);
    const I1: LoopVar = LoopVar(1);

    fn at(kind: VecKind, terms: &[(i64, LoopVar)], c: i64) -> Place {
        let terms = terms.to_vec();
        Place::Vec(VecRef {
            kind,
            idx: Affine { c, terms },
        })
    }

    fn x(terms: &[(i64, LoopVar)], c: i64) -> Value {
        Value::Place(at(VecKind::In, terms, c))
    }

    fn y(terms: &[(i64, LoopVar)], c: i64) -> Place {
        at(VecKind::Out, terms, c)
    }

    fn bin(op: BinOp, dst: Place, a: Value, b: Value) -> Instr {
        Instr::Bin { op, dst, a, b }
    }

    fn copy(dst: Place, a: Value) -> Instr {
        Instr::Un {
            op: UnOp::Copy,
            dst,
            a,
        }
    }

    /// The run of all of `instrs`, printed as a loop body one level in;
    /// `wide`, two iterations of `i0` per vector.
    fn packed_as(instrs: Vec<Instr>, wide: bool) -> Option<String> {
        let prog = IProgram {
            instrs,
            ..IProgram::empty()
        };
        let wide = wide.then_some(Wide { var: I0, copy: &[] });
        let run = pack(
            &prog,
            0..prog.instrs.len(),
            &[0; 4],
            &mut 0,
            "    ",
            wide,
            false,
        )?;
        Some(run.text)
    }

    fn packed(instrs: Vec<Instr>) -> Option<String> {
        packed_as(instrs, false)
    }

    /// The run of all of `instrs` outside any loop, printed as
    /// [`packed_as`] prints it, and its statements two items per 32-byte
    /// vector (`None`: the pair form
    /// alone), each a line without its indent.
    fn quads(instrs: Vec<Instr>) -> (String, Option<Vec<String>>) {
        let prog = IProgram {
            instrs,
            ..IProgram::empty()
        };
        let all = 0..prog.instrs.len();
        let run = pack(&prog, all, &[0; 8], &mut 0, "    ", None, true).expect("a run");
        let Some(rest) = run.text.strip_prefix("#if defined(__AVX__)\n") else {
            return (run.text, None);
        };
        let (avx, pairs) = rest.split_once("#else\n").expect("an #else");
        let pairs = pairs.strip_suffix("#endif\n").expect("an #endif");
        let lines = avx.lines().map(|l| l.trim().to_string()).collect();
        (pairs.to_string(), Some(lines))
    }

    /// `y[c..c+2] = x[a..a+2] op x[b..b+2]`, lane by lane.
    fn pair(op: BinOp, c: i64, a: i64, b: i64) -> [Instr; 2] {
        [0, 1].map(|k| bin(op, y(&[], c + k), x(&[], a + k), x(&[], b + k)))
    }

    #[test]
    fn a_complex_under_loop_terms_is_one_load_and_one_store() {
        let e = [(2, I0)];
        let text = packed(vec![
            bin(BinOp::Add, y(&e, 4), x(&e, 4), x(&e, 6)),
            bin(BinOp::Add, y(&e, 5), x(&e, 5), x(&e, 7)),
        ]);
        assert_eq!(
            text.as_deref(),
            Some(
                "    spl_v2d v0 = *(const spl_v2du *)&x[2*i0+4];\n\
                 \x20   spl_v2d v1 = *(const spl_v2du *)&x[2*i0+6];\n\
                 \x20   spl_v2d v2 = v0 + v1;\n\
                 \x20   *(spl_v2du *)&y[2*i0+4] = v2;\n"
            )
        );
    }

    #[test]
    fn equal_constants_under_different_terms_never_pair() {
        let mut p = Packer::default();
        let (s, u) = (p.subscript(&[(2, I0)]), p.subscript(&[(2, I1)]));
        let re = p.push(Elem(VecKind::In, s, 4));
        let im = p.push(Elem(VecKind::In, s, 5));
        let other = p.push(Elem(VecKind::In, u, 5));
        p.home = vec![(NONE, 0); p.nodes.len()];
        assert!(matches!(p.decide(re, im), Load(VecKind::In, t, 4) if t == s));
        assert!(matches!(p.decide(re, other), Lanes(..)));
        // Two stores to one array under different terms may alias: the
        // run stays scalar.
        let (e, f) = ([(2, I0)], [(2, I1)]);
        let run = vec![
            bin(BinOp::Add, y(&e, 0), x(&e, 0), x(&e, 2)),
            bin(BinOp::Add, y(&f, 1), x(&e, 1), x(&e, 3)),
        ];
        assert_eq!(packed(run), None);
    }

    #[test]
    fn a_negative_even_constant_seeds_a_pair_and_an_odd_one_does_not() {
        let e = [(4, I0)];
        let run: Vec<Instr> = (-3..=0)
            .map(|c| bin(BinOp::Mul, y(&e, c), x(&e, c + 8), x(&e, c + 12)))
            .collect();
        let prog = IProgram {
            instrs: run,
            ..IProgram::empty()
        };
        let p = Packer::new(&prog.instrs, &[], prog.instrs.len(), None).expect("a packable run");
        let stores: Vec<(i64, bool)> = p
            .roots
            .iter()
            .map(|&(_, c, item)| (c, p.items[item as usize].0[1] != NONE))
            .collect();
        assert_eq!(stores, [(-3, false), (-2, true), (0, false)]);
    }

    #[test]
    fn a_mirrored_affine_pair_is_one_shuffle() {
        let (e, f) = ([(2, I0)], [(4, I0)]);
        let text = packed(vec![copy(y(&e, 0), x(&f, 1)), copy(y(&e, 1), x(&f, 0))]);
        assert_eq!(
            text.as_deref(),
            Some(
                "    spl_v2d v0 = *(const spl_v2du *)&x[4*i0];\n\
                 \x20   spl_v2d v1 = __builtin_shufflevector(v0, v0, 1, 0);\n\
                 \x20   *(spl_v2du *)&y[2*i0] = v1;\n"
            )
        );
    }

    #[test]
    fn a_wide_body_widens_each_item_of_the_pair_form() {
        let (e, f, none) = ([(2, I0)], [(2, I0), (16, I1)], []);
        let d = |c| Value::Place(at(VecKind::Table(0), &e, c));
        let lit = |c| Value::Const(spl_numeric::Complex::real(c));
        let instrs = vec![
            // A pair times one stepping element on both lanes: a build.
            bin(BinOp::Mul, y(&f, 0), x(&e, 0), d(0)),
            bin(BinOp::Mul, y(&f, 1), x(&e, 1), d(0)),
            // Plus a pair that does not step: a broadcast.
            bin(BinOp::Add, y(&f, 4), x(&e, 4), x(&none, 0)),
            bin(BinOp::Add, y(&f, 5), x(&e, 5), x(&none, 1)),
            // Times i: a shuffle and a sign mask.
            Instr::Un {
                op: UnOp::Neg,
                dst: y(&f, 8),
                a: x(&e, 5),
            },
            copy(y(&f, 9), x(&e, 4)),
            // Times two literals, and a sub beside an add.
            bin(BinOp::Mul, y(&f, 12), x(&e, 0), lit(0.5)),
            bin(BinOp::Mul, y(&f, 13), x(&e, 1), lit(0.25)),
            bin(BinOp::Sub, y(&f, 20), x(&e, 0), x(&e, 4)),
            bin(BinOp::Add, y(&f, 21), x(&e, 1), x(&e, 5)),
        ];
        let pair = packed_as(instrs.clone(), false).expect("a pair body");
        let wide = packed_as(instrs, true).expect("a wide body");
        // Statement for statement the pair form's, iteration `i+1`'s
        // lanes after `i`'s.
        let want = [
            "spl_v4d v0 = *(const spl_v4du *)&x[2*i0];",
            "spl_v4d v1 = (spl_v4d){d0[2*i0], d0[2*i0], d0[2*i0+2], d0[2*i0+2]};",
            "spl_v4d v2 = v0 * v1;",
            "*(spl_v4du *)&y[2*i0+16*i1] = v2;",
            "spl_v4d v3 = *(const spl_v4du *)&x[2*i0+4];",
            "spl_v4d v4 = (spl_v4d){x[0], x[1], x[0], x[1]};",
            "spl_v4d v5 = v3 + v4;",
            "*(spl_v4du *)&y[2*i0+16*i1+4] = v5;",
            "spl_v4d v6 = __builtin_shufflevector(v3, v3, 1, 0, 3, 2);",
            "spl_v4d v7 = (spl_v4d)((spl_v4l)v6 ^ (spl_v4l){SPL_SIGN, 0, SPL_SIGN, 0});",
            "*(spl_v4du *)&y[2*i0+16*i1+8] = v7;",
            "spl_v4d v8 = (spl_v4d){0.5, 0.25, 0.5, 0.25};",
            "spl_v4d v9 = v0 * v8;",
            "*(spl_v4du *)&y[2*i0+16*i1+12] = v9;",
            "spl_v4d v10 = __builtin_shufflevector(v0 - v3, v0 + v3, 0, 5, 2, 7);",
            "*(spl_v4du *)&y[2*i0+16*i1+20] = v10;",
        ];
        assert_eq!(wide.lines().map(str::trim).collect::<Vec<_>>(), want);
        assert_eq!(pair.lines().count(), want.len(), "{pair}");
    }

    #[test]
    fn a_lane_nests_leaf_splits_or_merges_the_stores_that_do_not_step_by_a_pair() {
        let (e, f, t) = ([(2, I0)], [(8, I0)], [(2, I1)]);
        let instrs = vec![
            // y at 8*i0 + 0..3: iteration i0+1's four doubles 8 on, one
            // pair 2 after the other, merged.
            copy(y(&f, 0), x(&e, 0)),
            copy(y(&f, 1), x(&e, 1)),
            bin(BinOp::Add, y(&f, 2), x(&e, 0), x(&e, 4)),
            bin(BinOp::Add, y(&f, 3), x(&e, 1), x(&e, 5)),
            // A pair of its own: two 16-byte halves.
            bin(BinOp::Sub, y(&f, 6), x(&e, 0), x(&e, 4)),
            bin(BinOp::Sub, y(&f, 7), x(&e, 1), x(&e, 5)),
            // A temporary kept per lane: lane 1's copy 16 on.
            copy(at(VecKind::Temp(1), &t, 0), x(&e, 4)),
            copy(at(VecKind::Temp(1), &t, 1), x(&e, 5)),
        ];
        let prog = IProgram {
            instrs,
            ..IProgram::empty()
        };
        let wide = Wide {
            var: I0,
            copy: &[0, 16],
        };
        let run = pack(&prog, 0..8, &[0; 4], &mut 0, "", Some(wide), false).expect("a leaf");
        let want = [
            "spl_v4d v0 = *(const spl_v4du *)&x[2*i0];",
            "spl_v4d v1 = *(const spl_v4du *)&x[2*i0+4];",
            "spl_v4d v2 = v0 + v1;",
            "*(spl_v4du *)&y[8*i0] = __builtin_shufflevector(v0, v2, 0, 1, 4, 5);",
            "*(spl_v4du *)&y[8*i0+8] = __builtin_shufflevector(v0, v2, 2, 3, 6, 7);",
            "spl_v4d v3 = v0 - v1;",
            "*(spl_v2du *)&y[8*i0+6] = __builtin_shufflevector(v3, v3, 0, 1);",
            "*(spl_v2du *)&y[8*i0+14] = __builtin_shufflevector(v3, v3, 2, 3);",
            "*(spl_v2du *)&t1[2*i1] = __builtin_shufflevector(v1, v1, 0, 1);",
            "*(spl_v2du *)&t1[2*i1+16] = __builtin_shufflevector(v1, v1, 2, 3);",
        ];
        assert_eq!(run.text.lines().collect::<Vec<_>>(), want);
        // A load that steps by 4, or one of a temporary kept per lane, has
        // no place in lanes 2–3.
        let strided = vec![copy(y(&f, 0), x(&f, 0)), copy(y(&f, 1), x(&f, 1))];
        let kept = vec![
            copy(y(&f, 0), Value::Place(at(VecKind::Temp(1), &t, 0))),
            copy(y(&f, 1), Value::Place(at(VecKind::Temp(1), &t, 1))),
        ];
        for instrs in [strided, kept] {
            let prog = IProgram {
                instrs,
                ..IProgram::empty()
            };
            assert!(pack(&prog, 0..2, &[], &mut 0, "", Some(wide), false).is_none());
        }
    }

    #[test]
    fn scalar_lanes_and_stores_a_pair_apart_never_print_wide() {
        let e = [(2, I0)];
        // Lanes of their own: `x1 * x5` beside `x0 - x4`.
        let lone = vec![
            bin(BinOp::Add, y(&e, 0), x(&e, 0), x(&e, 4)),
            bin(BinOp::Add, y(&e, 1), x(&e, 1), x(&e, 5)),
            bin(BinOp::Sub, y(&e, 4), x(&e, 0), x(&e, 4)),
            bin(BinOp::Mul, y(&e, 5), x(&e, 1), x(&e, 5)),
        ];
        assert!(packed_as(lone.clone(), false).is_some());
        assert_eq!(packed_as(lone, true), None);
        // (y2, y3) is stored by iteration `i` second, `i+1` first.
        let apart = vec![
            bin(BinOp::Add, y(&e, 0), x(&e, 0), x(&e, 4)),
            bin(BinOp::Add, y(&e, 1), x(&e, 1), x(&e, 5)),
            bin(BinOp::Sub, y(&e, 2), x(&e, 0), x(&e, 4)),
            bin(BinOp::Sub, y(&e, 3), x(&e, 1), x(&e, 5)),
        ];
        assert!(packed_as(apart.clone(), false).is_some());
        assert_eq!(packed_as(apart, true), None);
    }

    #[test]
    fn loads_two_doubles_apart_seed_quads_and_what_reads_them_alike_joins_them() {
        use BinOp::{Add, Sub};
        // y[0..4] = x[0..4] + x[4..8], y[4..8] = x[0..4] - x[4..8].
        let run = [
            pair(Add, 0, 0, 4),
            pair(Add, 2, 2, 6),
            pair(Sub, 4, 0, 4),
            pair(Sub, 6, 2, 6),
        ];
        let (pairs, avx) = quads(run.concat());
        assert_eq!(Some(pairs), packed(run.concat()));
        let want = [
            "spl_v4d v0 = *(const spl_v4du *)&x[0];",
            "spl_v4d v1 = *(const spl_v4du *)&x[4];",
            "spl_v4d v2 = v0 + v1;",
            "*(spl_v4du *)&y[0] = v2;",
            "spl_v4d v3 = v0 - v1;",
            "*(spl_v4du *)&y[4] = v3;",
        ];
        assert_eq!(avx.expect("quads"), want);
        // A `+` beside a `-`: one blend of four lanes.
        let (_, avx) = quads([pair(Add, 0, 0, 4), pair(Sub, 2, 2, 6)].concat());
        let blend = "spl_v4d v2 = __builtin_shufflevector(v0 - v1, v0 + v1, 4, 5, 2, 3);";
        assert_eq!(avx.expect("quads")[2], blend);
    }

    #[test]
    fn operands_from_halves_of_two_quads_are_joined() {
        use BinOp::{Add, Mul};
        // (x2 * x4, x6 * x0): lanes 2–3 of both quads, then 0–1 of both;
        // beside it a sum of the quads, so that the joins pay.
        let run = [
            pair(Mul, 0, 2, 4),
            pair(Mul, 2, 6, 0),
            pair(Add, 4, 0, 4),
            pair(Add, 6, 2, 6),
        ];
        let (_, avx) = quads(run.concat());
        let want = [
            "spl_v4d v0 = *(const spl_v4du *)&x[0];",
            "spl_v4d v1 = *(const spl_v4du *)&x[4];",
            "spl_v4d v2 = __builtin_shufflevector(v0, v1, 2, 3, 6, 7);",
            "spl_v4d v3 = __builtin_shufflevector(v1, v0, 0, 1, 4, 5);",
            "spl_v4d v4 = v2 * v3;",
            "*(spl_v4du *)&y[0] = v4;",
            "spl_v4d v5 = v0 + v1;",
            "*(spl_v4du *)&y[4] = v5;",
        ];
        assert_eq!(avx.expect("quads"), want);
    }

    #[test]
    fn an_odd_item_stays_on_pairs_and_reads_a_half_taken_out() {
        use BinOp::Mul;
        // A quad product, and (x3, x2) swapped: a 2-lane shuffle of the
        // load's lanes 2–3, with no partner.
        let swap = [copy(y(&[], 4), x(&[], 3)), copy(y(&[], 5), x(&[], 2))];
        let (_, avx) = quads([&pair(Mul, 0, 0, 4)[..], &pair(Mul, 2, 2, 6), &swap].concat());
        let want = [
            "spl_v4d v0 = *(const spl_v4du *)&x[0];",
            "spl_v4d v1 = *(const spl_v4du *)&x[4];",
            "spl_v4d v2 = v0 * v1;",
            "*(spl_v4du *)&y[0] = v2;",
            "spl_v2d v3 = __builtin_shufflevector(v0, v0, 2, 3);",
            "spl_v2d v4 = __builtin_shufflevector(v3, v3, 1, 0);",
            "*(spl_v2du *)&y[4] = v4;",
        ];
        assert_eq!(avx.expect("quads"), want);
    }

    #[test]
    fn a_quad_stored_to_pairs_not_two_doubles_apart_splits_its_store() {
        use BinOp::{Add, Mul};
        // The sums stored six doubles apart, the products in place.
        let run = [
            pair(Add, 0, 0, 4),
            pair(Mul, 2, 0, 4),
            pair(Mul, 4, 2, 6),
            pair(Add, 6, 2, 6),
        ];
        let (_, avx) = quads(run.concat());
        let want = [
            "spl_v4d v0 = *(const spl_v4du *)&x[0];",
            "spl_v4d v1 = *(const spl_v4du *)&x[4];",
            "spl_v4d v2 = v0 + v1;",
            "spl_v2d v3 = __builtin_shufflevector(v2, v2, 0, 1);",
            "*(spl_v2du *)&y[0] = v3;",
            "spl_v4d v4 = v0 * v1;",
            "*(spl_v4du *)&y[2] = v4;",
            "spl_v2d v5 = __builtin_shufflevector(v2, v2, 2, 3);",
            "*(spl_v2du *)&y[6] = v5;",
        ];
        assert_eq!(avx.expect("quads"), want);
    }

    #[test]
    fn a_run_whose_quads_take_no_fewer_statements_prints_pairs_alone() {
        use BinOp::{Add, Mul};
        // Each op reads both halves of one quad, and the two differ: every
        // half is taken out, ten statements against eight.
        let run = [pair(Add, 0, 0, 2), pair(Mul, 2, 4, 6)].concat();
        let (pairs, avx) = quads(run.clone());
        assert_eq!(avx, None);
        assert_eq!(Some(pairs), packed(run));
    }

    #[test]
    fn quads_that_read_each_other_in_a_circle_leave_the_pair_form_alone() {
        use BinOp::Add;
        let f = |k| Place::F(k);
        let fv = |k| Value::f(k);
        let lanes =
            |dst: &dyn Fn(i64) -> Place, a: &dyn Fn(i64) -> Value, b: &dyn Fn(i64) -> Value| {
                [0, 1].map(|k| bin(Add, dst(k), a(k), b(k)))
            };
        // d = x4 + x6, a = x0 + x2: no quad reads them bottom up. Stored
        // beside them, b = d + x4 beside a and c = a + x6 beside d: the
        // quad (a, b) reads (c, d), which reads it.
        let run = [
            lanes(&|k| f(k as u32), &|k| x(&[], 4 + k), &|k| x(&[], 6 + k)),
            lanes(&|k| f(2 + k as u32), &|k| x(&[], k), &|k| x(&[], 2 + k)),
            [copy(y(&[], 0), fv(2)), copy(y(&[], 1), fv(3))],
            lanes(&|k| y(&[], 2 + k), &|k| fv(k as u32), &|k| x(&[], 4 + k)),
            lanes(&|k| y(&[], 4 + k), &|k| fv(2 + k as u32), &|k| {
                x(&[], 6 + k)
            }),
            [copy(y(&[], 6), fv(0)), copy(y(&[], 7), fv(1))],
        ]
        .concat();
        let prog = IProgram {
            instrs: run.clone(),
            ..IProgram::empty()
        };
        let mut p = Packer::new(&prog.instrs, &[0; 4], run.len(), None).expect("a run");
        p.quads = true;
        p.print(0..run.len(), &mut 0, "").expect("pairs");
        let m = p.mates();
        let on = (0..m.mate.len())
            .filter(|&i| m.mate[i] != NONE && !m.hi[i])
            .filter(|&i| !matches!(p.items[i].1, Load(..)));
        assert_eq!(on.count(), 2, "(a, b) and (c, d)");
        assert!(p.print_quads(&m, 0, "").is_none(), "a circle printed");
        assert_eq!(self::quads(run).1, None);
    }
}
