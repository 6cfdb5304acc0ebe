//! Compilation of synthesized plans to fused native chunk kernels.
//!
//! The interpreter engine of [`crate::exec`] walks AST terms per
//! element, which costs an order of magnitude in dispatch overhead at
//! Figure-9 scale. This module lowers a [`Parallelization`] — the
//! transformed program's loop nest plus the synthesized join `⊙` — to
//! specialized closure trees over a register file of `i64` scalars and a
//! flattened, offset-indexed view of the main input ([`FlatInput`]), so
//! a chunk summarization is one fused loop with no `Value` allocation
//! on the hot path.
//!
//! One lowering emits three tiers of code, chosen per loop and per
//! node at compile time. Each tier is a peephole: it rewrites a pure
//! computation over the same inputs, so results and errors do not
//! depend on which tier ran.
//!
//! 1. **Slice loops.** `for v in 0 .. len(P)`, where `P` is `a`, `a[i]`
//!    or `a[i][j]` and the body assigns neither `v` nor `P`'s index
//!    variables, walks `P`'s range of the offset tables. The bound is
//!    resolved once, so a bad `P` raises the interpreter's error. A
//!    cursor holds the current row (a register the current element), so
//!    loads rooted at `P[v]` need no index evaluation and no bounds
//!    check. A body wrapped in `if (v > 0)` starts at the second child.
//! 2. **Reduction folds.** A slice loop whose body only updates distinct
//!    accumulators `r = r ⊕ P[v]` (`⊕` wrapping `+`, `min` or `max`),
//!    or whose body is one such loop over the current row, runs as one
//!    native fold over the contiguous `i64` leaves, which LLVM
//!    vectorizes.
//! 3. **Superinstructions.** Everything else is the general path, a
//!    closure tree. Each node is built for the kinds of its operands, so
//!    it reads constants and registers inline and calls only child nodes
//!    that compute. Nodes fuse the shapes synthesized code repeats:
//!    `r = r ⊕ e`, comparisons in conditions, `if (!c)` (branches
//!    swapped) and `if (c) { r = x; }` with `x` a constant or register (a
//!    branch-free select). They test for a runtime error only after a
//!    node that can raise one (a division, a remainder or a
//!    bounds-checked load).
//!
//! The `compile_plan` trace event reports how many loops took the first
//! two tiers (`slice_loops`, `folds`).
//!
//! The compiler is deliberately partial: it covers the scalar-state
//! plan shapes the Figure-9 suite produces (single `seq<int>^{1..3}`
//! input, constant state initializers, no array-shaped state) and
//! reports everything else as [`CompileError`], at which point
//! [`crate::exec::run_plan_checked`] falls back to the interpreter and emits a
//! `compile_fallback` trace event. The interpreter remains the semantic
//! oracle: compiled kernels replicate its wrapping arithmetic,
//! short-circuit booleans, lazy conditionals and runtime error messages
//! exactly, and the differential suites assert byte-identical results.

#![warn(clippy::unwrap_used)]

use crate::schema::{Outcome, Parallelization};
use parsynt_lang::ast::{BinOp, Expr, Program, Stmt, Sym, UnOp};
use parsynt_lang::functional::RightwardFn;
use parsynt_lang::interp::StateVec;
use parsynt_lang::{Ty, Value};
use parsynt_trace as trace;
use std::collections::HashMap;
use std::fmt;

/// Why a plan could not be compiled (the fallback reason surfaced in the
/// `compile_fallback` trace event).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    reason: String,
}

impl CompileError {
    fn new(reason: impl Into<String>) -> Self {
        CompileError {
            reason: reason.into(),
        }
    }

    /// The human-readable reason.
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan not compilable: {}", self.reason)
    }
}

impl std::error::Error for CompileError {}

type CResult<T> = std::result::Result<T, CompileError>;

fn unsupported<T>(reason: impl Into<String>) -> CResult<T> {
    Err(CompileError::new(reason))
}

/// A flattened, offset-indexed view of the main input: the leaf scalars
/// in one contiguous `i64` buffer plus per-level offset tables, so the
/// compiled kernels index with integer arithmetic instead of walking
/// nested [`Value`] vectors.
///
/// * depth 1 — `data[i]` is element `i`;
/// * depth 2 — row `i` is `data[off1[i]..off1[i + 1]]`;
/// * depth 3 — plane `i` spans rows `off1[i]..off1[i + 1]`, and row `r`
///   is `data[off2[r]..off2[r + 1]]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlatInput {
    depth: usize,
    n: usize,
    data: Vec<i64>,
    off1: Vec<usize>,
    off2: Vec<usize>,
}

impl FlatInput {
    /// Flatten `value` as a `depth`-dimensional integer sequence.
    /// Returns `None` when the value does not have that shape (a boolean
    /// leaf, a scalar where a sequence is expected, ...). Empty
    /// sequences are accepted at any level.
    pub fn from_value(value: &Value, depth: usize) -> Option<FlatInput> {
        if !(1..=3).contains(&depth) {
            return None;
        }
        let Value::Seq(outer) = value else {
            return None;
        };
        let mut flat = FlatInput {
            depth,
            n: outer.len(),
            ..FlatInput::default()
        };
        if depth >= 2 {
            flat.off1.push(0);
        }
        if depth == 3 {
            flat.off2.push(0);
        }
        match depth {
            1 => {
                for item in outer {
                    flat.data.push(item.as_int()?);
                }
            }
            2 => {
                for row in outer {
                    let Value::Seq(items) = row else {
                        return None;
                    };
                    for item in items {
                        flat.data.push(item.as_int()?);
                    }
                    flat.off1.push(flat.data.len());
                }
            }
            3 => {
                for plane in outer {
                    let Value::Seq(rows) = plane else {
                        return None;
                    };
                    for row in rows {
                        let Value::Seq(items) = row else {
                            return None;
                        };
                        for item in items {
                            flat.data.push(item.as_int()?);
                        }
                        flat.off2.push(flat.data.len());
                    }
                    flat.off1.push(flat.off2.len() - 1);
                }
            }
            _ => return None,
        }
        Some(flat)
    }

    /// An empty input of the given depth.
    fn empty(depth: usize) -> FlatInput {
        FlatInput {
            depth,
            n: 0,
            data: Vec::new(),
            off1: if depth >= 2 { vec![0] } else { Vec::new() },
            off2: if depth == 3 { vec![0] } else { Vec::new() },
        }
    }

    /// Number of outer-dimension elements.
    pub fn outer_len(&self) -> usize {
        self.n
    }

    /// The nesting depth this view was flattened at.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

/// A compiled state tuple: one `i64` slot per state declaration, in
/// declaration order (booleans stored as 0/1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CState(pub Vec<i64>);

/// Kernel evaluation context: the flattened input, the chunk window
/// (`base`/`rows` over the outer dimension), the scalar register file,
/// the slice-loop cursors, and the first runtime error if any.
struct Ctx<'a> {
    flat: &'a FlatInput,
    base: usize,
    rows: usize,
    regs: Vec<i64>,
    /// One slot per slice loop over rows: the absolute offset-table
    /// index of the loop's current row.
    cur: Vec<usize>,
    err: Option<String>,
}

impl Ctx<'_> {
    #[cold]
    fn fail(&mut self, msg: impl Into<String>) -> i64 {
        if self.err.is_none() {
            self.err = Some(msg.into());
        }
        0
    }

    #[cold]
    fn fail_oob(&mut self, idx: i64, len: usize) -> i64 {
        self.fail(format!("index {idx} out of bounds (len {len})"))
    }

    /// The children of `node` through offset table `table`: table 0 is
    /// the chunk window (the children of the root; `node` is ignored),
    /// tables 1 and 2 are `off1` and `off2`.
    #[inline]
    fn span(&self, table: usize, node: usize) -> (usize, usize) {
        match table {
            0 => (self.base, self.base + self.rows),
            1 => (self.flat.off1[node], self.flat.off1[node + 1]),
            _ => (self.flat.off2[node], self.flat.off2[node + 1]),
        }
    }

    /// The leaf range under the nodes `lo..hi` reached through table
    /// `table`: rows and planes are contiguous in `data`, so a range of
    /// them maps to one slice.
    #[inline]
    fn leaves(&self, table: usize, lo: usize, hi: usize) -> (usize, usize) {
        let (mut lo, mut hi) = (lo, hi);
        for t in table + 1..self.flat.depth {
            let off = if t == 1 {
                &self.flat.off1
            } else {
                &self.flat.off2
            };
            (lo, hi) = (off[lo], off[hi]);
        }
        (lo, hi)
    }
}

type IntOp = Box<dyn Fn(&mut Ctx<'_>) -> i64 + Send + Sync>;
type StmtOp = Box<dyn Fn(&mut Ctx<'_>) + Send + Sync>;

fn run_ops(ops: &[StmtOp], ctx: &mut Ctx<'_>) {
    for op in ops {
        op(ctx);
    }
}

#[inline]
fn in_bounds(idx: i64, len: usize) -> Option<usize> {
    usize::try_from(idx).ok().filter(|&i| i < len)
}

/// Constant-fold a closed expression (booleans as 0/1). Division and
/// remainder by a constant zero are left unfolded so the runtime error
/// surfaces exactly where the interpreter raises it.
fn const_fold(e: &Expr) -> Option<i64> {
    match e {
        Expr::Int(n) => Some(*n),
        Expr::Bool(b) => Some(i64::from(*b)),
        Expr::Unary(UnOp::Neg, a) => Some(const_fold(a)?.wrapping_neg()),
        Expr::Unary(UnOp::Not, a) => Some(i64::from(const_fold(a)? == 0)),
        Expr::Binary(op, a, b) => {
            let a = const_fold(a)?;
            let b = const_fold(b)?;
            if matches!(op, BinOp::Div | BinOp::Rem) && b == 0 {
                return None;
            }
            Some(eval_pure_binop(*op, a, b))
        }
        Expr::Ite(c, t, e2) => {
            if const_fold(c)? != 0 {
                const_fold(t)
            } else {
                const_fold(e2)
            }
        }
        _ => None,
    }
}

/// Evaluate a binary operator on `i64` operands. `Div`/`Rem` must be
/// guarded by the caller (zero divisors wrap to the dividend here only
/// because `wrapping_div` would panic; callers never pass them).
fn eval_pure_binop(op: BinOp, a: i64, b: i64) -> i64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => a.wrapping_div(b),
        BinOp::Rem => a.wrapping_rem(b),
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
        BinOp::And => i64::from(a != 0 && b != 0),
        BinOp::Or => i64::from(a != 0 || b != 0),
        BinOp::Eq => i64::from(a == b),
        BinOp::Ne => i64::from(a != b),
        BinOp::Lt => i64::from(a < b),
        BinOp::Le => i64::from(a <= b),
        BinOp::Gt => i64::from(a > b),
        BinOp::Ge => i64::from(a >= b),
    }
}

/// A comparison as the set of orderings it accepts (bit `o + 1` for
/// `Ordering` `o`), so one branch-free test covers all six operators.
fn cmp_mask(op: BinOp) -> Option<u8> {
    Some(match op {
        BinOp::Lt => 0b001,
        BinOp::Eq => 0b010,
        BinOp::Gt => 0b100,
        BinOp::Le => 0b011,
        BinOp::Ge => 0b110,
        BinOp::Ne => 0b101,
        _ => return None,
    })
}

#[inline(always)]
fn cmp_holds(mask: u8, x: i64, y: i64) -> bool {
    (mask >> (x.cmp(&y) as i8 + 1)) & 1 != 0
}

/// Reduce `xs` into `acc` with a wrapping `+`, `min` or `max` — the
/// native loop a reduction fold lowers to, which LLVM vectorizes.
/// Integer `+` (wrapping), `min` and `max` are associative and
/// commutative, so any evaluation order gives the interpreter's result.
fn fold_slice(op: BinOp, acc: i64, xs: &[i64]) -> i64 {
    match op {
        BinOp::Add => xs.iter().fold(acc, |s, &x| s.wrapping_add(x)),
        BinOp::Min => xs.iter().fold(acc, |s, &x| s.min(x)),
        BinOp::Max => xs.iter().fold(acc, |s, &x| s.max(x)),
        _ => unreachable!("fold operators are +, min and max"),
    }
}

/// An operand as a parent node reads it. Parents are built generic over
/// the operand's kind (see [`with_get!`]), so a constant or a register
/// is read inline and only [`IntOp`] operands cost a call.
trait Get: Send + Sync + 'static {
    fn get(&self, ctx: &mut Ctx<'_>) -> i64;
}

struct Const(i64);
struct Reg(usize);

impl Get for Const {
    #[inline(always)]
    fn get(&self, _: &mut Ctx<'_>) -> i64 {
        self.0
    }
}

impl Get for Reg {
    #[inline(always)]
    fn get(&self, ctx: &mut Ctx<'_>) -> i64 {
        ctx.regs[self.0]
    }
}

impl Get for IntOp {
    #[inline(always)]
    fn get(&self, ctx: &mut Ctx<'_>) -> i64 {
        self(ctx)
    }
}

/// A lowered expression, before its parent picks how to read it.
enum Opnd {
    Const(i64),
    /// A register; a slice loop keeps its current element in one.
    Reg(usize),
    /// Anything else: a closure.
    Op(IntOp),
}

impl Get for Opnd {
    /// Read with a runtime dispatch, for nodes off the hot path.
    #[inline]
    fn get(&self, ctx: &mut Ctx<'_>) -> i64 {
        match self {
            Opnd::Const(k) => *k,
            Opnd::Reg(r) => ctx.regs[*r],
            Opnd::Op(f) => f(ctx),
        }
    }
}

/// Bind `$x` to the operand `$o` as its concrete [`Get`] kind and
/// evaluate `$body`, which builds a closure specialized to that kind.
macro_rules! with_get {
    ($o:expr, |$x:ident| $body:expr) => {
        match $o {
            Opnd::Const(k) => {
                let $x = Const(k);
                $body
            }
            Opnd::Reg(r) => {
                let $x = Reg(r);
                $body
            }
            Opnd::Op(f) => {
                let $x = f;
                $body
            }
        }
    };
}

/// A pure binary operator (not `&&`/`||`, `/`, `%`) over two operands
/// of known kinds. `a` evaluates before `b`, like the interpreter.
fn pure<A: Get, B: Get>(op: BinOp, a: A, b: B) -> IntOp {
    macro_rules! arm {
        ($f:expr) => {
            Box::new(move |ctx| {
                let x = a.get(ctx);
                $f(x, b.get(ctx))
            })
        };
    }
    if let Some(mask) = cmp_mask(op) {
        return arm!(|x, y| i64::from(cmp_holds(mask, x, y)));
    }
    match op {
        BinOp::Add => arm!(i64::wrapping_add),
        BinOp::Sub => arm!(i64::wrapping_sub),
        BinOp::Mul => arm!(i64::wrapping_mul),
        BinOp::Min => arm!(std::cmp::min::<i64>),
        BinOp::Max => arm!(std::cmp::max::<i64>),
        op => arm!(|x, y| eval_pure_binop(op, x, y)),
    }
}

/// Lower a binary operator over lowered operands.
fn binary(op: BinOp, a: Opnd, b: Opnd) -> Opnd {
    let lazy = matches!(op, BinOp::And | BinOp::Or) && matches!(b, Opnd::Op(_));
    Opnd::Op(match op {
        BinOp::Div => Box::new(move |ctx| {
            let (x, y) = (a.get(ctx), b.get(ctx));
            if y == 0 {
                ctx.fail("division by zero")
            } else {
                x.wrapping_div(y)
            }
        }),
        BinOp::Rem => Box::new(move |ctx| {
            let (x, y) = (a.get(ctx), b.get(ctx));
            if y == 0 {
                ctx.fail("remainder by zero")
            } else {
                x.wrapping_rem(y)
            }
        }),
        // Short-circuit booleans, like the interpreter (a leaf right
        // operand is pure and cannot fail, so reading it eagerly is
        // unobservable).
        BinOp::And if lazy => Box::new(move |ctx| {
            if a.get(ctx) != 0 {
                i64::from(b.get(ctx) != 0)
            } else {
                0
            }
        }),
        BinOp::Or if lazy => Box::new(move |ctx| {
            if a.get(ctx) == 0 {
                i64::from(b.get(ctx) != 0)
            } else {
                1
            }
        }),
        op => with_get!(a, |x| with_get!(b, |y| pure(op, x, y))),
    })
}

/// `regs[reg] = value`.
fn set<A: Get>(reg: usize, value: A) -> StmtOp {
    Box::new(move |ctx| {
        let v = value.get(ctx);
        ctx.regs[reg] = v;
    })
}

/// `regs[reg] = regs[reg] ⊕ value` for a pure `⊕`.
fn update<A: Get>(reg: usize, op: BinOp, value: A) -> StmtOp {
    macro_rules! arm {
        ($f:expr) => {
            Box::new(move |ctx| {
                let v = value.get(ctx);
                ctx.regs[reg] = $f(ctx.regs[reg], v);
            })
        };
    }
    match op {
        BinOp::Add => arm!(i64::wrapping_add),
        BinOp::Sub => arm!(i64::wrapping_sub),
        BinOp::Mul => arm!(i64::wrapping_mul),
        BinOp::Min => arm!(std::cmp::min::<i64>),
        BinOp::Max => arm!(std::cmp::max::<i64>),
        op => arm!(|x, y| eval_pure_binop(op, x, y)),
    }
}

/// How a conditional tests its condition.
enum Cond {
    /// `x != 0`.
    Truthy(Opnd),
    /// A comparison `x ⋈ y` (see [`cmp_mask`]).
    Cmp(u8, Opnd, Opnd),
}

/// A condition over operands of known kinds.
trait Test: Send + Sync + 'static {
    fn test(&self, ctx: &mut Ctx<'_>) -> bool;
}

struct Truthy<A>(A);
struct Compare<A, B>(u8, A, B);

impl<A: Get> Test for Truthy<A> {
    #[inline(always)]
    fn test(&self, ctx: &mut Ctx<'_>) -> bool {
        self.0.get(ctx) != 0
    }
}

impl<A: Get, B: Get> Test for Compare<A, B> {
    #[inline(always)]
    fn test(&self, ctx: &mut Ctx<'_>) -> bool {
        let x = self.1.get(ctx);
        cmp_holds(self.0, x, self.2.get(ctx))
    }
}

/// Bind `$t` to `$cond` as a [`Test`] over its operands' kinds and
/// evaluate `$body` (see [`with_get!`]).
macro_rules! with_test {
    ($cond:expr, |$t:ident| $body:expr) => {
        match $cond {
            Cond::Truthy(c) => with_get!(c, |c| {
                let $t = Truthy(c);
                $body
            }),
            Cond::Cmp(mask, a, b) => with_get!(a, |a| with_get!(b, |b| {
                let $t = Compare(mask, a, b);
                $body
            })),
        }
    };
}

/// `if (cond) { then_ops } else { else_ops }`. With `check`, a
/// condition that recorded an error runs neither branch.
fn branch<T: Test>(cond: T, check: bool, then_ops: Vec<StmtOp>, else_ops: Vec<StmtOp>) -> StmtOp {
    Box::new(move |ctx| {
        let taken = cond.test(ctx);
        if check && ctx.err.is_some() {
            return;
        }
        run_ops(if taken { &then_ops } else { &else_ops }, ctx);
    })
}

/// `if (cond) { r = x; }` (with `when`, else `if (!cond)`) for a
/// constant or register `x`: a branch-free select. `x` cannot fail and
/// reading it is pure, so reading it unconditionally is unobservable.
fn select<T: Test, X: Get>(cond: T, check: bool, reg: usize, x: X, when: bool) -> StmtOp {
    Box::new(move |ctx| {
        let v = x.get(ctx);
        let taken = cond.test(ctx) == when;
        if check && ctx.err.is_some() {
            return;
        }
        ctx.regs[reg] = if taken { v } else { ctx.regs[reg] };
    })
}

/// A lowered expression and whether evaluating it can record a runtime
/// error (a division, a remainder or a bounds-checked load inside it),
/// decided at compile time so infallible code never tests `ctx.err`.
struct Lowered {
    opnd: Opnd,
    fails: bool,
}

impl Lowered {
    fn leaf(opnd: Opnd) -> Self {
        Lowered { opnd, fails: false }
    }

    fn op(f: IntOp, fails: bool) -> Self {
        Lowered {
            opnd: Opnd::Op(f),
            fails,
        }
    }
}

/// A lowered statement sequence and whether it can record an error.
struct Block {
    ops: Vec<StmtOp>,
    fails: bool,
}

/// A node of the main input reached from `start` through bounds-checked
/// index steps; step `m` descends through offset table `table + m`.
struct Path {
    /// The root (`None`) or a slice loop's cursor slot.
    start: Option<usize>,
    table: usize,
    steps: Vec<Opnd>,
}

impl Path {
    /// Whether walking can record an error (any bounds-checked step).
    fn fails(&self) -> bool {
        !self.steps.is_empty()
    }

    /// The node's absolute index (0 for the root), or `None` after
    /// recording the interpreter's out-of-bounds error.
    #[inline]
    fn walk(&self, ctx: &mut Ctx<'_>) -> Option<usize> {
        let mut node = self.start.map_or(0, |slot| ctx.cur[slot]);
        for (table, step) in (self.table..).zip(&self.steps) {
            let iv = step.get(ctx);
            let (lo, hi) = ctx.span(table, node);
            let Some(j) = in_bounds(iv, hi - lo) else {
                ctx.fail_oob(iv, hi - lo);
                return None;
            };
            node = lo + j;
        }
        Some(node)
    }
}

/// A slice loop in scope during lowering: `for var in 0 .. len(P)` with
/// `P = a[path[0]]..`. When `P`'s children are rows, cursor `slot`
/// holds the current row; when they are elements, register `slot` holds
/// the current element's value.
struct Frame {
    path: Vec<Sym>,
    var: Sym,
    slot: usize,
}

/// How a loop of the plan was lowered (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopTier {
    /// A counting loop over an evaluated bound.
    General,
    /// A walk over a range of the offset tables.
    Slice,
    /// A native reduction fold over an `i64` slice.
    Fold,
}

/// Expression/statement lowering state: the register allocation (one
/// `i64` slot per symbol), which input accesses are legal in the
/// current context (the join body must not touch the input), the slice
/// loops in scope, and the tier each loop was lowered to.
struct Compiler<'p> {
    program: &'p Program,
    main: Sym,
    depth: usize,
    regs: HashMap<Sym, usize>,
    n_regs: usize,
    allow_input: bool,
    frames: Vec<Frame>,
    cursors: usize,
    /// Symbols read through their register, in lowering order.
    reads: Vec<Sym>,
    loops: Vec<(Sym, LoopTier)>,
}

impl Compiler<'_> {
    fn reg(&mut self, sym: Sym) -> usize {
        if let Some(&reg) = self.regs.get(&sym) {
            return reg;
        }
        let reg = self.fresh_reg();
        self.regs.insert(sym, reg);
        reg
    }

    /// A register bound to no symbol.
    fn fresh_reg(&mut self) -> usize {
        self.n_regs += 1;
        self.n_regs - 1
    }

    /// The register of a scalar variable other than the main input.
    fn scalar_reg(&mut self, sym: Sym) -> CResult<usize> {
        if sym == self.main {
            return unsupported("whole-sequence use of the main input");
        }
        if let Some(ty) = self.program.decl_ty(sym) {
            if !ty.is_scalar() {
                return unsupported(format!(
                    "sequence-valued variable '{}'",
                    self.program.name(sym)
                ));
            }
        }
        Ok(self.reg(sym))
    }

    /// Decompose an index chain `v[e0][e1]..` into its base symbol and
    /// index expressions, outermost dimension first.
    fn split_chain(e: &Expr) -> Option<(Sym, Vec<&Expr>)> {
        let mut idxs = Vec::new();
        let mut cur = e;
        loop {
            match cur {
                Expr::Index(base, idx) => {
                    idxs.push(idx.as_ref());
                    cur = base;
                }
                Expr::Var(sym) => {
                    idxs.reverse();
                    return Some((*sym, idxs));
                }
                _ => return None,
            }
        }
    }

    fn require_main_chain(&self, e: &Expr) -> CResult<(Sym, Vec<Expr>)> {
        let Some((sym, idxs)) = Self::split_chain(e) else {
            return unsupported("index chain with a non-variable base");
        };
        if sym != self.main {
            return unsupported(format!(
                "indexing variable '{}' (only the main input is compiled)",
                self.program.name(sym)
            ));
        }
        if !self.allow_input {
            return unsupported("join body references the input");
        }
        Ok((sym, idxs.into_iter().cloned().collect()))
    }

    /// Whether `e` lowers to a constant or a register: a closed
    /// expression, a scalar variable, or a slice loop's current element.
    fn is_leaf(&self, e: &Expr) -> bool {
        match e {
            Expr::Var(_) => true,
            Expr::Index(..) => Self::split_chain(e).is_some_and(|(sym, idxs)| {
                let idxs: Vec<Expr> = idxs.into_iter().cloned().collect();
                sym == self.main
                    && self.allow_input
                    && idxs.len() == self.depth
                    && self
                        .frame_of(&idxs)
                        .is_some_and(|f| f.path.len() + 1 == self.depth)
            }),
            e => const_fold(e).is_some(),
        }
    }

    /// Whether `e` is exactly `a[vars[0]][vars[1]]..` over the main input.
    fn is_main_chain(&self, e: &Expr, vars: &[Sym]) -> bool {
        Self::split_chain(e).is_some_and(|(sym, idxs)| {
            sym == self.main
                && idxs.len() == vars.len()
                && idxs
                    .iter()
                    .zip(vars)
                    .all(|(e, v)| matches!(e, Expr::Var(s) if s == v))
        })
    }

    /// The deepest slice loop in scope whose current child `P[v]` is a
    /// prefix of the chain `a[idxs[0]]..`.
    fn frame_of(&self, idxs: &[Expr]) -> Option<&Frame> {
        let is_var = |e: &Expr, v: Sym| matches!(e, Expr::Var(s) if *s == v);
        self.frames
            .iter()
            .filter(|f| {
                let k = f.path.len();
                k < idxs.len()
                    && idxs[..k].iter().zip(&f.path).all(|(e, &v)| is_var(e, v))
                    && is_var(&idxs[k], f.var)
            })
            .max_by_key(|f| f.path.len())
    }

    /// Resolve the node `a[idxs[0]]..` (above the leaves): start from the
    /// current row of the deepest slice loop that is a prefix of the
    /// chain (no index evaluation, no bounds check), and bounds-check
    /// only the indices past it.
    fn lower_path(&mut self, idxs: &[Expr]) -> CResult<Path> {
        let (start, used) = match self.frame_of(idxs) {
            Some(f) if f.path.len() + 1 < self.depth => (Some(f.slot), f.path.len() + 1),
            _ => (None, 0),
        };
        let steps = idxs[used..]
            .iter()
            .map(|e| self.lower_expr(e).map(|l| l.opnd))
            .collect::<CResult<_>>()?;
        Ok(Path {
            start,
            table: used,
            steps,
        })
    }

    /// Lower a full-depth load `a[e0]..[e_{d-1}]`. The first index is
    /// relative to the chunk window (`base`), matching the interpreter
    /// on a sliced input; the current element of a slice loop is read
    /// directly.
    fn lower_load(&mut self, idxs: &[Expr]) -> CResult<Lowered> {
        if idxs.len() != self.depth {
            return unsupported(format!(
                "partial index chain ({} of {} dimensions)",
                idxs.len(),
                self.depth
            ));
        }
        if let Some(f) = self.frame_of(idxs) {
            if f.path.len() + 1 == self.depth {
                return Ok(Lowered::leaf(Opnd::Reg(f.slot)));
            }
        }
        let path = self.lower_path(idxs)?;
        let fails = path.fails();
        Ok(Lowered::op(
            Box::new(move |ctx| match path.walk(ctx) {
                Some(node) => ctx.flat.data[node],
                None => 0,
            }),
            fails,
        ))
    }

    /// Lower `len(chain)` over the main input.
    fn lower_len(&mut self, inner: &Expr) -> CResult<Lowered> {
        let (_, idxs) = self.require_main_chain(inner)?;
        let k = idxs.len();
        if k >= self.depth {
            return unsupported(format!(
                "`len` of a depth-{} view of a depth-{} input",
                self.depth - k,
                self.depth
            ));
        }
        if k == 0 {
            return Ok(Lowered::op(Box::new(|ctx| ctx.rows as i64), false));
        }
        // `off1` holds item offsets at depth 2 and row counts at depth 3;
        // either way the difference is the level length.
        let path = self.lower_path(&idxs)?;
        let fails = path.fails();
        Ok(Lowered::op(
            Box::new(move |ctx| match path.walk(ctx) {
                Some(node) => {
                    let (lo, hi) = ctx.span(k, node);
                    (hi - lo) as i64
                }
                None => 0,
            }),
            fails,
        ))
    }

    fn lower_expr(&mut self, e: &Expr) -> CResult<Lowered> {
        if let Some(k) = const_fold(e) {
            return Ok(Lowered::leaf(Opnd::Const(k)));
        }
        match e {
            Expr::Int(n) => Ok(Lowered::leaf(Opnd::Const(*n))),
            Expr::Bool(b) => Ok(Lowered::leaf(Opnd::Const(i64::from(*b)))),
            Expr::Var(sym) => {
                let reg = self.scalar_reg(*sym)?;
                self.reads.push(*sym);
                Ok(Lowered::leaf(Opnd::Reg(reg)))
            }
            Expr::Index(..) => {
                let (_, idxs) = self.require_main_chain(e)?;
                self.lower_load(&idxs)
            }
            Expr::Len(inner) => self.lower_len(inner),
            Expr::Zeros(_) => unsupported("`zeros` (array-shaped state)"),
            Expr::Unary(op, a) => {
                let Lowered { opnd: a, fails } = self.lower_expr(a)?;
                let f: IntOp = match op {
                    UnOp::Neg => Box::new(move |ctx| a.get(ctx).wrapping_neg()),
                    UnOp::Not => Box::new(move |ctx| i64::from(a.get(ctx) == 0)),
                };
                Ok(Lowered::op(f, fails))
            }
            Expr::Binary(op, a, b) => {
                let a = self.lower_expr(a)?;
                let b = self.lower_expr(b)?;
                Ok(Lowered {
                    fails: a.fails || b.fails || matches!(op, BinOp::Div | BinOp::Rem),
                    opnd: binary(*op, a.opnd, b.opnd),
                })
            }
            Expr::Ite(c, t, e2) => {
                let c = self.lower_expr(c)?;
                let t = self.lower_expr(t)?;
                let e2 = self.lower_expr(e2)?;
                let fails = c.fails || t.fails || e2.fails;
                let (c, t, e2) = (c.opnd, t.opnd, e2.opnd);
                // Lazy, like the interpreter: only the taken branch
                // evaluates (it may divide or index).
                Ok(Lowered::op(
                    Box::new(move |ctx| {
                        if c.get(ctx) != 0 {
                            t.get(ctx)
                        } else {
                            e2.get(ctx)
                        }
                    }),
                    fails,
                ))
            }
        }
    }

    fn lower_block(&mut self, stmts: &[Stmt]) -> CResult<Block> {
        let mut block = Block {
            ops: Vec::with_capacity(stmts.len()),
            fails: false,
        };
        for stmt in stmts {
            let (op, fails) = self.lower_stmt(stmt)?;
            block.ops.push(op);
            block.fails |= fails;
        }
        Ok(block)
    }

    /// Lower `target = value` (or `let`), returning the statement and
    /// whether it can record an error.
    fn lower_assign(&mut self, target: Sym, value: &Expr) -> CResult<(StmtOp, bool)> {
        // `r = r ⊕ e` (and `r = e ⊕ r` for commutative `⊕`) updates the
        // register in place. Reading `r` cannot fail and `e` cannot
        // change it, so the order of the two reads is unobservable.
        if let Expr::Binary(op, x, y) = value {
            let is_target = |e: &Expr| matches!(e, Expr::Var(s) if *s == target);
            let update_op = matches!(
                op,
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Min | BinOp::Max
            );
            let commutes = matches!(op, BinOp::Add | BinOp::Mul | BinOp::Min | BinOp::Max);
            let other = if update_op && is_target(x) {
                Some(y)
            } else if commutes && is_target(y) {
                Some(x)
            } else {
                None
            };
            if let Some(e) = other {
                let reg = self.scalar_reg(target)?;
                self.reads.push(target);
                let Lowered { opnd, fails } = self.lower_expr(e)?;
                return Ok((with_get!(opnd, |x| update(reg, *op, x)), fails));
            }
        }
        let Lowered { opnd, fails } = self.lower_expr(value)?;
        let reg = self.reg(target);
        Ok((with_get!(opnd, |x| set(reg, x)), fails))
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> CResult<(StmtOp, bool)> {
        match stmt {
            Stmt::Let { name, ty, init } => {
                if !ty.is_scalar() {
                    return unsupported(format!(
                        "sequence-typed local '{}'",
                        self.program.name(*name)
                    ));
                }
                self.lower_assign(*name, init)
            }
            Stmt::Assign { target, value } => {
                if !target.indices.is_empty() {
                    return unsupported(format!(
                        "indexed assignment to '{}'",
                        self.program.name(target.base)
                    ));
                }
                self.lower_assign(target.base, value)
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                // `if (!c) A else B` runs as `if (c) B else A`.
                let (mut cond, mut then_branch, mut else_branch) = (cond, then_branch, else_branch);
                while let Expr::Unary(UnOp::Not, inner) = cond {
                    cond = inner;
                    std::mem::swap(&mut then_branch, &mut else_branch);
                }
                let (cond, cond_fails) = match cond {
                    Expr::Binary(op, x, y)
                        if const_fold(cond).is_none() && cmp_mask(*op).is_some() =>
                    {
                        let (x, y) = (self.lower_expr(x)?, self.lower_expr(y)?);
                        let mask = cmp_mask(*op).unwrap_or_default();
                        (Cond::Cmp(mask, x.opnd, y.opnd), x.fails || y.fails)
                    }
                    cond => {
                        let Lowered { opnd, fails } = self.lower_expr(cond)?;
                        (Cond::Truthy(opnd), fails)
                    }
                };
                // A guarded assignment of a constant or register becomes
                // a select.
                let guarded = match (then_branch.as_slice(), else_branch.as_slice()) {
                    ([Stmt::Assign { target, value }], []) => Some((target, value, true)),
                    ([], [Stmt::Assign { target, value }]) => Some((target, value, false)),
                    _ => None,
                };
                if let Some((target, value, when)) = guarded {
                    if target.indices.is_empty() && self.is_leaf(value) {
                        let Lowered { opnd, .. } = self.lower_expr(value)?;
                        let reg = self.reg(target.base);
                        let op = match opnd {
                            Opnd::Const(k) => {
                                with_test!(cond, |t| select(t, cond_fails, reg, Const(k), when))
                            }
                            Opnd::Reg(r) => {
                                with_test!(cond, |t| select(t, cond_fails, reg, Reg(r), when))
                            }
                            Opnd::Op(_) => unreachable!("a leaf lowers to a constant or register"),
                        };
                        return Ok((op, cond_fails));
                    }
                }
                let then_ops = self.lower_block(then_branch)?;
                let else_ops = self.lower_block(else_branch)?;
                let fails = cond_fails || then_ops.fails || else_ops.fails;
                let (then_ops, else_ops) = (then_ops.ops, else_ops.ops);
                Ok((
                    with_test!(cond, |t| branch(t, cond_fails, then_ops, else_ops)),
                    fails,
                ))
            }
            Stmt::For { var, bound, body } => {
                if let Some(path) = self.slice_path(*var, bound, body) {
                    return self.lower_slice_loop(*var, &path, body);
                }
                self.loops.push((*var, LoopTier::General));
                let Lowered {
                    opnd: bound,
                    fails: bound_fails,
                } = self.lower_expr(bound)?;
                let var_reg = self.reg(*var);
                let Block { ops, fails } = self.lower_block(body)?;
                Ok((
                    Box::new(move |ctx| {
                        let n = bound.get(ctx);
                        // Also after an error earlier in the block: its
                        // garbage values must not size a loop.
                        if ctx.err.is_some() {
                            return;
                        }
                        for i in 0..n.max(0) {
                            ctx.regs[var_reg] = i;
                            run_ops(&ops, ctx);
                            if fails && ctx.err.is_some() {
                                return;
                            }
                        }
                    }),
                    bound_fails || fails,
                ))
            }
        }
    }

    /// The index variables of `P` when `for var in 0 .. bound` is a slice
    /// loop: `bound` is `len(P)` for `P` the main input or a row of it
    /// indexed by variables, and the body assigns neither `var` nor any
    /// of those variables, so `P` and its current child stay fixed.
    fn slice_path(&self, var: Sym, bound: &Expr, body: &[Stmt]) -> Option<Vec<Sym>> {
        let Expr::Len(p) = bound else {
            return None;
        };
        let (sym, idxs) = Self::split_chain(p)?;
        if !self.allow_input || sym != self.main || idxs.len() >= self.depth {
            return None;
        }
        let mut pinned: Vec<Sym> = idxs
            .iter()
            .map(|e| match e {
                Expr::Var(s) => Some(*s),
                _ => None,
            })
            .collect::<Option<_>>()?;
        if pinned.contains(&var) {
            return None;
        }
        let path = pinned.clone();
        pinned.push(var);
        let mut assigned = false;
        for stmt in body {
            stmt.walk(&mut |s| {
                assigned |= match s {
                    Stmt::Let { name, .. } => pinned.contains(name),
                    Stmt::Assign { target, .. } => pinned.contains(&target.base),
                    Stmt::For { var, .. } => pinned.contains(var),
                    Stmt::If { .. } => false,
                };
            });
        }
        (!assigned).then_some(path)
    }

    /// Whether `cond` holds exactly for the loop counters `v >= 1`.
    fn past_first(cond: &Expr, v: Sym) -> bool {
        let is_v = |e: &Expr| matches!(e, Expr::Var(s) if *s == v);
        match cond {
            Expr::Binary(op, x, k) if is_v(x) => matches!(
                (op, const_fold(k)),
                (BinOp::Gt | BinOp::Ne, Some(0)) | (BinOp::Ge, Some(1))
            ),
            Expr::Binary(op, k, x) if is_v(x) => matches!(
                (op, const_fold(k)),
                (BinOp::Lt | BinOp::Ne, Some(0)) | (BinOp::Le, Some(1))
            ),
            _ => false,
        }
    }

    /// The accumulators of a reduction fold over the slice loop
    /// `for var in 0 .. len(a[path..])`: its body only updates distinct
    /// accumulators `r = r ⊕ x` or `r = x ⊕ r`, with `⊕` one of `+`,
    /// `min`, `max` and `x` the current element (so no accumulator is
    /// read elsewhere), or its body is one slice loop over the current
    /// row that is itself such a fold.
    fn fold_accs(&self, var: Sym, path: &[Sym], body: &[Stmt]) -> Option<Vec<(Sym, BinOp)>> {
        let mut pinned = path.to_vec();
        pinned.push(var);
        if pinned.len() < self.depth {
            let [Stmt::For {
                var: inner,
                bound: Expr::Len(p),
                body,
            }] = body
            else {
                return None;
            };
            if pinned.contains(inner) || !self.is_main_chain(p, &pinned) {
                return None;
            }
            return self.fold_accs(*inner, &pinned, body);
        }
        let mut accs: Vec<(Sym, BinOp)> = Vec::with_capacity(body.len());
        for stmt in body {
            let Stmt::Assign {
                target,
                value: Expr::Binary(op, x, y),
            } = stmt
            else {
                return None;
            };
            let r = target.base;
            let is_r = |e: &Expr| matches!(e, Expr::Var(s) if *s == r);
            let is_elem = |e: &Expr| self.is_main_chain(e, &pinned);
            if !target.indices.is_empty()
                || !matches!(op, BinOp::Add | BinOp::Min | BinOp::Max)
                || !(is_r(x) && is_elem(y) || is_elem(x) && is_r(y))
                || pinned.contains(&r)
                || accs.iter().any(|&(s, _)| s == r)
            {
                return None;
            }
            accs.push((r, *op));
        }
        (!accs.is_empty()).then_some(accs)
    }

    /// Lower the slice loop `for var in 0 .. len(a[path..])`: the bound
    /// is still resolved once (a bad `P` raises the interpreter's
    /// error), then the loop walks `P`'s range of the offset tables —
    /// as one native fold when the body is a reduction (see
    /// [`Compiler::fold_accs`]).
    fn lower_slice_loop(
        &mut self,
        var: Sym,
        path: &[Sym],
        body: &[Stmt],
    ) -> CResult<(StmtOp, bool)> {
        let table = path.len();
        let idxs: Vec<Expr> = path.iter().map(|&s| Expr::var(s)).collect();
        let span = self.lower_path(&idxs)?;
        let span_fails = span.fails();

        if let Some(accs) = self.fold_accs(var, path, body) {
            let mut loop_var = var;
            let mut body = body;
            for _ in table..self.depth {
                self.loops.push((loop_var, LoopTier::Fold));
                if let [Stmt::For {
                    var, body: inner, ..
                }] = body
                {
                    (loop_var, body) = (*var, inner);
                }
            }
            let accs: Vec<(usize, BinOp)> = accs
                .into_iter()
                .map(|(r, op)| Ok((self.scalar_reg(r)?, op)))
                .collect::<CResult<_>>()?;
            return Ok((
                Box::new(move |ctx| {
                    let Some(node) = span.walk(ctx) else {
                        return;
                    };
                    let (lo, hi) = ctx.span(table, node);
                    let (lo, hi) = ctx.leaves(table, lo, hi);
                    let xs = &ctx.flat.data[lo..hi];
                    for &(reg, op) in &accs {
                        ctx.regs[reg] = fold_slice(op, ctx.regs[reg], xs);
                    }
                }),
                span_fails,
            ));
        }

        self.loops.push((var, LoopTier::Slice));
        // A row goes to a cursor; an element is loaded into a register
        // once per iteration.
        let leaf = table + 1 == self.depth;
        let slot = if leaf {
            self.fresh_reg()
        } else {
            self.cursors += 1;
            self.cursors - 1
        };
        // `if (v > 0) { .. }` around the whole body skips the first child.
        let (skip, body) = match body {
            [Stmt::If {
                cond,
                then_branch,
                else_branch,
            }] if else_branch.is_empty() && Self::past_first(cond, var) => (1, &then_branch[..]),
            body => (0, body),
        };
        let var_reg = self.reg(var);
        let mark = self.reads.len();
        self.frames.push(Frame {
            path: path.to_vec(),
            var,
            slot,
        });
        let body = self.lower_block(body);
        self.frames.pop();
        let Block { ops, fails } = body?;
        // The counter is stored only when the body reads `var` other
        // than through the current row or element.
        let var_read = self.reads[mark..].contains(&var);
        Ok((
            Box::new(move |ctx| {
                let Some(node) = span.walk(ctx) else {
                    return;
                };
                let (lo, hi) = ctx.span(table, node);
                for (i, pos) in (lo..hi).enumerate().skip(skip) {
                    if leaf {
                        ctx.regs[slot] = ctx.flat.data[pos];
                    } else {
                        ctx.cur[slot] = pos;
                    }
                    if var_read {
                        ctx.regs[var_reg] = i as i64;
                    }
                    run_ops(&ops, ctx);
                    if fails && ctx.err.is_some() {
                        return;
                    }
                }
            }),
            span_fails || fails,
        ))
    }
}

/// Binding of one state slot to its join vocabulary registers.
struct JoinBind {
    slot: usize,
    l: usize,
    r: usize,
}

enum Kind {
    Dnc {
        body: Vec<StmtOp>,
        join_stmts: Vec<StmtOp>,
        join_bind: Vec<JoinBind>,
    },
    MapOnly {
        inner: Vec<StmtOp>,
        outer: Vec<StmtOp>,
        inner_regs: Vec<usize>,
        loop_reg: usize,
    },
}

/// A plan lowered to native chunk kernels: `summarize` (divide-and-
/// conquer work), `join`, and `map_rows`/`fold_rows` (map-only), all
/// over [`CState`] tuples and a [`FlatInput`] view.
pub struct CompiledPlan {
    kind: Kind,
    n_regs: usize,
    n_cursors: usize,
    /// Every loop of the map body and the join with its lowering tier,
    /// in lowering order.
    loops: Vec<(Sym, LoopTier)>,
    main_index: usize,
    depth: usize,
    state_regs: Vec<usize>,
    state_syms: Vec<Sym>,
    state_bool: Vec<bool>,
    init: Vec<i64>,
    empty: FlatInput,
}

impl fmt::Debug for CompiledPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledPlan")
            .field(
                "kind",
                &match self.kind {
                    Kind::Dnc { .. } => "divide-and-conquer",
                    Kind::MapOnly { .. } => "map-only",
                },
            )
            .field("n_regs", &self.n_regs)
            .field("slice_loops", &self.slice_loops())
            .field("folds", &self.folds())
            .field("depth", &self.depth)
            .field("state_slots", &self.state_regs.len())
            .finish()
    }
}

impl CompiledPlan {
    /// Index of the main input in the program's input list.
    pub fn main_index(&self) -> usize {
        self.main_index
    }

    /// Nesting depth of the main input.
    pub fn input_depth(&self) -> usize {
        self.depth
    }

    /// Whether this is a divide-and-conquer plan (map-only otherwise).
    pub fn is_divide_and_conquer(&self) -> bool {
        matches!(self.kind, Kind::Dnc { .. })
    }

    /// Number of state slots.
    pub fn state_arity(&self) -> usize {
        self.state_regs.len()
    }

    /// Number of inner-accumulator values per mapped row (map-only).
    pub fn inner_arity(&self) -> usize {
        match &self.kind {
            Kind::MapOnly { inner_regs, .. } => inner_regs.len(),
            Kind::Dnc { .. } => 0,
        }
    }

    /// Flatten `value` at this plan's input depth.
    pub fn flatten(&self, value: &Value) -> Option<FlatInput> {
        FlatInput::from_value(value, self.depth)
    }

    /// The initial state (constant-folded declaration initializers).
    pub fn init_state(&self) -> CState {
        CState(self.init.clone())
    }

    /// Loops lowered to walks over the offset tables (folds included).
    fn slice_loops(&self) -> usize {
        self.loops
            .iter()
            .filter(|(_, tier)| *tier != LoopTier::General)
            .count()
    }

    /// Loops lowered to native reduction folds.
    fn folds(&self) -> usize {
        self.loops
            .iter()
            .filter(|(_, tier)| *tier == LoopTier::Fold)
            .count()
    }

    fn ctx<'a>(&self, flat: &'a FlatInput, base: usize, rows: usize, cursors: usize) -> Ctx<'a> {
        Ctx {
            flat,
            base,
            rows,
            regs: vec![0; self.n_regs],
            cur: vec![0; cursors],
            err: None,
        }
    }

    fn read_state(&self, ctx: &Ctx<'_>) -> CState {
        CState(self.state_regs.iter().map(|&r| ctx.regs[r]).collect())
    }

    /// Summarize rows `lo..hi` from the initial state — the compiled
    /// `h` on one chunk (divide-and-conquer work function).
    ///
    /// # Errors
    ///
    /// Returns the interpreter-equivalent runtime error message.
    pub fn summarize(
        &self,
        flat: &FlatInput,
        lo: usize,
        hi: usize,
    ) -> std::result::Result<CState, String> {
        self.summarize_impl(flat, lo, hi, None)
    }

    /// Summarize rows `lo..hi` continuing from an explicit state (the
    /// rightward fold from an intermediate point; used by the stream
    /// degrade path).
    ///
    /// # Errors
    ///
    /// Returns the interpreter-equivalent runtime error message.
    pub fn summarize_from(
        &self,
        flat: &FlatInput,
        lo: usize,
        hi: usize,
        from: &CState,
    ) -> std::result::Result<CState, String> {
        self.summarize_impl(flat, lo, hi, Some(from))
    }

    fn summarize_impl(
        &self,
        flat: &FlatInput,
        lo: usize,
        hi: usize,
        from: Option<&CState>,
    ) -> std::result::Result<CState, String> {
        let Kind::Dnc { body, .. } = &self.kind else {
            return Err("summarize on a map-only plan".to_owned());
        };
        let mut ctx = self.ctx(flat, lo, hi - lo, self.n_cursors);
        let init = from.map_or(self.init.as_slice(), |s| s.0.as_slice());
        for (&reg, &v) in self.state_regs.iter().zip(init) {
            ctx.regs[reg] = v;
        }
        run_ops(body, &mut ctx);
        match ctx.err.take() {
            None => Ok(self.read_state(&ctx)),
            Some(msg) => Err(msg),
        }
    }

    /// The compiled join `⊙`.
    ///
    /// # Errors
    ///
    /// Returns the interpreter-equivalent runtime error message.
    pub fn join(&self, left: &CState, right: &CState) -> std::result::Result<CState, String> {
        let Kind::Dnc {
            join_stmts,
            join_bind,
            ..
        } = &self.kind
        else {
            return Err("join on a map-only plan".to_owned());
        };
        // The join never reads the input: no cursors.
        let mut ctx = self.ctx(&self.empty, 0, 0, 0);
        for bind in join_bind {
            // Convention of `apply_join`: each state variable starts at
            // its left value, with `v__l`/`v__r` bound alongside.
            ctx.regs[self.state_regs[bind.slot]] = left.0[bind.slot];
            ctx.regs[bind.l] = left.0[bind.slot];
            ctx.regs[bind.r] = right.0[bind.slot];
        }
        run_ops(join_stmts, &mut ctx);
        match ctx.err.take() {
            None => Ok(self.read_state(&ctx)),
            Some(msg) => Err(msg),
        }
    }

    /// Map rows `lo..hi` from the zero state (map-only): each row's
    /// inner phase runs with the state reset to the initializers, and
    /// its inner-accumulator values are appended to the returned buffer
    /// (`inner_arity` values per row). Indices are absolute within
    /// `flat`, matching the interpreter's map phase on the full input.
    ///
    /// # Errors
    ///
    /// Returns the interpreter-equivalent runtime error message.
    pub fn map_rows(
        &self,
        flat: &FlatInput,
        lo: usize,
        hi: usize,
    ) -> std::result::Result<Vec<i64>, String> {
        let Kind::MapOnly {
            inner,
            inner_regs,
            loop_reg,
            ..
        } = &self.kind
        else {
            return Err("map_rows on a divide-and-conquer plan".to_owned());
        };
        let mut out = Vec::with_capacity((hi - lo) * inner_regs.len());
        let mut ctx = self.ctx(flat, 0, flat.n, self.n_cursors);
        for i in lo..hi {
            for (&reg, &v) in self.state_regs.iter().zip(&self.init) {
                ctx.regs[reg] = v;
            }
            ctx.regs[*loop_reg] = i as i64;
            run_ops(inner, &mut ctx);
            if let Some(msg) = ctx.err.take() {
                return Err(msg);
            }
            out.extend(inner_regs.iter().map(|&r| ctx.regs[r]));
        }
        Ok(out)
    }

    /// Fold mapped rows `lo..hi` into the outer state sequentially,
    /// starting from `from` (map-only ⊚). `mapped` must be the
    /// `map_rows` buffer for exactly this range.
    ///
    /// # Errors
    ///
    /// Returns the interpreter-equivalent runtime error message.
    pub fn fold_rows(
        &self,
        flat: &FlatInput,
        lo: usize,
        hi: usize,
        mapped: &[i64],
        from: &CState,
    ) -> std::result::Result<CState, String> {
        let Kind::MapOnly {
            outer,
            inner_regs,
            loop_reg,
            ..
        } = &self.kind
        else {
            return Err("fold_rows on a divide-and-conquer plan".to_owned());
        };
        let arity = inner_regs.len();
        debug_assert_eq!(mapped.len(), (hi - lo) * arity);
        let mut state = from.clone();
        let mut ctx = self.ctx(flat, 0, flat.n, self.n_cursors);
        for (offset, i) in (lo..hi).enumerate() {
            for (&reg, &v) in self.state_regs.iter().zip(&state.0) {
                ctx.regs[reg] = v;
            }
            for (&reg, &v) in inner_regs.iter().zip(&mapped[offset * arity..]) {
                ctx.regs[reg] = v;
            }
            ctx.regs[*loop_reg] = i as i64;
            run_ops(outer, &mut ctx);
            if let Some(msg) = ctx.err.take() {
                return Err(msg);
            }
            state = self.read_state(&ctx);
        }
        Ok(state)
    }

    /// Convert a compiled state tuple to the interpreter's [`StateVec`].
    pub fn state_to_vec(&self, state: &CState) -> StateVec {
        StateVec::new(
            self.state_syms
                .iter()
                .zip(&state.0)
                .zip(&self.state_bool)
                .map(|((&sym, &v), &is_bool)| {
                    let value = if is_bool {
                        Value::Bool(v != 0)
                    } else {
                        Value::Int(v)
                    };
                    (sym, value)
                })
                .collect(),
        )
    }

    /// Convert an interpreter [`StateVec`] to a compiled state tuple.
    ///
    /// # Errors
    ///
    /// Fails when a state variable is missing or not scalar.
    pub fn state_from_vec(&self, state: &StateVec) -> std::result::Result<CState, String> {
        let mut slots = Vec::with_capacity(self.state_syms.len());
        for &sym in &self.state_syms {
            let v = match state.get(sym) {
                Some(Value::Int(n)) => *n,
                Some(Value::Bool(b)) => i64::from(*b),
                _ => return Err("state not representable in compiled form".to_owned()),
            };
            slots.push(v);
        }
        Ok(CState(slots))
    }
}

/// Lower `plan` to native chunk kernels.
///
/// # Errors
///
/// Returns [`CompileError`] for plan shapes outside the compiler's
/// coverage (multiple inputs, boolean or deeper-than-3D inputs,
/// array-shaped state, non-constant initializers, statements outside
/// the outer loop, `zeros`, indexed assignment, ...). Callers fall back
/// to the interpreter.
pub fn compile_plan(plan: &Parallelization) -> std::result::Result<CompiledPlan, CompileError> {
    let program = &plan.program;
    if let Outcome::Unparallelizable { reason } = &plan.outcome {
        return unsupported(format!("unparallelizable plan ({reason})"));
    }
    let f = RightwardFn::new(program).map_err(|e| CompileError::new(e.to_string()))?;
    if program.inputs.len() != 1 {
        return unsupported(format!(
            "{} inputs (only 1 supported)",
            program.inputs.len()
        ));
    }
    let main_index = f.main_input();
    let main_decl = &program.inputs[main_index];
    let depth = main_decl.ty.dim();
    if !(1..=3).contains(&depth) || main_decl.ty.base() != &Ty::Int {
        return unsupported(format!("input type {}", main_decl.ty));
    }
    let Some((pre, _, post)) = program.outer_loop() else {
        return unsupported("program has no outer loop");
    };
    if !pre.is_empty() || !post.is_empty() {
        return unsupported("statements outside the outer loop");
    }

    let mut state_syms = Vec::with_capacity(program.state.len());
    let mut state_bool = Vec::with_capacity(program.state.len());
    let mut init = Vec::with_capacity(program.state.len());
    for decl in &program.state {
        if !decl.ty.is_scalar() {
            return unsupported(format!(
                "sequence-typed state '{}'",
                program.name(decl.name)
            ));
        }
        let Some(v) = const_fold(&decl.init) else {
            return unsupported(format!(
                "non-constant initializer for '{}'",
                program.name(decl.name)
            ));
        };
        state_syms.push(decl.name);
        state_bool.push(decl.ty == Ty::Bool);
        init.push(v);
    }

    let mut c = Compiler {
        program,
        main: main_decl.name,
        depth,
        regs: HashMap::new(),
        n_regs: 0,
        allow_input: true,
        frames: Vec::new(),
        cursors: 0,
        reads: Vec::new(),
        loops: Vec::new(),
    };
    let state_regs: Vec<usize> = program.state.iter().map(|d| c.reg(d.name)).collect();

    let kind = match &plan.outcome {
        Outcome::DivideAndConquer { join, vocab } => {
            let body = c.lower_block(&program.body)?.ops;
            let mut join_bind = Vec::with_capacity(program.state.len());
            for (slot, decl) in program.state.iter().enumerate() {
                let Some(var) = vocab.var(decl.name) else {
                    return unsupported(format!(
                        "state '{}' missing from the join vocabulary",
                        program.name(decl.name)
                    ));
                };
                join_bind.push(JoinBind {
                    slot,
                    l: c.reg(var.l),
                    r: c.reg(var.r),
                });
            }
            c.allow_input = false;
            let join_stmts = c.lower_block(&join.stmts)?.ops;
            Kind::Dnc {
                body,
                join_stmts,
                join_bind,
            }
        }
        Outcome::MapOnly => {
            // The compiled map phase runs inner nests from the zero
            // state; sound only for (transformed) memoryless programs —
            // same precondition as the interpreter's map phase.
            if !parsynt_lang::analysis::analyze(program).is_syntactically_memoryless() {
                return unsupported("map-only plan over a non-memoryless program");
            }
            let loop_reg = c.reg(f.loop_var());
            let inner = c.lower_block(f.inner_phase())?.ops;
            let outer = c.lower_block(f.outer_phase())?.ops;
            let mut inner_regs = Vec::with_capacity(f.inner_vars().len());
            for (sym, ty) in f.inner_vars() {
                if !ty.is_scalar() {
                    return unsupported(format!(
                        "sequence-typed inner accumulator '{}'",
                        program.name(*sym)
                    ));
                }
                inner_regs.push(c.reg(*sym));
            }
            Kind::MapOnly {
                inner,
                outer,
                inner_regs,
                loop_reg,
            }
        }
        Outcome::Unparallelizable { .. } => unreachable!("rejected above"),
    };

    let compiled = CompiledPlan {
        n_regs: c.n_regs,
        n_cursors: c.cursors,
        loops: c.loops,
        main_index,
        depth,
        state_regs,
        state_syms,
        state_bool,
        init,
        empty: FlatInput::empty(depth),
        kind,
    };
    if trace::enabled() {
        trace::point(
            "execute",
            "compile_plan",
            &[
                (
                    "kind",
                    if compiled.is_divide_and_conquer() {
                        "divide_and_conquer".into()
                    } else {
                        "map_only".into()
                    },
                ),
                ("regs", compiled.n_regs.into()),
                ("state_slots", compiled.state_arity().into()),
                ("slice_loops", compiled.slice_loops().into()),
                ("folds", compiled.folds().into()),
            ],
        );
    }
    Ok(compiled)
}

pub(crate) fn emit_compile_fallback(reason: &str) {
    if trace::enabled() {
        trace::point("execute", "compile_fallback", &[("reason", reason.into())]);
    }
}

/// A compiled divide-and-conquer plan as a [`parsynt_runtime`] task:
/// items are outer-dimension row ids (must form contiguous ascending
/// runs, as produced by the runtime's chunkers over `0..n`), the
/// accumulator is the compiled state. Kernel runtime errors panic so
/// the runtime's retry/degrade path treats them like any worker fault.
pub struct CompiledDncTask<'a> {
    compiled: &'a CompiledPlan,
    flat: &'a FlatInput,
}

impl<'a> CompiledDncTask<'a> {
    /// Build the task; fails for map-only plans.
    pub fn new(compiled: &'a CompiledPlan, flat: &'a FlatInput) -> Option<Self> {
        compiled
            .is_divide_and_conquer()
            .then_some(CompiledDncTask { compiled, flat })
    }

    /// The item ids to execute over: `0..outer_len`.
    pub fn items(&self) -> Vec<u64> {
        (0..self.flat.outer_len() as u64).collect()
    }
}

impl parsynt_runtime::DncTask for CompiledDncTask<'_> {
    type Item = u64;
    type Acc = CState;

    fn identity(&self) -> CState {
        self.compiled.init_state()
    }

    fn work(&self, chunk: &[u64]) -> CState {
        let Some(&first) = chunk.first() else {
            return self.compiled.init_state();
        };
        let lo = first as usize;
        let hi = lo + chunk.len();
        match self.compiled.summarize(self.flat, lo, hi) {
            Ok(state) => state,
            Err(msg) => panic!("compiled kernel error: {msg}"),
        }
    }

    fn join(&self, left: CState, right: CState) -> CState {
        match self.compiled.join(&left, &right) {
            Ok(state) => state,
            Err(msg) => panic!("compiled join error: {msg}"),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::exec::run_plan_checked;
    use crate::testplans;
    use parsynt_lang::interp::run_program;
    use parsynt_runtime::{Engine, RunConfig};

    fn rows(n: usize) -> Vec<Vec<i64>> {
        (0..n)
            .map(|i| {
                (0..2 + i % 5)
                    .map(|j| ((i * 7 + j * 13) % 29) as i64 - 14)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn flatten_depth2_offsets() {
        let v = Value::seq2_of_ints(&[vec![1, 2], vec![], vec![3]]);
        let flat = FlatInput::from_value(&v, 2).unwrap();
        assert_eq!(flat.outer_len(), 3);
        assert_eq!(flat.data, vec![1, 2, 3]);
        assert_eq!(flat.off1, vec![0, 2, 2, 3]);
        // Shape mismatches are rejected, not mis-flattened.
        assert!(FlatInput::from_value(&v, 1).is_none());
        assert!(FlatInput::from_value(&v, 3).is_none());
        assert!(FlatInput::from_value(&Value::Int(3), 1).is_none());
    }

    #[test]
    fn flatten_depth3_offsets() {
        let v = Value::seq3_of_ints(&[vec![vec![1], vec![2, 3]], vec![], vec![vec![4]]]);
        let flat = FlatInput::from_value(&v, 3).unwrap();
        assert_eq!(flat.outer_len(), 3);
        assert_eq!(flat.off1, vec![0, 2, 2, 3]);
        assert_eq!(flat.off2, vec![0, 1, 3, 4]);
        assert_eq!(flat.data, vec![1, 2, 3, 4]);
    }

    #[test]
    fn const_fold_is_lazy_and_wraps() {
        assert_eq!(const_fold(&Expr::int(7)), Some(7));
        assert_eq!(
            const_fold(&Expr::add(Expr::int(i64::MAX), Expr::int(1))),
            Some(i64::MIN)
        );
        // Division by a constant zero is left for the runtime error.
        assert_eq!(
            const_fold(&Expr::bin(BinOp::Div, Expr::int(1), Expr::int(0))),
            None
        );
        // A constant condition folds only the taken branch.
        let mut interner = parsynt_lang::ast::Interner::new();
        let x = interner.intern("x");
        let e = Expr::ite(Expr::Bool(true), Expr::int(3), Expr::var(x));
        assert_eq!(const_fold(&e), Some(3));
    }

    #[test]
    fn sum2d_compiles_and_matches_interpreter() {
        let plan = testplans::sum2d();
        let compiled = compile_plan(plan).unwrap();
        assert!(compiled.is_divide_and_conquer());
        let input = Value::seq2_of_ints(&rows(23));
        let inputs = vec![input];
        let sequential = run_program(&plan.program, &inputs).unwrap();
        for threads in [1, 2, 3, 8] {
            let cfg = RunConfig::work_stealing(threads)
                .with_threads(threads)
                .with_grain(1);
            let out = run_plan_checked(plan, &inputs, &cfg).unwrap();
            assert_eq!(out.state, sequential, "threads = {threads}");
            assert!(!out.degraded);
            let interp = run_plan_checked(plan, &inputs, &cfg.with_engine(Engine::Interp)).unwrap();
            assert_eq!(interp.state, out.state);
        }
    }

    #[test]
    fn sum2d_compiled_join_matches_apply_join() {
        let plan = testplans::sum2d();
        let Outcome::DivideAndConquer { join, vocab } = &plan.outcome else {
            panic!("sum2d is divide-and-conquer");
        };
        let compiled = compile_plan(plan).unwrap();
        let input = Value::seq2_of_ints(&rows(12));
        let flat = compiled.flatten(&input).unwrap();
        let left = compiled.summarize(&flat, 0, 5).unwrap();
        let right = compiled.summarize(&flat, 5, 12).unwrap();
        let joined = compiled.join(&left, &right).unwrap();
        let interp_join = parsynt_synth::join::apply_join(
            &plan.program,
            vocab,
            join,
            &compiled.state_to_vec(&left),
            &compiled.state_to_vec(&right),
        )
        .unwrap();
        assert_eq!(compiled.state_to_vec(&joined), interp_join);
    }

    #[test]
    fn balanced_parens_map_only_matches_interpreter() {
        let plan = testplans::balanced_parens();
        let compiled = compile_plan(plan).unwrap();
        assert!(!compiled.is_divide_and_conquer());
        let input = Value::seq2_of_ints(&[
            vec![1, 1, -1],
            vec![-1],
            vec![1, -1],
            vec![1, -1, 1, -1],
            vec![-1, 1],
            vec![],
            vec![1, 1, -1, -1],
        ]);
        let inputs = vec![input];
        let sequential = run_program(&plan.program, &inputs).unwrap();
        for threads in [1, 2, 4] {
            let cfg = RunConfig::work_stealing(threads)
                .with_threads(threads)
                .with_grain(1);
            let out = run_plan_checked(plan, &inputs, &cfg).unwrap();
            assert_eq!(out.state, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn empty_input_matches_interpreter() {
        let plan = testplans::sum2d();
        let inputs = vec![Value::Seq(Vec::new())];
        let cfg = RunConfig::work_stealing(2).with_threads(2).with_grain(1);
        let compiled = run_plan_checked(plan, &inputs, &cfg).unwrap();
        let interp = run_plan_checked(plan, &inputs, &cfg.with_engine(Engine::Interp)).unwrap();
        assert_eq!(compiled.state, interp.state);
    }

    #[test]
    fn uncovered_plan_falls_back_to_interpreter() {
        // Mutate the state declaration to a sequence type: the compiler
        // must refuse it, and the dispatcher must still produce the
        // interpreter's (unchanged) result.
        let mut plan = testplans::sum2d().clone();
        plan.program.state[0].ty = Ty::seq(Ty::Int);
        let err = compile_plan(&plan).unwrap_err();
        assert!(err.reason().contains("sequence-typed state"), "{err}");
        let input = Value::seq2_of_ints(&rows(9));
        let inputs = vec![input];
        let cfg = RunConfig::work_stealing(3).with_threads(3).with_grain(1);
        let fallback = run_plan_checked(&plan, &inputs, &cfg).unwrap();
        let sequential = run_program(&plan.program, &inputs).unwrap();
        assert_eq!(fallback.state, sequential);
    }

    #[test]
    fn chunked_summaries_join_to_the_whole() {
        let plan = testplans::sum2d();
        let compiled = compile_plan(plan).unwrap();
        let input = Value::seq2_of_ints(&rows(17));
        let flat = compiled.flatten(&input).unwrap();
        let whole = compiled.summarize(&flat, 0, 17).unwrap();
        for size in [17, 9, 4, 1] {
            let mut acc: Option<CState> = None;
            for (lo, hi) in (0..17).step_by(size).map(|lo| (lo, (lo + size).min(17))) {
                let part = compiled.summarize(&flat, lo, hi).unwrap();
                acc = Some(match acc {
                    None => part,
                    Some(left) => compiled.join(&left, &part).unwrap(),
                });
            }
            assert_eq!(acc.unwrap(), whole, "chunk size {size}");
        }
    }

    #[test]
    fn runtime_task_bridge_matches_batch() {
        let plan = testplans::sum2d();
        let compiled = compile_plan(plan).unwrap();
        let input = Value::seq2_of_ints(&rows(31));
        let inputs = vec![input];
        let flat = compiled.flatten(&inputs[0]).unwrap();
        let task = CompiledDncTask::new(&compiled, &flat).unwrap();
        let items = task.items();
        let exec = parsynt_runtime::Executor::new(RunConfig::work_stealing(4).with_grain(7));
        let out = exec.run(&task, &items).unwrap();
        let sequential = run_program(&plan.program, &inputs).unwrap();
        assert_eq!(compiled.state_to_vec(&out.value), sequential);
    }

    /// The name and tier of every lowered loop.
    fn tiers(compiled: &CompiledPlan, program: &Program) -> Vec<(String, LoopTier)> {
        compiled
            .loops
            .iter()
            .map(|&(sym, tier)| (program.name(sym).to_owned(), tier))
            .collect()
    }

    fn expect_tiers(compiled: &CompiledPlan, program: &Program, want: &[(&str, LoopTier)]) {
        let want: Vec<(String, LoopTier)> = want.iter().map(|&(v, t)| (v.to_owned(), t)).collect();
        assert_eq!(tiers(compiled, program), want);
    }

    /// Both engines on the same inputs, results (or error text) equal.
    fn engines_agree(plan: &Parallelization, inputs: &[Value], threads: usize) {
        let run = |engine| {
            let cfg = RunConfig::work_stealing(threads)
                .with_threads(threads)
                .with_grain(1)
                .with_engine(engine);
            run_plan_checked(plan, inputs, &cfg)
                .map(|out| out.state)
                .map_err(|e| e.to_string())
        };
        assert_eq!(
            run(Engine::Compiled),
            run(Engine::Interp),
            "{threads} threads"
        );
    }

    #[test]
    fn batch_plans_lower_to_slice_loops_and_folds() {
        use LoopTier::{Fold, Slice};
        let cases: [(&str, &[(&str, LoopTier)]); 4] = [
            ("sum", &[("i", Slice), ("j", Fold)]),
            ("sorted", &[("i", Slice), ("j", Slice)]),
            ("mbbs", &[("i", Slice), ("j", Fold), ("k", Fold)]),
            ("max_dist", &[("i", Slice)]),
        ];
        for (id, want) in cases {
            let b = parsynt_suite::benchmark(id).unwrap();
            let program = parsynt_lang::parse(b.source).unwrap();
            let plan = crate::pipeline::Pipeline::new(&program)
                .configure(crate::pipeline::PipelineConfig::default().with_profile(b.profile))
                .run()
                .unwrap()
                .parallelization;
            let compiled = compile_plan(&plan).unwrap();
            expect_tiers(&compiled, &plan.program, want);
            let slices = want.len();
            let folds = want.iter().filter(|(_, t)| *t == Fold).count();
            assert_eq!((compiled.slice_loops(), compiled.folds()), (slices, folds));
        }
    }

    /// A map-only plan over a hand-written memoryless program, so any
    /// loop shape can be lowered without synthesis.
    fn map_only(body: &str) -> Parallelization {
        let src = format!(
            "input a : seq<seq<int>>; state s : int = 0;\n\
             for i in 0 .. len(a) {{ let t : int = 0; let u : int = 0; {body} s = s + t + u; }}\n\
             return s;"
        );
        Parallelization {
            program: parsynt_lang::parse(&src).unwrap(),
            outcome: Outcome::MapOnly,
            report: Default::default(),
        }
    }

    #[test]
    fn loop_shapes_pick_their_tier_and_agree_with_the_interpreter() {
        use LoopTier::{Fold, General, Slice};
        let cases: [(&str, &[(&str, LoopTier)]); 9] = [
            // Two accumulators, both operand orders.
            (
                "for j in 0 .. len(a[i]) { t = t + a[i][j]; u = max(a[i][j], u); }",
                &[("j", Fold)],
            ),
            // `t` is read by another update: no fold.
            (
                "for j in 0 .. len(a[i]) { t = t + a[i][j]; u = u + t; }",
                &[("j", Slice)],
            ),
            // The counter is read, and a partial load is bounds-checked.
            (
                "for j in 0 .. len(a[i]) { if (j > 0) { t = t + a[i][j] - a[i][0]; } }",
                &[("j", Slice)],
            ),
            // A first-iteration guard (peeled) around a guarded update.
            (
                "for j in 0 .. len(a[i]) { if (0 < j) { if (a[i][j] < u) { t = t + 1; } u = a[i][j]; } }",
                &[("j", Slice)],
            ),
            // A guard with an else branch is not peeled.
            (
                "for j in 0 .. len(a[i]) { if (j != 0) { u = a[i][j]; } else { t = a[i][j] * 2; } }",
                &[("j", Slice)],
            ),
            // Negated guarded assignments (selects) and a run of leaf sets.
            (
                "for j in 0 .. len(a[i]) { if (!(a[i][j] > u)) { u = a[i][j]; } if (!(t == 0)) {} else { t = j; } t = u; u = 7; }",
                &[("j", Slice)],
            ),
            // The body reassigns the loop variable.
            (
                "for j in 0 .. len(a[i]) { let j : int = 0; t = t + a[i][j]; }",
                &[("j", General)],
            ),
            // The bound is not `len` of a variable-indexed row.
            (
                "for j in 0 .. len(a[i]) - 1 { t = t + a[i][j + 1] * a[i][j]; }",
                &[("j", General)],
            ),
            // A nested walk over the same row.
            (
                "for j in 0 .. len(a[i]) { for k in 0 .. len(a[i]) { t = max(t, a[i][k] - a[i][j]); } }",
                &[("j", Slice), ("k", Slice)],
            ),
        ];
        let data = [
            vec![3, -1, 4],
            vec![],
            vec![1, 5, -9, 2, 6],
            vec![i64::MAX, 1],
        ];
        let inputs = vec![Value::seq2_of_ints(&data)];
        for (body, want) in cases {
            let plan = map_only(body);
            let compiled = compile_plan(&plan).unwrap();
            expect_tiers(&compiled, &plan.program, want);
            for threads in [1, 3] {
                engines_agree(&plan, &inputs, threads);
            }
            assert_eq!(
                run_plan_checked(&plan, &inputs, &RunConfig::work_stealing(2).with_grain(1))
                    .map(|out| out.state)
                    .map_err(|e| e.to_string()),
                run_program(&plan.program, &inputs).map_err(|e| e.to_string()),
                "{body}"
            );
        }
    }

    #[test]
    fn bad_slice_bound_raises_the_interpreters_error() {
        // `len(a[k])` with `k` past the input: the slice loop still
        // resolves its bound and fails exactly like the interpreter.
        let plan = map_only("let k : int = i + 1; for j in 0 .. len(a[k]) { t = t + a[k][j]; }");
        let compiled = compile_plan(&plan).unwrap();
        expect_tiers(&compiled, &plan.program, &[("j", LoopTier::Fold)]);
        let inputs = vec![Value::seq2_of_ints(&[vec![1, 2], vec![3]])];
        engines_agree(&plan, &inputs, 1);
        let err = run_plan_checked(&plan, &inputs, &RunConfig::work_stealing(1)).unwrap_err();
        assert!(err.to_string().contains("out of bounds"), "{err}");
    }

    #[test]
    fn empty_row_fails_with_the_same_error_under_both_engines() {
        let plan = map_only("t = a[i][0];");
        let inputs = vec![Value::seq2_of_ints(&[vec![4], vec![], vec![2]])];
        for threads in [1, 2, 3] {
            engines_agree(&plan, &inputs, threads);
        }
    }
}
