//! Interprocedural secret flow: rules `taint`, `ctflow` and `vartime`.
//!
//! Taint is seeded at `// lint: secret` types and propagated through
//! bindings, fields and — via per-fn summaries — call edges. Every value
//! carries one mask per *lane*: the leak lane reaches format macros and
//! wire encoders (rule `taint`); the timing lane reaches branches,
//! comparisons, indexes and loop bounds (rule `ctflow`) and
//! variable-time primitives (rule `vartime`). Each expression is
//! evaluated once for both lanes, one fixpoint computes every summary,
//! and one reporting walk emits all three rules. Where the lanes differ,
//! the difference is per-lane data ([`RET_DECLASS`], [`QUIET`], [`Sink`])
//! or one per-lane line; DESIGN.md §9.3a lists each one and the
//! escape-hatch annotations.

use std::collections::{HashMap, HashSet};
use std::ops::{BitOr, BitOrAssign};

use crate::ast::{Arm, Expr};
use crate::callgraph::{qualified, FnNode, Typer, Workspace};
use crate::rules::{
    FileCtx, Finding, Report, FORMAT_MACROS, RULE_CTFLOW, RULE_TAINT, RULE_VARTIME,
};

/// Bit 63 marks "directly secret"; bits 0..62 mark "derived from param i".
const SECRET: u64 = 1 << 63;

/// Methods that encode their arguments (and for `encode_body`/`to_wire`,
/// their receiver) onto the wire.
const WIRE_SINKS: [&str; 10] = [
    "put_bytes",
    "put_fixed",
    "put_str",
    "put_u8",
    "put_u16",
    "put_u32",
    "put_u64",
    "put_u128",
    "encode_body",
    "to_wire",
];

/// Sinks whose receiver (not just arguments) is encoded.
const RECV_SINKS: [&str; 2] = ["encode_body", "to_wire"];

/// Calls whose result is a public verdict/selection by construction: they
/// clear the timing lane, and their arguments do not reach a timing sink.
const SANITIZERS: [&str; 4] = ["ct_eq", "hmac_verify", "ct_select", "conditional_select"];

/// Comparison operators that leak their operands through timing when
/// short-circuiting (or through the branch they feed).
const CMP_OPS: [&str; 6] = ["==", "!=", "<", ">", "<=", ">="];

/// The crypto crates: what they return (signatures, digests, DRBG output)
/// is public by protocol design, and none of them reports a leak.
const CRYPTO: &[&str] = &[
    "crates/pairing/",
    "crates/bigint/",
    "crates/hash/",
    "crates/ibs/",
];

/// Per lane: crates whose returns drop the lane's taint — SECRET and the
/// param provenance both — unless the callee's declared return type names
/// a secret type (`HmacDrbg::new` re-taints). Field arithmetic stays
/// transparent in the timing lane: a secret point is still secret across
/// `to_affine`.
const RET_DECLASS: Lanes<&[&str]> = Lanes::new(CRYPTO, &["crates/hash/", "crates/ibs/"]);

/// Per lane: crates whose sinks are neither reported nor propagated to
/// callers. `pairing`/`bigint` branches are the constant-time arithmetic
/// itself (policed by `vartime`, which is never quiet); `hash` branches
/// on lengths only; `ibs` internals handle raw keys and stay checked.
const QUIET: Lanes<&[&str]> = Lanes::new(
    CRYPTO,
    &["crates/pairing/", "crates/bigint/", "crates/hash/"],
);

fn in_crates(path: &str, crates: &[&str]) -> bool {
    crates.iter().any(|c| path.starts_with(c))
}

#[derive(Clone, Copy)]
enum Lane {
    Leak,
    Time,
}

/// One value per lane.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Lanes<T> {
    leak: T,
    time: T,
}

impl<T: Copy> Lanes<T> {
    const fn new(leak: T, time: T) -> Self {
        Lanes { leak, time }
    }

    fn each<U: Copy>(self, f: impl Fn(T) -> U) -> Lanes<U> {
        Lanes::new(f(self.leak), f(self.time))
    }

    fn at(self, lane: Lane) -> T {
        match lane {
            Lane::Leak => self.leak,
            Lane::Time => self.time,
        }
    }

    fn at_mut(&mut self, lane: Lane) -> &mut T {
        match lane {
            Lane::Leak => &mut self.leak,
            Lane::Time => &mut self.time,
        }
    }
}

/// A value's taint, one mask per lane.
type Mask = Lanes<u64>;

impl Mask {
    const SECRET: Mask = Lanes::new(SECRET, SECRET);

    fn join(masks: &[Mask]) -> Mask {
        masks.iter().fold(Mask::default(), |a, &m| a | m)
    }
}

impl BitOr for Mask {
    type Output = Mask;
    fn bitor(self, o: Mask) -> Mask {
        Lanes::new(self.leak | o.leak, self.time | o.time)
    }
}

impl BitOrAssign for Mask {
    fn bitor_assign(&mut self, o: Mask) {
        *self = *self | o;
    }
}

/// The three sink kinds; each reads one lane and reports one rule.
#[derive(Clone, Copy)]
enum Sink {
    Leak,
    Branch,
    Vartime,
}

impl Sink {
    fn lane(self) -> Lane {
        match self {
            Sink::Leak => Lane::Leak,
            Sink::Branch | Sink::Vartime => Lane::Time,
        }
    }

    /// The summary mask of params that reach this kind of sink.
    fn reach(self, s: &mut Summary) -> &mut u64 {
        match self {
            Sink::Leak => &mut s.sink_params,
            Sink::Branch => &mut s.branch_params,
            Sink::Vartime => &mut s.vt_params,
        }
    }

    /// The rule id and message of a finding at `what`.
    fn finding(self, what: &str) -> (&'static str, String) {
        match self {
            Sink::Leak => (
                RULE_TAINT,
                format!(
                    "secret-derived value reaches {what} — secrets must never be \
                     formatted or wire-encoded; derive a public value first (sign/hash) \
                     or annotate `// lint: allow(taint, reason=...)`"
                ),
            ),
            Sink::Branch => (
                RULE_CTFLOW,
                format!(
                    "secret-influenced value reaches {what} — execution time would depend \
                     on key material; use `seccloud_hash::ct_eq` / a constant-time select, \
                     or annotate `// lint: declassify(reason)` if the value is public by \
                     protocol design"
                ),
            ),
            Sink::Vartime => (
                RULE_VARTIME,
                format!(
                    "secret-influenced value reaches variable-time {what} — the vartime \
                     sanction list (DESIGN.md §9) admits public inputs only; route secrets \
                     through the constant-time API (`inverse`, `mul_fr_ct`), or annotate \
                     `// lint: allow(vartime, reason=...)`"
                ),
            ),
        }
    }
}

/// Per lane: the sink a callee's summary stands for, and its wording.
const VIA: Lanes<(Sink, &str)> = Lanes::new(
    (Sink::Leak, "a format/wire sink via"),
    (Sink::Branch, "a branch/index inside"),
);

/// Per-fn dataflow summary (masks only grow across fixpoint rounds).
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Summary {
    /// Per lane: params whose taint reaches the return value.
    ret_params: Lanes<u64>,
    /// Per lane: the return value is secret regardless of arguments.
    ret_secret: Lanes<bool>,
    /// Params whose taint reaches a format/wire sink in (or below) this
    /// fn. Secret-*typed* params are excluded — those are reported
    /// directly in the fn that holds the sink.
    sink_params: u64,
    /// Params whose taint reaches a timing sink in (or below) this fn.
    branch_params: u64,
    /// Params whose taint reaches a variable-time primitive in (or below)
    /// this fn.
    vt_params: u64,
}

/// Runs the `taint`, `ctflow` and `vartime` rules over the workspace:
/// one fixpoint over both lanes, then one reporting walk.
pub fn check_secret_flow(
    ws: &Workspace,
    typers: &[Typer<'_>],
    ctxs: &HashMap<&str, &FileCtx>,
    secret_names: &HashSet<String>,
    all_rules: bool,
    report: &mut Report,
) {
    if secret_names.is_empty() {
        return;
    }
    // The vartime sanction set: `*_vartime` names plus explicit markers.
    let prims: Vec<bool> = ws
        .fns
        .iter()
        .enumerate()
        .map(|(i, f)| {
            f.name.ends_with("_vartime")
                || ctxs
                    .get(ws.path_of(i))
                    .is_some_and(|c| c.vartime_lines.contains(&f.line))
        })
        .collect();
    let flow = Flow {
        ws,
        typers,
        prims: &prims,
        secret_names,
        all_rules,
    };
    let summaries =
        ws.fixpoint_summaries(Summary::default(), |i, sums| flow.analyze_fn(i, sums, None));
    let mut findings = Vec::new();
    for i in 0..ws.fns.len() {
        let _ = flow.analyze_fn(i, &summaries, Some(&mut findings));
    }
    for f in findings {
        let allowed = ctxs
            .get(f.file.as_str())
            .is_some_and(|c| c.rule_allowed(f.rule, f.line) || c.test_lines.contains(&f.line));
        if !allowed {
            report.findings.push(f);
        }
    }
}

/// Does this type string name a secret type?
fn ty_secret(ty: &str, secret_names: &HashSet<String>) -> bool {
    secret_names.iter().any(|s| contains_word(ty, s))
}

/// Does `f`'s declared return type name a secret type (directly or as
/// `Self` on a secret owner)?
fn ret_names_secret(f: &FnNode, secret_names: &HashSet<String>) -> bool {
    f.ret.as_deref().is_some_and(|r| {
        ty_secret(r, secret_names)
            || (contains_word(r, "Self")
                && f.owner.as_deref().is_some_and(|o| secret_names.contains(o)))
    })
}

/// Does `hay` contain the identifier `needle` as a whole word, so that
/// `UserKey` does not match `UserKeyring`?
fn contains_word(hay: &str, needle: &str) -> bool {
    hay.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .any(|w| w == needle)
}

/// The workspace-wide inputs every fn evaluation shares.
struct Flow<'a> {
    ws: &'a Workspace,
    typers: &'a [Typer<'a>],
    prims: &'a [bool],
    secret_names: &'a HashSet<String>,
    all_rules: bool,
}

impl Flow<'_> {
    /// One evaluation of a fn body. Returns the fn's summary; when
    /// `findings` is set, also records sink hits (the reporting walk).
    fn analyze_fn(
        &self,
        fn_idx: usize,
        summaries: &[Summary],
        findings: Option<&mut Vec<Finding>>,
    ) -> Summary {
        let Some(f) = self.ws.fns.get(fn_idx) else {
            return Summary::default();
        };
        let (Some(body), Some(typer)) = (&f.body, self.typers.get(fn_idx)) else {
            return Summary::default();
        };
        if f.is_test {
            return Summary::default();
        }
        let path = self.ws.path_of(fn_idx);
        let owner_secret = f
            .owner
            .as_deref()
            .is_some_and(|o| self.secret_names.contains(o));
        // A sanctioned primitive is variable-time in *all* of its inputs
        // by declaration: its timing lane is not analyzed.
        let prim = self.prims.get(fn_idx).copied().unwrap_or(false);
        let mut ev = Eval {
            flow: self,
            summaries,
            typer,
            locals: HashMap::new(),
            owner: f.owner.clone(),
            out: Summary::default(),
            findings,
            file: path.to_string(),
            // Quiet sinks still feed the summary masks, so checked callers
            // of checked callees see through the boundary.
            report: QUIET.each(|q| self.all_rules || !in_crates(path, q)),
            timed: !prim,
        };
        let mut param_secret_typed = 0u64;
        for (i, p) in f.params.iter().enumerate().take(62) {
            let mut mask = 1u64 << i;
            let secret_param = if p.name == "self" {
                owner_secret
            } else {
                ty_secret(&p.ty, self.secret_names)
            };
            if secret_param {
                mask |= SECRET;
                param_secret_typed |= 1u64 << i;
            }
            ev.locals.insert(p.name.clone(), Lanes::new(mask, mask));
        }
        let ret = ev.eval(body);
        let all_params = (1u64 << f.params.len().min(62)) - 1;
        // A fn whose return type names a secret type returns a secret no
        // matter what the body analysis saw (constructors in crypto crates).
        let ret_named = ret_names_secret(f, self.secret_names);
        let mut out = ev.out;
        out.ret_params = ret.each(|m| m & all_params);
        out.ret_secret = ret.each(|m| m & SECRET != 0 || ret_named);
        out.sink_params &= !param_secret_typed;
        if prim {
            out.ret_params.time = 0;
            out.ret_secret.time = false;
            out.vt_params = all_params;
        }
        out
    }
}

/// Does a `match` arm compare concrete values (as opposed to pure
/// destructuring)? `0 => …` and `Tag::Ack => …` are value patterns;
/// `Some(v) => …`, `None => …` and `_ => …` are not — matching an
/// `Option`'s presence is how checked code unwraps, not a comparison.
fn is_value_arm(arm: &Arm) -> bool {
    if arm.has_literal {
        // `0 => …`, `"ack" => …`, `Some(0) => …` — comparing a literal is
        // a value comparison wherever it sits in the pattern.
        return true;
    }
    if arm.is_wildcard || !arm.bindings.is_empty() {
        return false;
    }
    !arm.pat_paths
        .iter()
        .all(|p| p.last().is_some_and(|s| s == "None"))
}

/// Is this condition expression already covered by an operator-level sink
/// (a comparison or short-circuit at its top level)?
fn cond_covered(e: &Expr) -> bool {
    match e {
        Expr::Group { children, .. } => children.iter().any(cond_covered),
        Expr::Binary { op, .. } => CMP_OPS.contains(&op.as_str()) || op == "&&" || op == "||",
        _ => false,
    }
}

struct Eval<'a> {
    flow: &'a Flow<'a>,
    summaries: &'a [Summary],
    typer: &'a Typer<'a>,
    locals: HashMap<String, Mask>,
    owner: Option<String>,
    out: Summary,
    findings: Option<&'a mut Vec<Finding>>,
    file: String,
    /// Per lane: are this fn's sinks reported?
    report: Lanes<bool>,
    /// False inside a vartime primitive: its timing lane is declared.
    timed: bool,
}

impl Eval<'_> {
    /// The `kind` sink saw `m` (its own lane of it).
    fn sink(&mut self, kind: Sink, m: Mask, line: u32, what: &str) {
        let lane = kind.lane();
        if matches!(lane, Lane::Time) && !self.timed {
            return;
        }
        let mask = m.at(lane);
        *kind.reach(&mut self.out) |= mask & !SECRET;
        let reported = matches!(kind, Sink::Vartime) || self.report.at(lane);
        if mask & SECRET != 0 && reported {
            if let Some(f) = self.findings.as_deref_mut() {
                let (rule, message) = kind.finding(what);
                f.push(Finding {
                    rule,
                    file: self.file.clone(),
                    line,
                    message,
                });
            }
        }
    }

    /// A call resolving to `targets` (`args[0]` aligned with the callee's
    /// first param). `secret_owner` marks a `UserKey::clone(&k)`-style
    /// associated call on a secret type.
    fn eval_call(
        &mut self,
        targets: &[usize],
        args: &[Mask],
        line: u32,
        name: &str,
        secret_owner: bool,
    ) -> Mask {
        // A sanitizer's timing lane is its public verdict; an unresolved
        // `_vartime` primitive sinks its arguments and returns them
        // without SECRET. Neither applies a summary to that lane.
        let timing = if SANITIZERS.contains(&name) {
            Some(0)
        } else if targets.is_empty() && name.ends_with("_vartime") {
            let all = Mask::join(args);
            self.sink(Sink::Vartime, all, line, &format!("primitive `{name}`"));
            Some(all.time & !SECRET)
        } else {
            None
        };
        let mut m = if targets.is_empty() {
            // Unresolved (std) call: taint flows through (`.clone()`,
            // `Some(…)`, `.to_vec()` all preserve secrecy).
            let m = Mask::join(args);
            if secret_owner {
                m | Mask::SECRET
            } else {
                m
            }
        } else {
            self.apply_summaries(targets, args, line, timing.is_none())
        };
        if let Some(t) = timing {
            m.time = t;
        }
        m
    }

    /// Applies resolved callees' summaries to the argument masks; with
    /// `with_time` unset, to the leak lane only.
    fn apply_summaries(
        &mut self,
        targets: &[usize],
        args: &[Mask],
        line: u32,
        with_time: bool,
    ) -> Mask {
        let ws = self.flow.ws;
        let mut out = Mask::default();
        for &t in targets {
            let Some(callee) = ws.fns.get(t) else {
                continue;
            };
            let mut summary = self.summaries.get(t).copied().unwrap_or_default();
            let path = ws.path_of(t);
            let prim = self.flow.prims.get(t).copied().unwrap_or(false);
            if with_time && prim {
                let what = format!("primitive `{}`", qualified(callee));
                self.sink(Sink::Vartime, Mask::join(args), line, &what);
            } else if with_time {
                // Variable-time reachability crosses every crate class.
                for (i, m) in args.iter().enumerate().take(62) {
                    if summary.vt_params & (1u64 << i) != 0 {
                        let what = format!("path `{}`", qualified(callee));
                        self.sink(Sink::Vartime, *m, line, &what);
                    }
                }
            }
            // A primitive's timing lane is its `vartime` sink alone.
            let lanes: &[Lane] = if with_time && !prim {
                &[Lane::Leak, Lane::Time]
            } else {
                &[Lane::Leak]
            };
            for &lane in lanes {
                let declass = in_crates(path, RET_DECLASS.at(lane));
                let quiet = in_crates(path, QUIET.at(lane));
                let (kind, via) = VIA.at(lane);
                let sunk = *kind.reach(&mut summary);
                let lane_out = out.at_mut(lane);
                for (i, m) in args.iter().enumerate().take(62) {
                    let bit = 1u64 << i;
                    if summary.ret_params.at(lane) & bit != 0 && !declass {
                        *lane_out |= m.at(lane);
                    }
                    if sunk & bit != 0 && !quiet {
                        let what = format!("{via} `{}`", qualified(callee));
                        self.sink(kind, *m, line, &what);
                    }
                }
                let secret = if declass {
                    ret_names_secret(callee, self.flow.secret_names)
                } else {
                    summary.ret_secret.at(lane)
                };
                if secret {
                    *lane_out |= SECRET;
                }
            }
        }
        out
    }

    fn bind(&mut self, names: &[String], mask: Mask) {
        for n in names {
            *self.locals.entry(n.clone()).or_default() |= mask;
        }
    }

    fn secret_ty(&self, ty: &str) -> bool {
        ty_secret(ty, self.flow.secret_names)
    }

    fn field_secret(&self, base: &Expr, name: &str) -> bool {
        let Some(base_ty) = self.typer.infer(base) else {
            return false;
        };
        self.flow
            .ws
            .struct_fields
            .get(&base_ty)
            .and_then(|fields| fields.get(name))
            .is_some_and(|ty| self.secret_ty(ty))
    }

    fn eval(&mut self, e: &Expr) -> Mask {
        match e {
            Expr::Path { segs, .. } => match segs.as_slice() {
                [one] => self.locals.get(one).copied().unwrap_or_default(),
                _ => Mask::default(),
            },
            Expr::Lit { .. } | Expr::Opaque { .. } | Expr::NestedFn(_) => Mask::default(),
            Expr::Field { base, name, .. } => {
                let m = self.eval(base);
                if self.field_secret(base, name) {
                    m | Mask::SECRET
                } else {
                    m
                }
            }
            Expr::Index { base, index, line } => {
                let bm = self.eval(base);
                let im = self.eval(index);
                let what = "an array/slice index (secret-dependent memory access pattern)";
                self.sink(Sink::Branch, im, *line, what);
                bm | im
            }
            Expr::Binary { op, lhs, rhs, line } => {
                let mut m = self.eval(lhs) | self.eval(rhs);
                // A comparison (or short-circuit) *is* the timing sink —
                // report it here, once. Its one-bit result is the verdict
                // the code goes on to branch with, so it clears the timing
                // lane (otherwise every verifier that returns `lhs == rhs`
                // would re-flag all of its callers).
                let what = if CMP_OPS.contains(&op.as_str()) {
                    "comparison"
                } else if op == "&&" || op == "||" {
                    "short-circuit"
                } else {
                    return m;
                };
                self.sink(Sink::Branch, m, *line, &format!("a `{op}` {what}"));
                m.time = 0;
                m
            }
            Expr::Assign { lhs, rhs, .. } => {
                let m = self.eval(rhs);
                if let Expr::Path { segs, .. } = lhs.as_ref() {
                    if let [one] = segs.as_slice() {
                        *self.locals.entry(one.clone()).or_default() |= m;
                    }
                }
                let _ = self.eval(lhs);
                Mask::default()
            }
            Expr::Let {
                bindings,
                ty,
                init,
                else_block,
                ..
            } => {
                let mut m = init.as_ref().map_or_else(Mask::default, |i| self.eval(i));
                if ty.as_deref().is_some_and(|t| self.secret_ty(t)) {
                    m |= Mask::SECRET;
                }
                // `let (key, items) = make();` — when the callee's declared
                // tuple components are visible, only secret-typed
                // components inherit SECRET in the timing lane; smearing
                // the whole tuple's taint over every binding flags the
                // public halves too.
                let comps = (bindings.len() > 1 && ty.is_none())
                    .then(|| init.as_ref().and_then(|i| self.typer.ret_tuple_types(i)))
                    .flatten();
                match comps {
                    Some(comps) if comps.len() == bindings.len() => {
                        for (b, c) in bindings.iter().zip(&comps) {
                            let secret = if self.secret_ty(c) { SECRET } else { 0 };
                            let time = (m.time & !SECRET) | secret;
                            self.bind(std::slice::from_ref(b), Lanes::new(m.leak, time));
                        }
                    }
                    _ => self.bind(bindings, m),
                }
                if let Some(e) = else_block {
                    let _ = self.eval(e);
                }
                Mask::default()
            }
            Expr::Block { stmts, .. } => {
                let mut last = Mask::default();
                for s in stmts {
                    last = self.eval(s);
                }
                last
            }
            Expr::If {
                cond,
                bindings,
                then_block,
                else_block,
                line,
            } => {
                let cm = self.eval(cond);
                // `if let` tests structure, not values; operator-level
                // sinks already fired inside comparison conditions.
                if bindings.is_empty() && !cond_covered(cond) {
                    self.sink(Sink::Branch, cm, *line, "an `if` condition");
                }
                self.bind(bindings, cm);
                let m = self.eval(then_block);
                m | else_block
                    .as_ref()
                    .map_or_else(Mask::default, |e| self.eval(e))
            }
            Expr::Match {
                scrutinee,
                arms,
                line,
            } => {
                let sm = self.eval(scrutinee);
                if arms.iter().any(is_value_arm) {
                    self.sink(Sink::Branch, sm, *line, "a `match` on concrete values");
                }
                let mut m = Mask::default();
                for arm in arms {
                    self.bind(&arm.bindings, sm);
                    m |= self.eval(&arm.body);
                }
                m
            }
            Expr::For {
                bindings,
                iter,
                body,
                line,
            } => {
                let im = self.eval(iter);
                if matches!(iter.as_ref(), Expr::Range { .. }) {
                    self.sink(Sink::Branch, im, *line, "a loop bound");
                }
                self.bind(bindings, im);
                // Twice: taint assigned late in the body reaches uses
                // earlier in the next iteration.
                let _ = self.eval(body);
                let _ = self.eval(body);
                Mask::default()
            }
            Expr::Loop {
                cond,
                bindings,
                body,
                line,
            } => {
                if let Some(c) = cond {
                    let cm = self.eval(c);
                    if bindings.is_empty() && !cond_covered(c) {
                        self.sink(Sink::Branch, cm, *line, "a `while` condition");
                    }
                    self.bind(bindings, cm);
                }
                let _ = self.eval(body);
                let _ = self.eval(body);
                Mask::default()
            }
            Expr::Closure { body, .. } => self.eval(body),
            Expr::Range { lo, hi, .. } => {
                let lo = lo.as_ref().map_or_else(Mask::default, |l| self.eval(l));
                lo | hi.as_ref().map_or_else(Mask::default, |h| self.eval(h))
            }
            Expr::Cast { expr, ty, .. } => {
                let m = self.eval(expr);
                if self.secret_ty(ty) {
                    m | Mask::SECRET
                } else {
                    m
                }
            }
            Expr::StructLit { segs, fields, .. } => {
                let m = fields
                    .iter()
                    .fold(Mask::default(), |m, (_, fe)| m | self.eval(fe));
                // `Self { .. }` inside an impl names the owner type.
                let head = segs.last().map(|s| {
                    if s == "Self" {
                        self.owner.as_deref().unwrap_or(s)
                    } else {
                        s.as_str()
                    }
                });
                if head.is_some_and(|s| self.flow.secret_names.contains(s)) {
                    m | Mask::SECRET
                } else if head.is_some_and(|s| self.flow.ws.struct_fields.contains_key(s)) {
                    // A known non-secret struct *boxes* any secret it is
                    // built from: the container itself is not hot, and
                    // reading the secret back out re-taints through the
                    // field's declared type. Without this, every
                    // `CloudUser`/`CloudServer`-style principal poisons
                    // the whole program.
                    m.each(|l| l & !SECRET)
                } else {
                    m
                }
            }
            Expr::Group { children, .. } => children
                .iter()
                .fold(Mask::default(), |m, c| m | self.eval(c)),
            Expr::MacroCall { name, args, line } => {
                let mut all = args.iter().fold(Mask::default(), |m, a| m | self.eval(a));
                if FORMAT_MACROS.contains(&name.as_str()) {
                    // Inline captures — `format!("{v}")` — never surface
                    // `v` as a token, so mine the string literals too.
                    for a in args {
                        if let Expr::Lit { text, .. } = a {
                            for name in inline_captures(text) {
                                if let Some(m) = self.locals.get(&name) {
                                    all.leak |= m.leak;
                                }
                            }
                        }
                    }
                    self.sink(Sink::Leak, all, *line, &format!("`{name}!` (format sink)"));
                    all.leak = 0;
                }
                all
            }
            Expr::Call { callee, args, line } => {
                let masks: Vec<Mask> = args.iter().map(|a| self.eval(a)).collect();
                match callee.as_ref() {
                    Expr::Path { segs, .. } => {
                        let targets = self.flow.ws.resolve_call(segs, self.owner.as_deref());
                        let name = segs.last().map_or("", String::as_str);
                        let secret_owner = segs
                            .iter()
                            .rev()
                            .nth(1)
                            .is_some_and(|t| self.flow.secret_names.contains(t));
                        self.eval_call(&targets, &masks, *line, name, secret_owner)
                    }
                    other => self.eval(other) | Mask::join(&masks),
                }
            }
            Expr::MethodCall {
                recv,
                name,
                args,
                line,
            } => {
                // The receiver is aligned as param 0.
                let mut aligned = vec![self.eval(recv)];
                aligned.extend(args.iter().map(|a| self.eval(a)));
                if WIRE_SINKS.contains(&name.as_str()) {
                    let from = usize::from(!RECV_SINKS.contains(&name.as_str()));
                    let sunk = Mask::join(aligned.get(from..).unwrap_or_default());
                    let what = format!("wire-encode sink `.{name}(…)`");
                    self.sink(Sink::Leak, sunk, *line, &what);
                }
                let recv_ty = self.typer.infer(recv);
                let targets = self
                    .flow
                    .ws
                    .resolve_method(recv_ty.as_deref(), name, args.len());
                self.eval_call(&targets, &aligned, *line, name, false)
            }
        }
    }
}

/// Extracts inline-captured identifiers from a format string literal:
/// `"key {sk} {n:02x}"` → `["sk", "n"]`. `{{` escapes are skipped.
fn inline_captures(lit: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut chars = lit.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '{' {
            continue;
        }
        if chars.peek() == Some(&'{') {
            chars.next();
            continue;
        }
        let mut name = String::new();
        for c in chars.by_ref() {
            if c.is_alphanumeric() || c == '_' {
                name.push(c);
            } else {
                break;
            }
        }
        if !name.is_empty() && !name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            out.push(name);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::lexer::lex;
    use crate::rules::lint_files;

    /// `taint` findings in a `crates/core` file: `(line, message)`.
    fn leaks(src: &str) -> Vec<(u32, String)> {
        let r = lint_files(
            &[("crates/core/src/t.rs".to_string(), src.to_string())],
            false,
        );
        r.findings
            .iter()
            .filter(|f| f.rule == RULE_TAINT)
            .map(|f| (f.line, f.message.clone()))
            .collect()
    }

    /// `ctflow` and `vartime` findings in a `crates/core` file.
    fn timing(src: &str) -> Vec<(&'static str, u32)> {
        let r = lint_files(
            &[("crates/core/src/t.rs".to_string(), src.to_string())],
            false,
        );
        r.findings
            .iter()
            .filter(|f| f.rule == RULE_CTFLOW || f.rule == RULE_VARTIME)
            .map(|f| (f.rule, f.line))
            .collect()
    }

    const SECRET_DEF: &str = "// lint: secret\npub struct UserKey { sk: u64 }\n\
                              impl Drop for UserKey { fn drop(&mut self) {} }\n";

    #[test]
    fn lanes_report_independently() {
        // One secret reaches a format macro, a comparison and a
        // variable-time primitive: each lane reports only its own sink.
        let src = format!(
            "{SECRET_DEF}\
             fn inverse_vartime(v: u64) -> u64 {{ v }}\n\
             fn all(k: &UserKey) -> u64 {{\n\
                 let s = format!(\"{{}}\", k.sk);\n\
                 let b = k.sk == 7;\n\
                 let _ = inverse_vartime(b as u64);\n\
                 inverse_vartime(k.sk)\n\
             }}\n"
        );
        let r = lint_files(&[("crates/core/src/t.rs".to_string(), src)], false);
        let hits: Vec<(&str, u32)> = r
            .findings
            .iter()
            .filter(|f| [RULE_TAINT, RULE_CTFLOW, RULE_VARTIME].contains(&f.rule))
            .map(|f| (f.rule, f.line))
            .collect();
        assert_eq!(
            hits,
            vec![(RULE_TAINT, 6), (RULE_CTFLOW, 7), (RULE_VARTIME, 9)],
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn each_lane_keeps_what_the_other_clears() {
        // A comparison verdict and a sanitizer's result are public only in
        // the timing lane, and a formatted secret only in the leak lane.
        let src = format!(
            "{SECRET_DEF}\
             fn show(k: &UserKey) -> String {{ format!(\"{{}}\", k.sk == 7) }}\n\
             fn show_eq(k: &UserKey) -> String {{ format!(\"{{}}\", ct_eq(k.sk, 7)) }}\n\
             fn branch(k: &UserKey) -> bool {{ format!(\"{{}}\", k.sk).len() == 3 }}\n"
        );
        let r = lint_files(&[("crates/core/src/t.rs".to_string(), src)], false);
        let hits: Vec<(&str, u32)> = r
            .findings
            .iter()
            .filter(|f| [RULE_TAINT, RULE_CTFLOW, RULE_VARTIME].contains(&f.rule))
            .map(|f| (f.rule, f.line))
            .collect();
        assert_eq!(
            hits,
            vec![
                (RULE_CTFLOW, 4),
                (RULE_TAINT, 4),
                (RULE_TAINT, 5),
                (RULE_CTFLOW, 6),
                (RULE_TAINT, 6)
            ],
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn laundered_format_leak_is_caught() {
        let src = format!(
            "{SECRET_DEF}\
             impl UserKey {{ pub fn sk(&self) -> u64 {{ self.sk }} }}\n\
             fn leak(k: &UserKey) -> String {{\n\
                 let x = k.sk();\n\
                 render(x)\n\
             }}\n\
             fn render(v: u64) -> String {{ format!(\"{{v}}\") }}\n"
        );
        let hits = leaks(&src);
        assert!(
            hits.iter().any(|(_, m)| m.contains("format")),
            "expected a taint finding, got {hits:?}"
        );
    }

    #[test]
    fn wire_encode_of_secret_field_is_caught() {
        let src = format!(
            "{SECRET_DEF}\
             struct W;\n\
             impl W {{ fn put_u64(&mut self, _v: u64) {{}} }}\n\
             fn emit(w: &mut W, k: &UserKey) {{ w.put_u64(k.sk); }}\n"
        );
        let hits = leaks(&src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].1.contains("wire-encode"), "{hits:?}");
    }

    #[test]
    fn derived_public_values_are_not_tainted() {
        // A value returned by a non-secret fn fed by nothing secret.
        let src = format!(
            "{SECRET_DEF}\
             fn public_len(data: &[u8]) -> usize {{ data.len() }}\n\
             fn report(data: &[u8]) -> String {{ format!(\"{{}}\", public_len(data)) }}\n"
        );
        assert!(leaks(&src).is_empty());
    }

    #[test]
    fn allow_annotation_silences_taint() {
        let src = format!(
            "{SECRET_DEF}\
             fn show(k: &UserKey) -> String {{\n\
                 // lint: allow(taint, reason=redacted debug prints no key bits)\n\
                 format!(\"{{}}\", k.sk)\n\
             }}\n"
        );
        assert!(leaks(&src).is_empty());
    }

    #[test]
    fn word_boundary_containment() {
        assert!(contains_word("Option<UserKey>", "UserKey"));
        assert!(contains_word("&mut UserKey", "UserKey"));
        assert!(!contains_word("UserKeyring", "UserKey"));
    }

    #[test]
    fn summaries_converge_on_mutual_recursion() {
        let src = "fn a(x: u64) -> u64 { b(x) }\nfn b(x: u64) -> u64 { a(x) }";
        let ws = Workspace::build(vec![(
            "crates/core/src/r.rs".to_string(),
            parse(&lex(src).0),
        )]);
        let mut report = Report::default();
        let mut secrets = HashSet::new();
        secrets.insert("UserKey".to_string());
        let typers: Vec<Typer<'_>> = ws.fns.iter().map(|f| Typer::for_fn(&ws, f)).collect();
        check_secret_flow(&ws, &typers, &HashMap::new(), &secrets, false, &mut report);
        assert!(report.findings.is_empty());
    }

    #[test]
    fn secret_branch_is_caught_across_a_call() {
        let src = format!(
            "{SECRET_DEF}\
             fn check(v: u64) -> bool {{ if v > 9 {{ true }} else {{ false }} }}\n\
             fn gate(k: &UserKey) -> bool {{ check(k.sk) }}\n"
        );
        let hits = timing(&src);
        assert!(
            hits.iter().any(|(r, _)| *r == RULE_CTFLOW),
            "expected a ctflow finding, got {hits:?}"
        );
    }

    #[test]
    fn secret_comparison_and_index_are_caught() {
        let src = format!(
            "{SECRET_DEF}\
             fn cmp(k: &UserKey, x: u64) -> bool {{ k.sk == x }}\n\
             fn idx(k: &UserKey, t: &[u8]) -> u8 {{ t[(k.sk as usize) % t.len()] }}\n"
        );
        let hits = timing(&src);
        assert!(hits.len() >= 2, "{hits:?}");
    }

    #[test]
    fn sanitizers_clear_taint() {
        let src = format!(
            "{SECRET_DEF}\
             fn ok(k: &UserKey, x: u64) -> bool {{\n\
                 if ct_eq(&k.sk.to_be_bytes(), &x.to_be_bytes()) {{ true }} else {{ false }}\n\
             }}\n"
        );
        assert!(timing(&src).is_empty(), "{:?}", timing(&src));
    }

    #[test]
    fn declassify_annotation_silences_ctflow() {
        let src = format!(
            "{SECRET_DEF}\
             fn gate(k: &UserKey) -> bool {{\n\
                 // lint: declassify(parity of sk is published in the audit header)\n\
                 k.sk % 2 == 0\n\
             }}\n"
        );
        assert!(timing(&src).is_empty(), "{:?}", timing(&src));
    }

    #[test]
    fn vartime_call_with_secret_argument_is_caught() {
        let src = format!(
            "{SECRET_DEF}\
             fn inverse_vartime(v: u64) -> u64 {{ v }}\n\
             fn bad(k: &UserKey) -> u64 {{ inverse_vartime(k.sk) }}\n\
             fn good(x: u64) -> u64 {{ inverse_vartime(x) }}\n"
        );
        let hits = timing(&src);
        assert_eq!(
            hits.iter().filter(|(r, _)| *r == RULE_VARTIME).count(),
            1,
            "{hits:?}"
        );
    }

    #[test]
    fn vartime_reachability_crosses_call_boundaries() {
        let src = format!(
            "{SECRET_DEF}\
             fn inverse_vartime(v: u64) -> u64 {{ v }}\n\
             fn helper(v: u64) -> u64 {{ inverse_vartime(v) }}\n\
             fn outer(k: &UserKey) -> u64 {{ helper(k.sk) }}\n"
        );
        let hits = timing(&src);
        assert!(
            hits.iter().any(|(r, _)| *r == RULE_VARTIME),
            "transitive vartime reach must be flagged: {hits:?}"
        );
    }

    #[test]
    fn vartime_marker_sanctions_a_named_fn() {
        let src = format!(
            "{SECRET_DEF}\
             // lint: vartime(window selection is public weights only)\n\
             fn fold(w: u64) -> u64 {{ w }}\n\
             fn bad(k: &UserKey) -> u64 {{ fold(k.sk) }}\n"
        );
        let hits = timing(&src);
        assert!(
            hits.iter().any(|(r, _)| *r == RULE_VARTIME),
            "marker-sanctioned fn must sink secrets: {hits:?}"
        );
    }

    #[test]
    fn match_on_destructuring_is_not_a_sink() {
        let src = format!(
            "{SECRET_DEF}\
             fn peel(k: Option<UserKey>) -> u64 {{\n\
                 match k {{ Some(key) => key.sk, None => 0 }}\n\
             }}\n"
        );
        assert!(timing(&src).is_empty(), "{:?}", timing(&src));
    }

    #[test]
    fn trusted_crates_propagate_but_do_not_report() {
        // A branch inside crates/pairing is trusted; the taint still flows
        // through its return into checked code.
        let a = (
            "crates/pairing/src/h.rs".to_string(),
            "pub fn norm(v: u64) -> u64 { if v > 3 { v } else { 0 } }".to_string(),
        );
        let b = (
            "crates/core/src/t.rs".to_string(),
            format!(
                "{SECRET_DEF}\
                 fn gate(k: &UserKey) -> bool {{ norm(k.sk) == 0 }}\n\
                 fn show(k: &UserKey) -> String {{ format!(\"{{}}\", norm(k.sk)) }}\n"
            ),
        );
        let r = lint_files(&[a, b], false);
        let ctf: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.rule == RULE_CTFLOW)
            .collect();
        assert_eq!(ctf.len(), 1, "{ctf:?}");
        assert!(ctf[0].file.contains("core"), "{ctf:?}");
        // The leak lane declassifies what `crates/pairing` returns.
        assert!(
            !r.findings.iter().any(|f| f.rule == RULE_TAINT),
            "{:?}",
            r.findings
        );
    }
}
