//! The blocking-operation policy matrix and the `deadline` rule.
//!
//! Two concerns share this module because they share one question — *can
//! this expression stall a thread?*
//!
//! 1. **Classification** (consumed by [`crate::locks`]): every expression
//!    is assigned a bitmask of blocking kinds — socket I/O, synchronous
//!    channel operations, thread joins/scopes, sleeps, and the heavy
//!    pairing entry points. The `blocking` rule forbids any of them while
//!    a `Mutex`/`RwLock` guard is held: a blocked guard-holder stalls
//!    every other thread contending for that lock, which on the audit
//!    path turns one slow peer into a whole-server convoy.
//! 2. **The `deadline` rule**: every `std::net` read/write must be
//!    dominated by a `set_read_timeout`/`set_write_timeout` on the same
//!    stream. [`NetSummary`] bitmasks propagate the obligation through
//!    helpers (`read_frame<R: Read>` marks its stream parameter), so a
//!    raw `TcpStream` flowing into a framing helper without a deadline is
//!    caught at the call site — no future code path may block forever on
//!    a peer, which is the transport-level totality the resilience layer
//!    (DESIGN.md §10) assumes of the socket runtime underneath it.

use std::collections::HashMap;

use crate::ast::Expr;
use crate::callgraph::{Typer, Workspace};
use crate::rules::{FileCtx, Finding, Report, RULE_DEADLINE};

/// Blocking kind: socket connect/read/write on a `TcpStream`.
pub(crate) const B_SOCKET: u8 = 1;
/// Blocking kind: synchronous channel `send`/`recv`/`recv_timeout`.
pub(crate) const B_CHANNEL: u8 = 2;
/// Blocking kind: `thread::join` / `thread::scope` (waits on threads).
pub(crate) const B_JOIN: u8 = 4;
/// Blocking kind: `thread::sleep`.
pub(crate) const B_SLEEP: u8 = 8;
/// Blocking kind: a heavy pairing entry point (milliseconds of CPU).
pub(crate) const B_PAIRING: u8 = 16;

/// Function names that *are* the heavy pairing entry points: holding a
/// lock across one serializes every contending audit thread behind
/// milliseconds of field arithmetic.
const PAIRING_ENTRY_POINTS: [&str; 5] = [
    "miller_loop",
    "multi_miller_loop",
    "final_exponentiation",
    "weighted_fold",
    "checked_weighted_fold",
];

/// Channel methods that block the caller (`try_send`/`try_recv` are the
/// sanctioned non-blocking alternatives and are deliberately absent).
const CHANNEL_BLOCKING: [&str; 3] = ["send", "recv", "recv_timeout"];

/// Read-family I/O methods (std `Read` surface used in the workspace).
const READ_IO: [&str; 3] = ["read", "read_exact", "read_to_end"];

/// Write-family I/O methods (std `Write` surface used in the workspace).
const WRITE_IO: [&str; 3] = ["write", "write_all", "flush"];

/// Is `name` one of the heavy pairing entry points?
pub(crate) fn is_pairing_entry(name: &str) -> bool {
    PAIRING_ENTRY_POINTS.contains(&name)
}

/// Renders a blocking-kind mask for finding messages.
pub(crate) fn kind_names(mask: u8) -> String {
    let mut parts = Vec::new();
    for (bit, name) in [
        (B_SOCKET, "socket I/O"),
        (B_CHANNEL, "blocking channel op"),
        (B_JOIN, "thread join/scope"),
        (B_SLEEP, "sleep"),
        (B_PAIRING, "pairing computation"),
    ] {
        if mask & bit != 0 {
            parts.push(name);
        }
    }
    parts.join(" + ")
}

/// Classifies an *unresolved* method call (no workspace callee) by name
/// and receiver type. Resolved workspace calls are classified through
/// their callee summaries instead, so a workspace method that merely
/// shares a std name (`Inner::insert`, chaos `send` helpers) is judged by
/// what it does, not what it is called.
pub(crate) fn classify_unresolved_method(name: &str, recv_raw: Option<&str>) -> u8 {
    if CHANNEL_BLOCKING.contains(&name) {
        return B_CHANNEL;
    }
    if name == "join" {
        return B_JOIN;
    }
    let on_stream = recv_raw.is_some_and(|t| t.contains("TcpStream"));
    if on_stream && (READ_IO.contains(&name) || WRITE_IO.contains(&name)) {
        return B_SOCKET;
    }
    0
}

/// Classifies an *unresolved* free/path call by its path segments.
pub(crate) fn classify_unresolved_call(segs: &[String]) -> u8 {
    let Some(name) = segs.last() else { return 0 };
    let qualifier = segs.len().checked_sub(2).and_then(|i| segs.get(i));
    match name.as_str() {
        "sleep" => B_SLEEP,
        "scope" if qualifier.is_some_and(|q| q == "thread") => B_JOIN,
        "connect" | "connect_timeout" if qualifier.is_some_and(|q| q == "TcpStream") => B_SOCKET,
        n if is_pairing_entry(n) => B_PAIRING,
        _ => 0,
    }
}

// --- the deadline rule ----------------------------------------------------

/// Files whose `std::net` I/O the workspace-mode rule reports on (the
/// socket runtime is the only place `std::net` is allowed to appear; the
/// summaries are still computed workspace-wide so a future caller
/// elsewhere inherits the obligation).
const DEADLINE_SCOPE: [&str; 1] = ["crates/net/src/"];

/// Per-fn deadline summary: parameter bitmasks (bit *i* = param *i*).
#[derive(Clone, Copy, Default, PartialEq)]
pub(crate) struct NetSummary {
    /// Params that receive read-family I/O not dominated by a read
    /// deadline inside this fn (directly or through a callee).
    pub reads: u32,
    /// Same for write-family I/O vs write deadlines.
    pub writes: u32,
    /// Params this fn applies `set_read_timeout` to.
    pub sets_read: u32,
    /// Params this fn applies `set_write_timeout` to.
    pub sets_write: u32,
}

/// Per-stream tracking state during one fn walk.
#[derive(Clone, Copy)]
struct StreamState {
    /// Parameter index, if the stream is a parameter.
    param: Option<u32>,
    /// Known to be a real `TcpStream` (declared or from `connect`).
    is_tcp: bool,
    read_deadlined: bool,
    write_deadlined: bool,
}

/// Peels `Group` wrappers (`&x`, `(x)`, `x?`) down to a single-binding
/// path name.
fn root_binding(e: &Expr) -> Option<&str> {
    match e {
        Expr::Group { children, .. } => match children.as_slice() {
            [one] => root_binding(one),
            _ => None,
        },
        Expr::Path { segs, .. } => match segs.as_slice() {
            [one] => Some(one.as_str()),
            _ => None,
        },
        _ => None,
    }
}

/// Does the init expression produce a fresh `TcpStream` (`connect` /
/// `connect_timeout`)? Peels `Group` wrappers from `?` / `match` plumbing.
fn is_connect_init(e: &Expr) -> bool {
    match e {
        Expr::Group { children, .. } => children.iter().any(is_connect_init),
        Expr::Call { callee, .. } => {
            if let Expr::Path { segs, .. } = callee.as_ref() {
                let name = segs.last().map_or("", String::as_str);
                let qual = segs
                    .len()
                    .checked_sub(2)
                    .and_then(|i| segs.get(i))
                    .map_or("", String::as_str);
                qual == "TcpStream" && (name == "connect" || name == "connect_timeout")
            } else {
                false
            }
        }
        Expr::MethodCall { recv, name, .. } => {
            // `TcpStream::connect(..)?.take(..)`-style chains still yield
            // the stream for carrier methods; be permissive on the chain.
            matches!(name.as_str(), "expect" | "unwrap") && is_connect_init(recv)
        }
        Expr::Match { scrutinee, .. } => is_connect_init(scrutinee),
        _ => false,
    }
}

/// A disabling `set_*_timeout(None)` must not count as a deadline.
fn timeout_arg_is_some(args: &[Expr]) -> bool {
    fn mentions_none(e: &Expr) -> bool {
        let mut hit = false;
        e.walk(&mut |x| {
            if let Expr::Path { segs, .. } = x {
                if segs.last().is_some_and(|s| s == "None") {
                    hit = true;
                }
            }
        });
        hit
    }
    args.first().is_some_and(|a| !mentions_none(a))
}

/// One fn's deadline walk: returns the summary; with `sink` set, also
/// reports un-deadlined I/O on streams this fn owns or can see.
#[allow(clippy::too_many_arguments)]
fn analyze_fn(
    ws: &Workspace,
    typer: &Typer<'_>,
    fn_idx: usize,
    summaries: &[NetSummary],
    mut sink: Option<(&mut Vec<Finding>, &FileCtx)>,
) -> NetSummary {
    let mut out = NetSummary::default();
    let Some(f) = ws.fns.get(fn_idx) else {
        return out;
    };
    let Some(body) = &f.body else {
        return out;
    };
    let mut streams: HashMap<String, StreamState> = HashMap::new();
    for (i, p) in f.params.iter().enumerate() {
        let is_tcp = p.ty.contains("TcpStream");
        // Generic `R: Read`-style params are tracked too: their I/O marks
        // summary bits that only ever fire when a real TcpStream flows in.
        let generic_io = p.ty.len() <= "&mut R".len() && !p.ty.contains('[');
        if is_tcp || generic_io {
            streams.insert(
                p.name.clone(),
                StreamState {
                    param: u32::try_from(i).ok(),
                    is_tcp,
                    read_deadlined: false,
                    write_deadlined: false,
                },
            );
        }
    }
    let path = ws.path_of(fn_idx);
    let report = |line: u32, msg: String, sink: &mut Option<(&mut Vec<Finding>, &FileCtx)>| {
        if let Some((findings, ctx)) = sink {
            if ctx.rule_allowed(RULE_DEADLINE, line) || ctx.test_lines.contains(&line) {
                return;
            }
            findings.push(Finding {
                rule: RULE_DEADLINE,
                file: path.to_string(),
                line,
                message: msg,
            });
        }
    };
    // Pre-order walk visits statements in source order, which is the
    // domination approximation: a deadline set on an earlier line covers
    // I/O on later lines (branch-local deadlines optimistically persist —
    // the rule never false-positives on a configured stream).
    body.walk(&mut |e| match e {
        Expr::Let {
            bindings,
            ty,
            init: Some(init),
            ..
        } => {
            if let (Some(name), 1) = (bindings.first(), bindings.len()) {
                let declared_tcp = ty.as_deref().is_some_and(|t| t.contains("TcpStream"));
                if declared_tcp || is_connect_init(init) {
                    streams.insert(
                        name.clone(),
                        StreamState {
                            param: None,
                            is_tcp: true,
                            read_deadlined: false,
                            write_deadlined: false,
                        },
                    );
                }
            }
        }
        Expr::MethodCall {
            recv,
            name,
            args,
            line,
        } => {
            let Some(binding) = root_binding(recv) else {
                return;
            };
            match name.as_str() {
                "set_read_timeout" | "set_write_timeout" => {
                    if let Some(s) = streams.get_mut(binding) {
                        if timeout_arg_is_some(args) {
                            if name == "set_read_timeout" {
                                s.read_deadlined = true;
                                if let Some(p) = s.param {
                                    out.sets_read |= 1u32 << p.min(31);
                                }
                            } else {
                                s.write_deadlined = true;
                                if let Some(p) = s.param {
                                    out.sets_write |= 1u32 << p.min(31);
                                }
                            }
                        }
                    }
                }
                n if READ_IO.contains(&n) || WRITE_IO.contains(&n) => {
                    // Exclude RwLock::read/write: only stream-shaped
                    // receivers are in `streams` at all, but a declared
                    // lock type never reaches here because `RwLock<_>`
                    // params/locals are not inserted.
                    let Some(s) = streams.get(binding) else {
                        return;
                    };
                    let is_read = READ_IO.contains(&n);
                    let covered = if is_read {
                        s.read_deadlined
                    } else {
                        s.write_deadlined
                    };
                    if covered {
                        return;
                    }
                    if let Some(p) = s.param {
                        let bit = 1u32 << p.min(31);
                        if is_read {
                            out.reads |= bit;
                        } else {
                            out.writes |= bit;
                        }
                    }
                    if s.is_tcp {
                        report(
                            *line,
                            format!(
                                "`{binding}.{n}()` on a TcpStream with no {} deadline — call \
                                 `set_{}_timeout` on the stream before any I/O (or annotate \
                                 `// lint: allow(deadline, reason=...)`)",
                                if is_read { "read" } else { "write" },
                                if is_read { "read" } else { "write" },
                            ),
                            &mut sink,
                        );
                    }
                }
                _ => {
                    // Method call into the workspace: propagate callee
                    // obligations and deadline effects onto TcpStream args.
                    let recv_ty = typer.infer(recv);
                    let callees = ws.resolve_method(recv_ty.as_deref(), name, args.len());
                    apply_call(
                        ws,
                        summaries,
                        &callees,
                        args,
                        true,
                        &mut streams,
                        &mut out,
                        *line,
                        path,
                        &mut sink,
                    );
                }
            }
        }
        Expr::Call { callee, args, line } => {
            if let Expr::Path { segs, .. } = callee.as_ref() {
                let owner = ws.fns.get(fn_idx).and_then(|f| f.owner.as_deref());
                let callees = ws.resolve_call(segs, owner);
                apply_call(
                    ws,
                    summaries,
                    &callees,
                    args,
                    false,
                    &mut streams,
                    &mut out,
                    *line,
                    path,
                    &mut sink,
                );
            }
        }
        _ => {}
    });
    out
}

/// Translates one resolved call's [`NetSummary`] onto the caller's
/// streams: un-deadlined I/O obligations fire (or propagate to the
/// caller's own params); `sets_*` effects mark the stream configured.
#[allow(clippy::too_many_arguments)]
fn apply_call(
    ws: &Workspace,
    summaries: &[NetSummary],
    callees: &[usize],
    args: &[Expr],
    method: bool,
    streams: &mut HashMap<String, StreamState>,
    out: &mut NetSummary,
    line: u32,
    path: &str,
    sink: &mut Option<(&mut Vec<Finding>, &FileCtx)>,
) {
    for &c in callees {
        let Some(sum) = summaries.get(c) else {
            continue;
        };
        if (sum.reads | sum.writes | sum.sets_read | sum.sets_write) == 0 {
            continue;
        }
        let has_self = ws
            .fns
            .get(c)
            .and_then(|f| f.params.first())
            .is_some_and(|p| p.name == "self");
        for (j, a) in args.iter().enumerate() {
            let Some(binding) = root_binding(a) else {
                continue;
            };
            let Some(&s) = streams.get(binding) else {
                continue;
            };
            let pidx = j + usize::from(method && has_self);
            let bit = 1u32 << u32::try_from(pidx).unwrap_or(31).min(31);
            if sum.reads & bit != 0 && !s.read_deadlined {
                if let Some(p) = s.param {
                    out.reads |= 1u32 << p.min(31);
                }
                if s.is_tcp {
                    if let Some((findings, ctx)) = sink {
                        if !ctx.rule_allowed(RULE_DEADLINE, line) && !ctx.test_lines.contains(&line)
                        {
                            findings.push(Finding {
                                rule: RULE_DEADLINE,
                                file: path.to_string(),
                                line,
                                message: format!(
                                    "`{binding}` flows into `{}` which reads it with no read \
                                     deadline set — call `set_read_timeout` before handing the \
                                     stream off",
                                    ws.fns.get(c).map_or("?", |f| f.name.as_str()),
                                ),
                            });
                        }
                    }
                }
            }
            if sum.writes & bit != 0 && !s.write_deadlined {
                if let Some(p) = s.param {
                    out.writes |= 1u32 << p.min(31);
                }
                if s.is_tcp {
                    if let Some((findings, ctx)) = sink {
                        if !ctx.rule_allowed(RULE_DEADLINE, line) && !ctx.test_lines.contains(&line)
                        {
                            findings.push(Finding {
                                rule: RULE_DEADLINE,
                                file: path.to_string(),
                                line,
                                message: format!(
                                    "`{binding}` flows into `{}` which writes it with no write \
                                     deadline set — call `set_write_timeout` before handing the \
                                     stream off",
                                    ws.fns.get(c).map_or("?", |f| f.name.as_str()),
                                ),
                            });
                        }
                    }
                }
            }
            if sum.sets_read & bit != 0 {
                if let Some(st) = streams.get_mut(binding) {
                    st.read_deadlined = true;
                }
                if let Some(p) = s.param {
                    out.sets_read |= 1u32 << p.min(31);
                }
            }
            if sum.sets_write & bit != 0 {
                if let Some(st) = streams.get_mut(binding) {
                    st.write_deadlined = true;
                }
                if let Some(p) = s.param {
                    out.sets_write |= 1u32 << p.min(31);
                }
            }
        }
    }
}

/// The `deadline` rule: fixpoint the per-fn summaries, then report
/// un-deadlined `std::net` I/O inside the socket runtime. Returns the
/// summaries so the lock analysis can treat a call feeding an un-deadlined
/// stream into I/O as socket-blocking.
pub(crate) fn check_deadline(
    ws: &Workspace,
    typers: &[Typer<'_>],
    ctxs: &HashMap<&str, &FileCtx>,
    all_rules: bool,
    report: &mut Report,
) -> Vec<NetSummary> {
    let summaries = ws.fixpoint_summaries(NetSummary::default(), |i, sums| {
        if ws.fns.get(i).is_some_and(|f| f.is_test) {
            return NetSummary::default();
        }
        let Some(typer) = typers.get(i) else {
            return NetSummary::default();
        };
        analyze_fn(ws, typer, i, sums, None)
    });
    let mut findings = Vec::new();
    for i in 0..ws.fns.len() {
        if ws.fns.get(i).is_some_and(|f| f.is_test) {
            continue;
        }
        let path = ws.path_of(i);
        if !all_rules && !DEADLINE_SCOPE.iter().any(|p| path.starts_with(p)) {
            continue;
        }
        let Some(ctx) = ctxs.get(path) else { continue };
        let Some(typer) = typers.get(i) else { continue };
        analyze_fn(ws, typer, i, &summaries, Some((&mut findings, ctx)));
    }
    report.findings.append(&mut findings);
    summaries
}
