//! `cast-bounds`: narrowing `as` casts in library code must carry local
//! evidence that the value fits.
//!
//! The pack reader's no-OOM-on-corrupt-counts guarantee (PR 8) and the
//! writer's canonical-image guarantee both hang on narrowing conversions
//! (`usize→u32` section offsets, `u64→usize` counts) being *provably*
//! in-range. This rule flags a narrowing cast unless the same function
//! shows one of:
//!
//! * a checked conversion of the same base identifier
//!   (`u32::try_from(n)` / `n.try_into()`),
//! * an explicit range comparison of the base identifier against a
//!   `::MAX` bound — directly or through a local bound to one
//!   (`let cap = u32::MAX as u64; if n > cap { … }`), including
//!   `.min(…MAX…)` clamps,
//! * a suppression with rationale:
//!   `// phocus-lint: allow(cast-bounds) — proof`.
//!
//! The *source* width comes from lexical hints ([`crate::scope`]): a
//! `.len()`/`.count()` chain is `usize`, `let n: u64` and `r.u64()?` are
//! `u64`, float literals are `f64`, parameter types count. A cast whose
//! source width is lexically unknown is **skipped** — that is the
//! documented false-negative envelope, chosen so the rule's findings stay
//! reviewable (flagging all ~270 `as` casts in the workspace would bury
//! the dozen that matter). `usize`/`isize` are 64-bit as sources and
//! 32-bit as targets (portability-conservative in both directions).
//! Float→int casts are always narrowing; int→float precision loss is out
//! of scope. Library crates' `src/` files only, binaries under `src/bin/`
//! included (a CLI narrowing a parsed count is as much a bug as the pack
//! reader doing it); `#[cfg(test)]` regions and module-level consts are
//! exempt (compile-time checkable).

use crate::context::{CrateCategory, FileContext, FileKind};
use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::scope::{literal_hint, FileScopes, FnItem};

/// Source width in bits, with a float marker.
fn src_bits(ty: &str) -> Option<(u32, bool)> {
    Some(match ty {
        "u8" | "i8" => (8, false),
        "u16" | "i16" => (16, false),
        "u32" | "i32" => (32, false),
        "u64" | "i64" | "usize" | "isize" => (64, false),
        "u128" | "i128" => (128, false),
        "f32" => (32, true),
        "f64" => (64, true),
        _ => return None,
    })
}

/// Guaranteed capacity of the target in bits (usize/isize: 32, the
/// smallest supported platform), with a float marker.
fn tgt_cap(ty: &str) -> Option<(u32, bool)> {
    Some(match ty {
        "u8" | "i8" => (8, false),
        "u16" | "i16" => (16, false),
        "u32" | "i32" => (32, false),
        "usize" | "isize" => (32, false),
        "u64" | "i64" => (64, false),
        "u128" | "i128" => (128, false),
        "f32" => (32, true),
        "f64" => (64, true),
        _ => return None,
    })
}

/// Whether `src → tgt` can lose range.
fn is_narrowing(src: &str, tgt: &str) -> bool {
    if src == tgt {
        return false;
    }
    let Some((sb, sf)) = src_bits(src) else {
        return false;
    };
    let Some((tb, tf)) = tgt_cap(tgt) else {
        return false;
    };
    match (sf, tf) {
        (true, false) => true,       // float → int truncates
        (true, true) => sb > tb,     // f64 → f32
        (false, true) => false,      // int → float: precision, not range
        (false, false) => sb > tb,
    }
}

/// Resolved source of a cast: its lexical width hint and, when the source
/// is rooted in a named binding, that base identifier.
struct CastSrc {
    ty: &'static str,
    base: Option<String>,
}

/// Walks backwards from the `as` token to classify the source expression.
fn resolve_src(code: &[Tok], as_idx: usize, item: &FnItem) -> Option<CastSrc> {
    let mut p = as_idx.checked_sub(1)?;
    while code[p].is_punct('?') {
        p = p.checked_sub(1)?;
    }
    let t = &code[p];
    if t.is_punct(')') {
        // Call shape: match back to the opening paren, read the callee.
        let mut depth = 0i32;
        let mut q = p;
        loop {
            if code[q].is_punct(')') {
                depth += 1;
            } else if code[q].is_punct('(') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            q = q.checked_sub(1)?;
        }
        let callee = q.checked_sub(1).map(|c| &code[c])?;
        if callee.kind != TokKind::Ident {
            return None;
        }
        let ty: &'static str = match callee.text.as_str() {
            "len" | "count" | "capacity" => "usize",
            "from_le_bytes" | "from_be_bytes" | "from_ne_bytes" => {
                let qual = q.checked_sub(4).map(|c| &code[c])?;
                crate::scope::PRIMITIVES.iter().find(|pr| **pr == qual.text)?
            }
            other => crate::scope::PRIMITIVES.iter().find(|pr| **pr == other)?,
        };
        // Receiver root: `names.len()` → `names`; `r.u64()` → `r`.
        let mut base = None;
        if let Some(dot) = q.checked_sub(2) {
            if code[dot].is_punct('.') {
                let mut r = dot.checked_sub(1);
                while let Some(ri) = r {
                    if code[ri].kind == TokKind::Ident
                        && !(ri >= 1 && code[ri - 1].is_punct('.'))
                    {
                        base = Some(code[ri].text.clone());
                        break;
                    }
                    if code[ri].kind == TokKind::Ident && ri >= 1 && code[ri - 1].is_punct('.') {
                        r = ri.checked_sub(2);
                        continue;
                    }
                    break;
                }
            }
        }
        return Some(CastSrc { ty, base });
    }
    if t.kind == TokKind::Ident {
        // `T::MAX as …` / `T::MIN as …`: width of the qualifier.
        if (t.text == "MAX" || t.text == "MIN")
            && p >= 3
            && code[p - 1].is_punct(':')
            && code[p - 2].is_punct(':')
        {
            if let Some(pr) = crate::scope::PRIMITIVES
                .iter()
                .find(|pr| **pr == code[p - 3].text)
            {
                return Some(CastSrc { ty: pr, base: None });
            }
        }
        // A field access (`m.local as …`) is not the binding of the same
        // name; its width is unknown here.
        if p >= 1 && code[p - 1].is_punct('.') {
            return None;
        }
        // A plain binding: look up its lexical hint.
        let hinted = item.hints.get(&t.text).copied()?;
        return Some(CastSrc {
            ty: hinted,
            base: Some(t.text.clone()),
        });
    }
    if t.kind == TokKind::Num {
        return literal_hint(&t.text).map(|ty| CastSrc { ty, base: None });
    }
    None
}

/// Same-function evidence that the cast's value fits the target.
fn has_evidence(code: &[Tok], item: &FnItem, base: Option<&str>) -> bool {
    let (open, close) = item.body;
    let end = close.min(code.len());
    let window = 6usize;
    let is_guard_ident =
        |t: &Tok| t.is_ident("MAX") || (t.kind == TokKind::Ident && item.max_bound.contains(&t.text));
    for j in open + 1..end {
        let t = &code[j];
        // Checked conversion of the base: `base.try_into()` or
        // `T::try_from(… base …)`.
        if t.is_ident("try_into") {
            match base {
                None => return true,
                Some(b) => {
                    if j >= 2 && code[j - 1].is_punct('.') && code[j - 2].is_ident(b) {
                        return true;
                    }
                }
            }
        }
        if t.is_ident("try_from") {
            match base {
                None => return true,
                Some(b) => {
                    let lo = j + 1;
                    let hi = (j + 2 + window).min(end);
                    if code[lo..hi].iter().any(|w| w.is_ident(b)) {
                        return true;
                    }
                }
            }
        }
        // Range comparison or clamp against a MAX-derived bound.
        let is_cmp = t.is_punct('<') || t.is_punct('>');
        let is_clamp = (t.is_ident("min") || t.is_ident("clamp"))
            && j >= 1
            && code[j - 1].is_punct('.');
        if is_cmp || is_clamp {
            let lo = j.saturating_sub(window);
            let hi = (j + 1 + window).min(end);
            let win = &code[lo..hi];
            let has_bound = win.iter().any(is_guard_ident);
            let has_base = match base {
                Some(b) => win.iter().any(|w| w.is_ident(b)),
                None => true,
            };
            if has_bound && has_base {
                return true;
            }
        }
    }
    false
}

/// Runs the rule over one file.
pub fn check(ctx: &FileContext<'_>, scopes: &FileScopes, out: &mut Vec<Diagnostic>) {
    if ctx.spec.category != CrateCategory::Library
        || !matches!(ctx.spec.kind, FileKind::Lib | FileKind::Bin)
    {
        return;
    }
    for item in &scopes.fns {
        if ctx.in_test_region(item.fn_line) {
            continue;
        }
        let (open, close) = item.body;
        let end = close.min(ctx.code.len());
        for j in open + 1..end {
            let t = &ctx.code[j];
            if !t.is_ident("as") {
                continue;
            }
            if ctx.in_test_region(t.line) {
                continue;
            }
            // Innermost-fn attribution: skip tokens owned by a nested item.
            if scopes.fn_of(j).is_some_and(|f| f.body != item.body) {
                continue;
            }
            let Some(tgt_tok) = ctx.code.get(j + 1) else {
                continue;
            };
            let Some(tgt) = crate::scope::PRIMITIVES
                .iter()
                .find(|p| tgt_tok.is_ident(p))
            else {
                continue;
            };
            let Some(src) = resolve_src(&ctx.code, j, item) else {
                continue;
            };
            if !is_narrowing(src.ty, tgt) {
                continue;
            }
            if has_evidence(&ctx.code, item, src.base.as_deref()) {
                continue;
            }
            let subject = match &src.base {
                Some(b) => format!("`{b}` ({})", src.ty),
                None => format!("a {} value", src.ty),
            };
            let remedy = if matches!(*tgt, "f32" | "f64") {
                "clamp the value or compare against the target's `::MAX` in this \
                 function, or `allow(cast-bounds)` with a rationale"
                    .to_string()
            } else {
                format!(
                    "use `{tgt}::try_from` with a typed error, compare against the \
                     target's `::MAX` in this function, or `allow(cast-bounds)` with a \
                     rationale"
                )
            };
            ctx.emit(
                out,
                "cast-bounds",
                t.line,
                t.col,
                format!("narrowing cast of {subject} to {tgt} without local evidence; {remedy}"),
            );
        }
    }
}
