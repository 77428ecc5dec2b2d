//! Lightweight scope and item tracking over the token stream.
//!
//! The source rules (R2, R6–R8) need more context than a single line can
//! carry: whether `HashMap` in this file *is* `std::collections::HashMap`,
//! which local names are bound to hash-ordered collections, and which
//! token spans lie inside a `parallel_map`/`spawn` call whose closure runs
//! on worker threads. [`FileContext`] computes all of that in one pass.
//!
//! This is deliberately not a type checker. It resolves `use` declarations
//! (including nested `{…}` groups and `as` renames), tracks bindings whose
//! type ascription or initializer names a resolved hash collection or
//! float type, and delimits call-argument regions by matching parentheses.
//! The approximation is sound for the patterns the audit enforces; the
//! suppression ledger covers the rest.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// A significant (non-whitespace, non-comment) token with its stream
/// position, used by the semantic rules.
#[derive(Debug, Clone)]
pub struct SigToken {
    /// Index into the full token stream.
    pub token_index: usize,
    /// The token's kind.
    pub kind: TokenKind,
    /// The token's exact text.
    pub text: String,
    /// 1-based source line.
    pub line: usize,
}

/// Everything the semantic rules need to know about one source file.
#[derive(Debug)]
pub struct FileContext {
    /// The full lossless token stream.
    pub tokens: Vec<Token>,
    /// Significant tokens only, in stream order.
    pub sig: Vec<SigToken>,
    /// `use`-declaration resolution: local name → full path
    /// (`HashMap` → `std::collections::HashMap`).
    pub imports: BTreeMap<String, String>,
    /// Local names bound to `std::collections::HashMap`/`HashSet` via a
    /// type ascription (`m: &HashMap<…>`) or initializer
    /// (`let m = HashMap::new()`).
    pub hash_bindings: BTreeSet<String>,
    /// Local names bound to `f64`/`f32` via ascription or a float-literal
    /// initializer (`let mut total = 0.0`).
    pub float_bindings: BTreeSet<String>,
    /// Sig-index ranges covering the argument lists of `parallel_map(…)` /
    /// `spawn(…)` calls — code inside runs on worker threads under the
    /// pool's deterministic-merge contract.
    pub parallel_regions: Vec<ParallelRegion>,
}

/// One `parallel_map`/`spawn` call-argument region.
#[derive(Debug)]
pub struct ParallelRegion {
    /// The spawning function's name (`parallel_map` or `spawn`).
    pub callee: String,
    /// Sig index of the opening parenthesis.
    pub start: usize,
    /// Sig index one past the matching closing parenthesis.
    pub end: usize,
    /// Names declared *inside* the region: closure parameters and `let`
    /// bindings. A mutation of anything else is a captured accumulator.
    pub declared: BTreeSet<String>,
}

impl ParallelRegion {
    /// Whether sig index `i` lies inside this region.
    pub fn contains(&self, i: usize) -> bool {
        (self.start..self.end).contains(&i)
    }
}

/// Functions whose call arguments execute on worker threads.
const PARALLEL_CALLEES: &[&str] = &["parallel_map", "spawn"];

impl FileContext {
    /// Lexes and analyzes one source file.
    pub fn analyze(text: &str) -> FileContext {
        let tokens = lex(text);
        let sig: Vec<SigToken> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_significant())
            .map(|(i, t)| SigToken {
                token_index: i,
                kind: t.kind,
                text: t.text.clone(),
                line: t.line,
            })
            .collect();

        let imports = collect_imports(&sig);
        let mut ctx = FileContext {
            tokens,
            sig,
            imports,
            hash_bindings: BTreeSet::new(),
            float_bindings: BTreeSet::new(),
            parallel_regions: Vec::new(),
        };
        ctx.collect_bindings();
        ctx.collect_parallel_regions();
        ctx
    }

    /// Resolves the path ending at sig index `i` (an identifier) to a full
    /// path using leading `seg::seg::` segments and the import table:
    /// `collections::HashMap` with `use std::collections;` resolves to
    /// `std::collections::HashMap`.
    pub fn resolve(&self, i: usize) -> String {
        let mut segments = vec![self.sig[i].text.clone()];
        let mut j = i;
        // Walk back over `ident ::` pairs.
        while j >= 3
            && self.sig[j - 1].text == ":"
            && self.sig[j - 2].text == ":"
            && self.sig[j - 3].kind == TokenKind::Ident
        {
            segments.push(self.sig[j - 3].text.clone());
            j -= 3;
        }
        segments.reverse();
        // Expand the head through the import table (`collections` →
        // `std::collections`). Absolute heads pass through unchanged.
        if let Some(full) = self.imports.get(&segments[0]) {
            segments[0] = full.clone();
        }
        segments.join("::")
    }

    /// Whether the identifier at sig index `i` resolves to `full_path`
    /// (an absolute `std::…` path, matched with or without the `std::`
    /// prefix spelled out at the use site).
    pub fn resolves_to(&self, i: usize, full_path: &str) -> bool {
        let resolved = self.resolve(i);
        resolved == full_path || Some(resolved.as_str()) == full_path.strip_prefix("std::")
    }

    /// Whether the identifier at sig index `i` names a std hash-ordered
    /// collection type (`HashMap`/`HashSet`), resolved through imports or
    /// written as a full path. A bare `HashMap` with no import in scope
    /// also counts — the decision-path crates have no competing type of
    /// that name, and a custom import (`use crate::x::HashMap`) un-counts.
    pub fn is_hash_type(&self, i: usize) -> bool {
        if self.sig[i].kind != TokenKind::Ident {
            return false;
        }
        let t = self.sig[i].text.as_str();
        if t != "HashMap" && t != "HashSet" {
            return false;
        }
        let resolved = self.resolve(i);
        resolved == format!("std::collections::{t}")
            || resolved == format!("collections::{t}")
            || resolved == t
    }

    /// Sig-token pattern scan: bindings typed or initialized as hash
    /// collections or floats.
    fn collect_bindings(&mut self) {
        let n = self.sig.len();
        let mut hash = Vec::new();
        let mut float = Vec::new();
        for i in 0..n {
            // `name :` ascription (not `name ::` path) — scan the type
            // expression up to a statement-ish boundary.
            if self.sig[i].kind == TokenKind::Ident
                && i + 2 < n
                && self.sig[i + 1].text == ":"
                && self.sig[i + 2].text != ":"
                && (i == 0 || self.sig[i - 1].text != ":")
            {
                let name = self.sig[i].text.clone();
                let limit = (i + 24).min(n);
                for j in i + 2..limit {
                    let t = self.sig[j].text.as_str();
                    if t == ";" || t == "=" || t == "{" || t == ")" || t == "," {
                        break;
                    }
                    if self.is_hash_type(j) {
                        hash.push(name.clone());
                        break;
                    }
                    if t == "f64" || t == "f32" {
                        float.push(name.clone());
                        break;
                    }
                }
            }
            // `let [mut] name = …;` initializer scan.
            if self.sig[i].text == "let" && self.sig[i].kind == TokenKind::Ident {
                let mut j = i + 1;
                if j < n && self.sig[j].text == "mut" {
                    j += 1;
                }
                if j >= n || self.sig[j].kind != TokenKind::Ident {
                    continue;
                }
                let name = self.sig[j].text.clone();
                // Find `=` before `;` (ascriptions are handled above).
                let mut k = j + 1;
                let limit = (i + 200).min(n);
                while k < limit && self.sig[k].text != "=" && self.sig[k].text != ";" {
                    k += 1;
                }
                if k >= limit || self.sig[k].text != "=" {
                    continue;
                }
                let mut m = k + 1;
                let mut saw_hash = false;
                while m < limit && self.sig[m].text != ";" {
                    if self.is_hash_type(m) {
                        saw_hash = true;
                        break;
                    }
                    m += 1;
                }
                if saw_hash {
                    hash.push(name);
                } else if m == k + 2
                    && self.sig[k + 1].kind == TokenKind::Number
                    && is_float_literal(&self.sig[k + 1].text)
                {
                    // Only the direct `= 0.0;` form: a float literal deep
                    // inside a longer initializer says nothing about the
                    // binding's own type.
                    float.push(name);
                }
            }
        }
        self.hash_bindings.extend(hash);
        self.float_bindings.extend(float);
    }

    /// Finds `parallel_map(…)` / `spawn(…)` call-argument spans and the
    /// names declared inside each (closure params, `let` bindings).
    fn collect_parallel_regions(&mut self) {
        let n = self.sig.len();
        let mut regions = Vec::new();
        for i in 0..n.saturating_sub(1) {
            if self.sig[i].kind != TokenKind::Ident
                || !PARALLEL_CALLEES.contains(&self.sig[i].text.as_str())
                || self.sig[i + 1].text != "("
            {
                continue;
            }
            let start = i + 1;
            let mut depth = 0i64;
            let mut end = n;
            for (j, tok) in self.sig.iter().enumerate().skip(start) {
                match tok.text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            end = j + 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let mut declared = BTreeSet::new();
            let mut j = start;
            while j < end {
                let t = self.sig[j].text.as_str();
                if t == "let" {
                    let mut k = j + 1;
                    if k < end && self.sig[k].text == "mut" {
                        k += 1;
                    }
                    if k < end && self.sig[k].kind == TokenKind::Ident {
                        declared.insert(self.sig[k].text.clone());
                    }
                } else if t == "|" {
                    // Closure parameter list: collect idents up to the
                    // closing `|` (over-collection of type names inside is
                    // harmless — it only widens "declared here").
                    let mut k = j + 1;
                    while k < end && self.sig[k].text != "|" {
                        if self.sig[k].kind == TokenKind::Ident {
                            declared.insert(self.sig[k].text.clone());
                        }
                        k += 1;
                    }
                    j = k;
                }
                j += 1;
            }
            regions.push(ParallelRegion {
                callee: self.sig[i].text.clone(),
                start,
                end,
                declared,
            });
        }
        self.parallel_regions = regions;
    }

    /// The sig-index range of the statement containing sig index `i`:
    /// back to just past the previous `;`/`{`/`}` and forward through the
    /// next one.
    pub fn statement_range(&self, i: usize) -> (usize, usize) {
        let mut start = i;
        while start > 0 {
            let t = self.sig[start - 1].text.as_str();
            if t == ";" || t == "{" || t == "}" {
                break;
            }
            start -= 1;
        }
        let mut end = i;
        while end < self.sig.len() {
            let t = self.sig[end].text.as_str();
            end += 1;
            if t == ";" || t == "{" || t == "}" {
                break;
            }
        }
        (start, end)
    }
}

/// Whether a numeric literal is a float (`0.0`, `1e3` decimal exponent,
/// or an `f32`/`f64` suffix).
pub fn is_float_literal(text: &str) -> bool {
    text.contains('.')
        || text.ends_with("f64")
        || text.ends_with("f32")
        || (!text.starts_with("0x")
            && !text.starts_with("0b")
            && !text.starts_with("0o")
            && (text.contains('e') || text.contains('E')))
}

/// Parses every `use` declaration in the significant-token stream into
/// `local name → full path` entries. Handles nested groups
/// (`use std::sync::{Arc, atomic::{AtomicU64, Ordering}};`), renames
/// (`as`), and ignores globs.
fn collect_imports(sig: &[SigToken]) -> BTreeMap<String, String> {
    let mut imports = BTreeMap::new();
    let mut i = 0;
    while i < sig.len() {
        if sig[i].kind == TokenKind::Ident && sig[i].text == "use" {
            let mut j = i + 1;
            parse_use_tree(sig, &mut j, String::new(), &mut imports);
            i = j.max(i + 1);
        } else {
            i += 1;
        }
    }
    imports
}

/// Recursive-descent parse of one use-tree level; `prefix` is the path
/// accumulated so far (`std::sync::`). Advances `*j` to the terminator
/// (`;`, `,` or past a closed group).
fn parse_use_tree(
    sig: &[SigToken],
    j: &mut usize,
    prefix: String,
    imports: &mut BTreeMap<String, String>,
) {
    let mut path = prefix;
    let mut last_segment = String::new();
    while *j < sig.len() {
        let t = sig[*j].text.as_str();
        match t {
            ";" | "," | "}" => {
                if !last_segment.is_empty() {
                    record_leaf(imports, &path, &last_segment, &last_segment);
                }
                return;
            }
            ":" => {
                *j += 1;
                if *j < sig.len() && sig[*j].text == ":" {
                    *j += 1;
                }
                if !last_segment.is_empty() {
                    path.push_str(&last_segment);
                    path.push_str("::");
                    last_segment.clear();
                }
            }
            "{" => {
                *j += 1;
                loop {
                    if *j >= sig.len() {
                        return;
                    }
                    if sig[*j].text == "}" {
                        *j += 1;
                        return;
                    }
                    parse_use_tree(sig, j, path.clone(), imports);
                    if *j < sig.len() && sig[*j].text == "," {
                        *j += 1;
                    }
                }
            }
            "as" => {
                *j += 1;
                if *j < sig.len() && sig[*j].kind == TokenKind::Ident {
                    record_leaf(imports, &path, &last_segment, &sig[*j].text);
                    last_segment.clear();
                    *j += 1;
                }
            }
            "*" => {
                last_segment.clear();
                *j += 1;
            }
            _ if sig[*j].kind == TokenKind::Ident => {
                last_segment = sig[*j].text.clone();
                *j += 1;
            }
            _ => {
                *j += 1;
            }
        }
    }
    if !last_segment.is_empty() {
        record_leaf(imports, &path, &last_segment, &last_segment);
    }
}

fn record_leaf(imports: &mut BTreeMap<String, String>, path: &str, segment: &str, local: &str) {
    if local == "self" {
        return;
    }
    let full = if segment == "self" || segment.is_empty() {
        path.trim_end_matches(':').to_owned()
    } else {
        format!("{path}{segment}")
    };
    if full.is_empty() {
        return;
    }
    imports.insert(local.to_owned(), full);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imports_resolve_nested_groups_and_renames() {
        let ctx = FileContext::analyze(
            "use std::collections::{HashMap, HashSet};\n\
             use std::sync::{Arc, atomic::{AtomicU64, Ordering}};\n\
             use std::time::Instant as Clock;\n\
             use std::collections;\n",
        );
        assert_eq!(
            ctx.imports.get("HashMap").map(String::as_str),
            Some("std::collections::HashMap")
        );
        assert_eq!(
            ctx.imports.get("HashSet").map(String::as_str),
            Some("std::collections::HashSet")
        );
        assert_eq!(
            ctx.imports.get("Arc").map(String::as_str),
            Some("std::sync::Arc")
        );
        assert_eq!(
            ctx.imports.get("AtomicU64").map(String::as_str),
            Some("std::sync::atomic::AtomicU64")
        );
        assert_eq!(
            ctx.imports.get("Ordering").map(String::as_str),
            Some("std::sync::atomic::Ordering")
        );
        assert_eq!(
            ctx.imports.get("Clock").map(String::as_str),
            Some("std::time::Instant")
        );
        assert_eq!(
            ctx.imports.get("collections").map(String::as_str),
            Some("std::collections")
        );
    }

    #[test]
    fn resolve_walks_path_segments_and_imports() {
        let ctx = FileContext::analyze(
            "use std::collections;\n\
             fn f() { let m = collections::HashMap::new(); let t = std::time::Instant::now(); }\n",
        );
        let hm = ctx.sig.iter().position(|t| t.text == "HashMap").unwrap();
        assert!(ctx.is_hash_type(hm));
        let instant = ctx.sig.iter().position(|t| t.text == "Instant").unwrap();
        assert!(ctx.resolves_to(instant, "std::time::Instant"));
    }

    #[test]
    fn custom_hashmap_is_not_std() {
        let ctx =
            FileContext::analyze("use crate::fast::HashMap;\nfn f(m: &HashMap<u32, u32>) {}\n");
        let hm = ctx.sig.iter().rposition(|t| t.text == "HashMap").unwrap();
        assert!(!ctx.is_hash_type(hm));
        assert!(ctx.hash_bindings.is_empty());
    }

    #[test]
    fn hash_and_float_bindings_from_ascription_and_initializer() {
        let ctx = FileContext::analyze(
            "use std::collections::{HashMap, HashSet};\n\
             fn f(m: &HashMap<String, f64>, n: usize) {\n\
                 let mut s = HashSet::new();\n\
                 let mut total: f64 = 0.0;\n\
                 let mut acc = 0.0;\n\
                 let v = vec![1.5, 2.5];\n\
                 let k = 3;\n\
             }\n",
        );
        assert!(ctx.hash_bindings.contains("m"));
        assert!(ctx.hash_bindings.contains("s"));
        assert!(!ctx.hash_bindings.contains("n"));
        assert!(ctx.float_bindings.contains("total"));
        assert!(ctx.float_bindings.contains("acc"));
        assert!(
            !ctx.float_bindings.contains("v"),
            "literal deep in an initializer is not a float binding"
        );
        assert!(!ctx.float_bindings.contains("k"));
    }

    #[test]
    fn parallel_regions_span_call_args_and_track_declared() {
        let ctx = FileContext::analyze(
            "fn f(items: &[f64]) -> f64 {\n\
                 let mut total = 0.0;\n\
                 let parts = parallel_map(items, 4, |i, x| { let y = x * 2.0; y });\n\
                 parts.iter().sum::<f64>()\n\
             }\n",
        );
        assert_eq!(ctx.parallel_regions.len(), 1);
        let region = &ctx.parallel_regions[0];
        assert_eq!(region.callee, "parallel_map");
        assert!(region.declared.contains("i"));
        assert!(region.declared.contains("x"));
        assert!(region.declared.contains("y"));
        assert!(!region.declared.contains("total"));
        // The trailing `.sum` lies outside the region.
        let sum = ctx.sig.iter().position(|t| t.text == "sum").unwrap();
        assert!(!region.contains(sum));
    }

    #[test]
    fn statement_range_brackets_by_semicolons_and_braces() {
        let ctx = FileContext::analyze("fn f() { let a = 1; let b = 2; }\n");
        let b = ctx.sig.iter().position(|t| t.text == "b").unwrap();
        let (start, end) = ctx.statement_range(b);
        let texts: Vec<&str> = ctx.sig[start..end]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(texts, vec!["let", "b", "=", "2", ";"]);
    }

    #[test]
    fn float_literal_classification() {
        assert!(is_float_literal("0.0"));
        assert!(is_float_literal("1e3"));
        assert!(is_float_literal("2f64"));
        assert!(!is_float_literal("42"));
        assert!(!is_float_literal("0xEf"));
    }
}
