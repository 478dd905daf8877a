//! Pass 1 of the cross-file analysis: a per-file item index built from the
//! token stream ([`crate::tokens`]), aggregated into a workspace index.
//!
//! The extractor is syntactic and forgiving — it recognizes exactly the
//! shapes the registry and hot-path rules consume:
//!
//! * `enum Name { Variant(Payload), … }` — variants with their first
//!   payload type identifier (the registry's member list). A variant may
//!   carry a trailing `= …` up to the next top-level comma, so the rows of
//!   a `policy_zoo!` table (`Lru(Lru) = "lru" => Lru::new(),`) index as
//!   variants too,
//! * `fn name(…) { … }` definitions with their body line/token span,
//!   skipping anything inside a `mod tests { … }` block,
//! * the set of all identifiers and (lowercased) string literals in the
//!   file (the reference legs).

use crate::tokens::{tokenize, TokKind, Token};
use std::collections::BTreeSet;

/// One enum variant.
#[derive(Clone, Debug)]
pub struct Variant {
    pub name: String,
    /// First identifier inside a tuple payload (`Lru` in `Lru(Lru)`,
    /// `ThermometerPolicy` in `Thermometer(ThermometerPolicy)`).
    pub payload: Option<String>,
    pub line: usize,
}

/// An `enum` definition.
#[derive(Clone, Debug)]
pub struct EnumDef {
    pub name: String,
    pub line: usize,
    pub variants: Vec<Variant>,
}

/// A function definition and its extent.
#[derive(Clone, Debug)]
pub struct FnDef {
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Last line of the body.
    pub end_line: usize,
    /// Line holding the body's opening `{` (where the self-check inserts
    /// its seeded statements).
    pub body_open_line: usize,
    /// Token index range `[start, end]` from the `fn` keyword to the
    /// closing brace, inclusive.
    pub tok_range: (usize, usize),
    /// Whether the definition sits inside a `mod tests { … }` block.
    pub in_tests: bool,
}

/// Everything extracted from one file.
#[derive(Clone, Debug, Default)]
pub struct FileIndex {
    pub tokens: Vec<Token>,
    pub enums: Vec<EnumDef>,
    pub fns: Vec<FnDef>,
    /// Every identifier in the file (including test modules: a policy
    /// exercised only from `#[cfg(test)]` code still counts as exercised).
    pub idents: BTreeSet<String>,
    /// Every string-literal value, lowercased (figure column headers use
    /// display case: `"SRRIP"`, `"Hawkeye"`).
    pub strings_lower: BTreeSet<String>,
}

impl FileIndex {
    pub fn enum_def(&self, name: &str) -> Option<&EnumDef> {
        self.enums.iter().find(|e| e.name == name)
    }

    /// Non-test function definitions named `name`.
    pub fn fns_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a FnDef> {
        self.fns
            .iter()
            .filter(move |f| f.name == name && !f.in_tests)
    }
}

/// The whole workspace, keyed by forward-slash relative path, in walk
/// (sorted) order.
#[derive(Clone, Debug, Default)]
pub struct WorkspaceIndex {
    pub files: Vec<(String, FileIndex)>,
}

impl WorkspaceIndex {
    pub fn file(&self, rel: &str) -> Option<&FileIndex> {
        self.files
            .iter()
            .find(|(r, _)| r == rel)
            .map(|(_, idx)| idx)
    }
}

/// Indexes one file.
pub fn index_file(source: &str) -> FileIndex {
    let tokens = tokenize(source);
    let mut idx = FileIndex::default();

    for t in &tokens {
        match t.kind {
            TokKind::Ident => {
                idx.idents.insert(t.text.clone());
            }
            TokKind::Str => {
                idx.strings_lower.insert(t.text.to_lowercase());
            }
            _ => {}
        }
    }

    // `mod tests { … }` spans, so fn extraction can skip them.
    let test_spans = test_mod_spans(&tokens);
    let in_tests = |i: usize| test_spans.iter().any(|&(a, b)| i > a && i < b);

    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("enum") {
            if let Some(e) = parse_enum(&tokens, i) {
                idx.enums.push(e);
            }
        } else if t.is_ident("fn") && tokens.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            if let Some(f) = parse_fn(&tokens, i, in_tests(i)) {
                idx.fns.push(f);
            }
        }
    }

    idx.tokens = tokens;
    idx
}

/// Finds the token spans of `mod tests { … }` blocks (the repo convention
/// for unit-test modules).
fn test_mod_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].is_ident("mod")
            && tokens.get(i + 1).is_some_and(|t| t.is_ident("tests"))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('{'))
        {
            if let Some(close) = group_end(tokens, i + 2) {
                spans.push((i + 2, close));
            }
        }
    }
    spans
}

/// Index of the token closing the bracket group (`(…)`, `[…]` or `{…}`)
/// opened at `open`.
fn group_end(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('(' | '[' | '{') => depth += 1,
            TokKind::Punct(')' | ']' | '}') => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

fn is_group_open(t: &Token) -> bool {
    matches!(t.kind, TokKind::Punct('(' | '[' | '{'))
}

/// `enum Name { Variant, Variant(Payload), Variant { … }, … }`. Whatever
/// follows a variant's name up to the next comma at nesting depth 0 — its
/// payload, a `= discriminant`, or a zoo row's `= "name" => ctor` — is
/// skipped.
fn parse_enum(tokens: &[Token], at: usize) -> Option<EnumDef> {
    let name_tok = tokens.get(at + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    // Skip generics to the body brace.
    let mut j = at + 2;
    while j < tokens.len() && !tokens[j].is_punct('{') {
        if tokens[j].is_punct(';') {
            return None;
        }
        j += 1;
    }
    let close = group_end(tokens, j)?;
    let mut variants = Vec::new();
    let mut k = j + 1;
    while k < close {
        let t = &tokens[k];
        if is_group_open(t) {
            // A variant attribute's `[…]`.
            k = group_end(tokens, k)? + 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            k += 1;
            continue;
        }
        // Tuple payload: record its first identifier.
        let payload = tokens
            .get(k + 1)
            .filter(|p| p.is_punct('('))
            .and_then(|_| {
                tokens[k + 2..close]
                    .iter()
                    .take_while(|t| !t.is_punct(')'))
                    .find(|t| t.kind == TokKind::Ident)
            })
            .map(|p| p.text.clone());
        variants.push(Variant {
            name: t.text.clone(),
            payload,
            line: t.line,
        });
        k += 1;
        while k < close && !tokens[k].is_punct(',') {
            k = if is_group_open(&tokens[k]) {
                group_end(tokens, k)? + 1
            } else {
                k + 1
            };
        }
        k += 1;
    }
    Some(EnumDef {
        name: name_tok.text.clone(),
        line: name_tok.line,
        variants,
    })
}

/// `fn name … { … }`. Returns `None` for bodyless declarations (trait
/// methods, extern fns).
fn parse_fn(tokens: &[Token], at: usize, in_tests: bool) -> Option<FnDef> {
    let name_tok = &tokens[at + 1];
    // The body `{` is the first one at zero paren/bracket/angle-free
    // nesting after the signature; a `;` first means no body.
    let mut j = at + 2;
    let mut paren = 0isize;
    let mut bracket = 0isize;
    while j < tokens.len() {
        match tokens[j].kind {
            TokKind::Punct('(') => paren += 1,
            TokKind::Punct(')') => paren -= 1,
            TokKind::Punct('[') => bracket += 1,
            TokKind::Punct(']') => bracket -= 1,
            TokKind::Punct('{') if paren == 0 && bracket == 0 => break,
            TokKind::Punct(';') if paren == 0 && bracket == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    if j >= tokens.len() {
        return None;
    }
    let close = group_end(tokens, j)?;
    Some(FnDef {
        name: name_tok.text.clone(),
        line: name_tok.line,
        end_line: tokens[close].line,
        body_open_line: tokens[j].line,
        tok_range: (at, close),
        in_tests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
pub enum Kind {
    /// docs
    Lru(Lru),
    #[allow(dead_code)]
    Fifo(Fifo),
    Bare,
    Point { x: u8, y: u8 },
    Tagged = 3,
}

impl Kind {
    pub fn by_name(name: &str) -> Option<Self> {
        Some(match name {
            "lru" => Self::Lru(Lru::new()),
            _ => return None,
        })
    }
}

fn hot(xs: &[u64]) -> u64 {
    xs[0]
}

mod tests {
    fn helper() {}
}
"#;

    #[test]
    fn enums_with_payloads() {
        let idx = index_file(SRC);
        let e = idx.enum_def("Kind").expect("Kind indexed");
        let names: Vec<_> = e.variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["Lru", "Fifo", "Bare", "Point", "Tagged"]);
        assert_eq!(e.variants[0].payload.as_deref(), Some("Lru"));
        assert_eq!(e.variants[1].payload.as_deref(), Some("Fifo"));
        assert_eq!(e.variants[2].payload, None);
        assert_eq!(e.variants[3].payload, None);
    }

    #[test]
    fn zoo_table_rows_are_variants_without_ghosts() {
        let src = r#"
policy_zoo! {
    pub enum PolicyKind {
        Lru(Lru) = "lru" => Lru::new(),
        Random(Random) = "random" => Random::with_seed(0x5eed),
    }
}
"#;
        let idx = index_file(src);
        let e = idx.enum_def("PolicyKind").expect("table indexed");
        let got: Vec<_> = e
            .variants
            .iter()
            .map(|v| (v.name.as_str(), v.payload.as_deref()))
            .collect();
        assert_eq!(got, vec![("Lru", Some("Lru")), ("Random", Some("Random"))]);
        assert_eq!(e.variants[1].line, 5);
    }

    #[test]
    fn fns_and_test_mods() {
        let idx = index_file(SRC);
        let hot = idx.fns_named("hot").next().expect("hot indexed");
        assert!(hot.body_open_line > 0 && hot.end_line > hot.body_open_line);
        assert!(idx.fns_named("by_name").next().is_some());
        assert!(idx.fns_named("helper").next().is_none(), "tests skipped");
        assert!(idx.fns.iter().any(|f| f.name == "helper" && f.in_tests));
        assert!(idx.idents.contains("Lru"));
        assert!(idx.strings_lower.contains("lru"));
    }
}
