//! A small Rust line scanner: separates code from comments and blanks out
//! literals, so rule matching never fires inside a string, a char literal,
//! or a comment.
//!
//! This is deliberately not a full lexer. It understands exactly what the
//! rules need:
//!
//! * line comments (`//`, and the doc forms `///` / `//!`),
//! * nested block comments (`/* /* */ */`),
//! * string literals with escapes, raw strings (`r"…"`, `r#"…"#`),
//!   byte-string variants (`b"…"`, `br#"…"#`),
//! * char literals vs. lifetimes (`'a'` is a literal, `'env` is not).
//!
//! The output keeps byte columns aligned with the input: every non-code
//! byte is replaced by a space in [`Line::code`], so a rule hit's column
//! number points at the real source location.

/// One scanned source line.
#[derive(Clone, Debug)]
pub struct Line {
    /// The line with comments and literal *contents* blanked to spaces
    /// (column-preserving). Rule matching happens on this.
    pub code: String,
    /// Concatenated text of every comment on this line (line comments and
    /// any block-comment portion), without the `//` / `/*` markers.
    pub comment: String,
    /// Whether the comment on this line is a doc comment (`///` or `//!`).
    pub doc_comment: bool,
}

impl Line {
    /// Whether the line holds no code at all (blank or comment-only).
    pub fn is_comment_only(&self) -> bool {
        self.code.trim().is_empty()
    }

    /// Whether the line carries any comment text.
    pub fn has_comment(&self) -> bool {
        !self.comment.trim().is_empty()
    }
}

/// An in-source suppression: `// simlint: allow(D01, D03) -- reason`.
#[derive(Clone, Debug)]
pub struct Suppression {
    /// 1-based line the comment sits on.
    pub line: usize,
    /// Rule ids named in the `allow(...)` list.
    pub rules: Vec<String>,
    /// Text after `--`; `None` when the author forgot the justification
    /// (which is itself a diagnostic, rule X01).
    pub reason: Option<String>,
}

/// A whole scanned file.
#[derive(Clone, Debug)]
pub struct Scanned {
    pub lines: Vec<Line>,
    pub suppressions: Vec<Suppression>,
}

impl Scanned {
    /// Whether a diagnostic of `rule` on 1-based `line` is suppressed by an
    /// in-source `simlint: allow`. A suppression covers its own line; a
    /// comment-only suppression line also covers the next line, so it can
    /// sit above the offending statement.
    pub fn is_suppressed(&self, rule: &str, line: usize) -> bool {
        self.suppression_covering(rule, line).is_some()
    }

    /// Index (into [`Scanned::suppressions`]) of the suppression covering a
    /// diagnostic of `rule` on 1-based `line`, if any. The engine uses the
    /// index to track which suppressions actually fired (rule X02).
    pub fn suppression_covering(&self, rule: &str, line: usize) -> Option<usize> {
        self.suppressions.iter().position(|s| {
            if !s.rules.iter().any(|r| r == rule) || s.reason.is_none() {
                return false;
            }
            if s.line == line {
                return true;
            }
            s.line + 1 == line && self.lines[s.line - 1].is_comment_only()
        })
    }

    /// Whether a `SAFETY:` comment covers 1-based `line`: on the line
    /// itself or in the contiguous comment block immediately above it.
    pub fn has_safety_comment(&self, line: usize) -> bool {
        let idx = line - 1;
        if self.lines[idx].comment.contains("SAFETY:") {
            return true;
        }
        let mut i = idx;
        while i > 0 && self.lines[i - 1].is_comment_only() && self.lines[i - 1].has_comment() {
            i -= 1;
            if self.lines[i].comment.contains("SAFETY:") {
                return true;
            }
        }
        false
    }
}

#[derive(Copy, Clone, PartialEq)]
enum Mode {
    Code,
    LineComment { doc: bool },
    BlockComment { depth: usize },
    Str,
    RawStr { hashes: usize },
    Char,
}

/// Blanks one non-code char with one space per UTF-8 byte, so byte
/// columns in [`Line::code`] match the source.
fn blank(code: &mut String, c: char) {
    code.extend(std::iter::repeat_n(' ', c.len_utf8()));
}

/// Scans `source` into per-line code/comment channels.
pub fn scan(source: &str) -> Scanned {
    let mut lines: Vec<Line> = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut doc = false;
    let mut mode = Mode::Code;

    let bytes: Vec<char> = source.chars().collect();
    let mut i = 0usize;
    let n = bytes.len();

    macro_rules! flush_line {
        () => {{
            lines.push(Line {
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
                doc_comment: std::mem::take(&mut doc),
            });
        }};
    }

    while i < n {
        let c = bytes[i];
        if c == '\n' {
            // A line comment ends with the line; block constructs continue.
            if let Mode::LineComment { .. } = mode {
                mode = Mode::Code;
            }
            flush_line!();
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                let next = bytes.get(i + 1).copied();
                match c {
                    '/' if next == Some('/') => {
                        let third = bytes.get(i + 2).copied();
                        let is_doc = third == Some('/') || third == Some('!');
                        mode = Mode::LineComment { doc: is_doc };
                        doc = doc || is_doc;
                        code.push_str("  ");
                        i += 2;
                    }
                    '/' if next == Some('*') => {
                        mode = Mode::BlockComment { depth: 1 };
                        code.push_str("  ");
                        i += 2;
                    }
                    '"' => {
                        mode = Mode::Str;
                        code.push(' ');
                        i += 1;
                    }
                    'r' | 'b' => {
                        // Raw / byte string starts: r", r#", br", b".
                        let mut j = i + 1;
                        if c == 'b' && bytes.get(j) == Some(&'r') {
                            j += 1;
                        }
                        let mut hashes = 0usize;
                        while bytes.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        let raw_marker = j > i + 1 || hashes > 0;
                        if bytes.get(j) == Some(&'"') && (c == 'r' || raw_marker || c == 'b') {
                            if c == 'b' && j == i + 1 {
                                // plain byte string b"…"
                                mode = Mode::Str;
                            } else {
                                mode = Mode::RawStr { hashes };
                            }
                            for _ in i..=j {
                                code.push(' ');
                            }
                            i = j + 1;
                        } else {
                            code.push(c);
                            i += 1;
                        }
                    }
                    '\'' => {
                        // Char literal or lifetime. `'\…'` and `'x'` are
                        // literals; `'ident` (no closing quote) is a
                        // lifetime and stays code.
                        if next == Some('\\') {
                            mode = Mode::Char;
                            code.push(' ');
                            i += 1;
                        } else if let (Some(x), Some('\'')) = (next, bytes.get(i + 2).copied()) {
                            code.push(' ');
                            blank(&mut code, x);
                            code.push(' ');
                            i += 3;
                        } else {
                            code.push('\'');
                            i += 1;
                        }
                    }
                    _ => {
                        code.push(c);
                        i += 1;
                    }
                }
            }
            Mode::LineComment { .. } => {
                comment.push(c);
                blank(&mut code, c);
                i += 1;
            }
            Mode::BlockComment { depth } => {
                let next = bytes.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::BlockComment { depth: depth - 1 }
                    };
                    code.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment { depth: depth + 1 };
                    comment.push_str("/*");
                    code.push_str("  ");
                    i += 2;
                } else {
                    comment.push(c);
                    blank(&mut code, c);
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' {
                    if bytes.get(i + 1) == Some(&'\n') {
                        // Line-continuation escape: let the main loop flush
                        // the line so numbering stays aligned.
                        code.push(' ');
                        i += 1;
                    } else {
                        code.push_str("  ");
                        i += 2;
                    }
                } else if c == '"' {
                    mode = Mode::Code;
                    code.push(' ');
                    i += 1;
                } else {
                    blank(&mut code, c);
                    i += 1;
                }
            }
            Mode::RawStr { hashes } => {
                if c == '"' {
                    let closes = (0..hashes).all(|k| bytes.get(i + 1 + k) == Some(&'#'));
                    if closes {
                        for _ in 0..=hashes {
                            code.push(' ');
                        }
                        i += 1 + hashes;
                        mode = Mode::Code;
                        continue;
                    }
                }
                blank(&mut code, c);
                i += 1;
            }
            Mode::Char => {
                if c == '\\' {
                    code.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    mode = Mode::Code;
                    code.push(' ');
                    i += 1;
                } else {
                    blank(&mut code, c);
                    i += 1;
                }
            }
        }
    }
    flush_line!();

    let suppressions = parse_suppressions(&lines);
    Scanned {
        lines,
        suppressions,
    }
}

/// The marker in-source suppressions start with.
pub const ALLOW_MARKER: &str = "simlint: allow(";

fn parse_suppressions(lines: &[Line]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        // Doc comments describe the suppression syntax, they do not use
        // it — otherwise every doc example would register as a (dead)
        // suppression under X02.
        if line.doc_comment {
            continue;
        }
        let Some(start) = line.comment.find(ALLOW_MARKER) else {
            continue;
        };
        let rest = &line.comment[start + ALLOW_MARKER.len()..];
        let Some(close) = rest.find(')') else {
            out.push(Suppression {
                line: idx + 1,
                rules: Vec::new(),
                reason: None,
            });
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_owned())
            .filter(|r| !r.is_empty())
            .collect();
        let tail = &rest[close + 1..];
        let reason = tail
            .find("--")
            .map(|dash| tail[dash + 2..].trim().to_owned());
        let reason = match reason {
            Some(r) if !r.is_empty() => Some(r),
            _ => None,
        };
        out.push(Suppression {
            line: idx + 1,
            rules,
            reason,
        });
    }
    out
}

/// Finds 0-based byte columns where `word` occurs in `code` delimited by
/// non-identifier characters on both sides (so `DetHashMap` never matches
/// `HashMap`).
pub fn find_word(code: &str, word: &str) -> Vec<usize> {
    let mut cols = Vec::new();
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            cols.push(at);
        }
        from = at + word.len().max(1);
    }
    cols
}

/// Like [`find_word`] but only requires a word boundary on the left, for
/// prefix families such as `Atomic*` (`AtomicU64`, `AtomicBool`, …).
pub fn find_word_prefix(code: &str, prefix: &str) -> Vec<usize> {
    let mut cols = Vec::new();
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(prefix) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        if before_ok {
            cols.push(at);
        }
        from = at + prefix.len().max(1);
    }
    cols
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_separated_from_code() {
        let s = scan("let x = 1; // trailing note\n// full line\nlet y = 2;\n");
        assert!(s.lines[0].code.contains("let x = 1;"));
        assert!(!s.lines[0].code.contains("trailing"));
        assert_eq!(s.lines[0].comment.trim(), "trailing note");
        assert!(s.lines[1].is_comment_only());
        assert!(s.lines[2].code.contains("let y = 2;"));
    }

    #[test]
    fn string_contents_are_blanked() {
        let s = scan("let s = \"Instant::now() // not code\"; let t = 1;\n");
        assert!(!s.lines[0].code.contains("Instant"));
        assert!(!s.lines[0].code.contains("not code"));
        assert!(s.lines[0].code.contains("let t = 1;"));
        assert!(!s.lines[0].has_comment());

        // Non-ASCII literal and comment text keeps byte columns aligned.
        let src = "let s = \"→→\"; /* é */ let c = '→'; let t = Instant::now(); // ü";
        let line = &scan(src).lines[0];
        assert_eq!(line.code.len(), src.len());
        assert_eq!(line.code.find("Instant"), src.find("Instant"));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let s = scan("let a = r#\"Mutex \" inside\"#; let b = \"q\\\"uo\"; done()\n");
        assert!(!s.lines[0].code.contains("Mutex"));
        assert!(s.lines[0].code.contains("done()"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let s = scan("fn f<'env>(c: char) { let x = 'a'; let y = '\\n'; g::<'env>() }\n");
        assert!(s.lines[0].code.contains("'env"));
        assert!(!s.lines[0].code.contains("'a'"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let s = scan("a(); /* one /* two */ still */ b();\n/* open\nInstant\n*/ c();\n");
        assert!(s.lines[0].code.contains("a();"));
        assert!(s.lines[0].code.contains("b();"));
        assert!(!s.lines[0].code.contains("one"));
        assert!(!s.lines[2].code.contains("Instant"));
        assert!(s.lines[2].comment.contains("Instant"));
        assert!(s.lines[3].code.contains("c();"));
    }

    #[test]
    fn suppression_with_reason_parses() {
        let s = scan("use x::Mutex; // simlint: allow(D03, D02) -- test serialization lock\n");
        assert_eq!(s.suppressions.len(), 1);
        assert_eq!(s.suppressions[0].rules, vec!["D03", "D02"]);
        assert_eq!(
            s.suppressions[0].reason.as_deref(),
            Some("test serialization lock")
        );
        assert!(s.is_suppressed("D03", 1));
        assert!(!s.is_suppressed("D01", 1));
    }

    #[test]
    fn suppression_without_reason_does_not_suppress() {
        let s = scan("use x::Mutex; // simlint: allow(D03)\n");
        assert_eq!(s.suppressions[0].reason, None);
        assert!(!s.is_suppressed("D03", 1));
    }

    #[test]
    fn doc_comment_examples_are_not_suppressions() {
        let s = scan(
            "/// In-source escape hatch: `// simlint: allow(D03) -- reason`.\nuse x::Mutex;\n",
        );
        assert!(s.suppressions.is_empty(), "{:?}", s.suppressions);
        let t = scan("//! // simlint: allow(D02) -- doc example\n");
        assert!(t.suppressions.is_empty());
    }

    #[test]
    fn standalone_suppression_covers_next_line() {
        let s = scan("// simlint: allow(D02) -- timing harness\nlet t = Instant::now();\n");
        assert!(s.is_suppressed("D02", 2));
        assert!(!s.is_suppressed("D02", 3));
    }

    #[test]
    fn safety_comment_block_is_found() {
        let src = "// SAFETY: the scope outlives\n// every borrow.\nlet j = unsafe { f() };\n";
        let s = scan(src);
        assert!(s.has_safety_comment(3));
        let t = scan("let j = unsafe { f() }; // SAFETY: inline\n");
        assert!(t.has_safety_comment(1));
        let u = scan("let j = unsafe { f() };\n");
        assert!(!u.has_safety_comment(1));
    }

    #[test]
    fn word_boundaries_exclude_det_variants() {
        assert_eq!(
            find_word("DetHashMap<u64, u8>", "HashMap"),
            Vec::<usize>::new()
        );
        assert_eq!(find_word("HashMap<u64, u8>", "HashMap"), vec![0]);
        assert_eq!(find_word("a HashMap b HashMapX", "HashMap"), vec![2]);
        assert_eq!(find_word_prefix("AtomicU64::new", "Atomic"), vec![0]);
        assert!(find_word_prefix("MyAtomicU64", "Atomic").is_empty());
    }
}
