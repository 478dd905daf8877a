//! A lightweight Rust tokenizer for the cross-file pass.
//!
//! The line scanner ([`crate::scan`]) blanks literal *contents* because the
//! per-line rules must never fire inside them — but R05 needs exactly those
//! contents (a figure table names a policy by its display string,
//! `"SRRIP"`), so the item index is built from a second, token-level view
//! of the source. Like the scanner this is deliberately not a full lexer: it
//! produces just enough structure for [`crate::index`] — identifiers,
//! string-literal values, numbers, lifetimes, and single-character
//! punctuation, each carrying its 1-based source line. Comments are
//! dropped; multi-character operators arrive as adjacent punctuation
//! tokens (`::` is `':' ':'`, `=>` is `'=' '>'`), which is what the
//! pattern matching in the indexer expects.

/// What a token is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `PolicyKind`, `lru`).
    Ident,
    /// A string or byte-string literal; the token text is the *inner*
    /// value with escape sequences left as written (`\n` stays two chars —
    /// the policy names this feeds on never use escapes).
    Str,
    /// A char literal (`'a'`, `'\n'`); value not preserved.
    Char,
    /// A lifetime (`'a`, `'static`); text is the name without the quote.
    Lifetime,
    /// A numeric literal (`12`, `0x5eed`, `1_000u64`).
    Num,
    /// One punctuation character.
    Punct(char),
}

/// One token with its source position.
#[derive(Clone, Debug)]
pub struct Token {
    pub kind: TokKind,
    /// Ident/lifetime name, string value, or number text; empty for
    /// `Char` and `Punct`.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Token {
    /// Whether this is the identifier `word`.
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokKind::Ident && self.text == word
    }

    /// Whether this is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Tokenizes `source`. Never fails: anything unrecognized becomes
/// punctuation, which the indexer ignores.
pub fn tokenize(source: &str) -> Vec<Token> {
    let chars: Vec<char> = source.chars().collect();
    let n = chars.len();
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    macro_rules! push {
        ($kind:expr, $text:expr, $line:expr) => {
            out.push(Token {
                kind: $kind,
                text: $text,
                line: $line,
            })
        };
    }

    while i < n {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if next == Some('/') => {
                // Line comment: skip to end of line (newline handled above).
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if next == Some('*') => {
                // Nested block comment.
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let (value, end, endline) = read_string(&chars, i + 1, line);
                push!(TokKind::Str, value, line);
                line = endline;
                i = end;
            }
            'r' | 'b' if starts_raw_or_byte_string(&chars, i) => {
                let mut j = i + 1;
                if c == 'b' && chars.get(j) == Some(&'r') {
                    j += 1;
                }
                let mut hashes = 0usize;
                while chars.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                if chars.get(j) == Some(&'"') {
                    if hashes == 0 && j == i + 1 && c == 'b' {
                        // Plain byte string b"…": ordinary escapes.
                        let (value, end, endline) = read_string(&chars, j + 1, line);
                        push!(TokKind::Str, value, line);
                        line = endline;
                        i = end;
                    } else {
                        let (value, end, endline) = read_raw_string(&chars, j + 1, hashes, line);
                        push!(TokKind::Str, value, line);
                        line = endline;
                        i = end;
                    }
                } else {
                    // `r`/`b` was just an identifier start after all.
                    let (text, end) = read_ident(&chars, i);
                    push!(TokKind::Ident, text, line);
                    i = end;
                }
            }
            '\'' => {
                // Char literal vs lifetime, same heuristic as the scanner:
                // `'\…'` and `'x'` are literals, `'ident` is a lifetime.
                if next == Some('\\') {
                    let mut j = i + 2;
                    if j < n {
                        j += 1; // the escaped char
                    }
                    while j < n && chars[j] != '\'' {
                        j += 1;
                    }
                    push!(TokKind::Char, String::new(), line);
                    i = (j + 1).min(n);
                } else if chars.get(i + 2) == Some(&'\'') && next.is_some() {
                    push!(TokKind::Char, String::new(), line);
                    i += 3;
                } else if next.is_some_and(is_ident_start) {
                    let (text, end) = read_ident(&chars, i + 1);
                    push!(TokKind::Lifetime, text, line);
                    i = end;
                } else {
                    push!(TokKind::Punct('\''), String::new(), line);
                    i += 1;
                }
            }
            c if is_ident_start(c) => {
                let (text, end) = read_ident(&chars, i);
                push!(TokKind::Ident, text, line);
                i = end;
            }
            c if c.is_ascii_digit() => {
                // Digits plus suffix/base letters and separators; dots are
                // punctuation so ranges (`0..n`) stay intact.
                let mut j = i;
                while j < n && is_ident_continue(chars[j]) {
                    j += 1;
                }
                push!(TokKind::Num, chars[i..j].iter().collect(), line);
                i = j;
            }
            c => {
                push!(TokKind::Punct(c), String::new(), line);
                i += 1;
            }
        }
    }
    out
}

/// Whether the `r`/`b` at `i` opens a raw or byte string rather than
/// starting an identifier (`row`, `base`).
fn starts_raw_or_byte_string(chars: &[char], i: usize) -> bool {
    let mut j = i + 1;
    if chars[i] == 'b' && chars.get(j) == Some(&'r') {
        j += 1;
    }
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// Reads a `"…"` body starting just past the opening quote. Returns
/// (value, index past closing quote, line after the literal).
fn read_string(chars: &[char], mut i: usize, mut line: usize) -> (String, usize, usize) {
    let n = chars.len();
    let mut value = String::new();
    while i < n {
        match chars[i] {
            '\\' => {
                value.push('\\');
                if let Some(&e) = chars.get(i + 1) {
                    if e == '\n' {
                        line += 1;
                    }
                    value.push(e);
                }
                i += 2;
            }
            '"' => return (value, i + 1, line),
            '\n' => {
                value.push('\n');
                line += 1;
                i += 1;
            }
            c => {
                value.push(c);
                i += 1;
            }
        }
    }
    (value, n, line)
}

/// Reads a raw string body (`r#"…"#` with `hashes` hashes) starting just
/// past the opening quote.
fn read_raw_string(
    chars: &[char],
    mut i: usize,
    hashes: usize,
    mut line: usize,
) -> (String, usize, usize) {
    let n = chars.len();
    let mut value = String::new();
    while i < n {
        if chars[i] == '"' && (0..hashes).all(|k| chars.get(i + 1 + k) == Some(&'#')) {
            return (value, i + 1 + hashes, line);
        }
        if chars[i] == '\n' {
            line += 1;
        }
        value.push(chars[i]);
        i += 1;
    }
    (value, n, line)
}

fn read_ident(chars: &[char], i: usize) -> (String, usize) {
    let mut j = i;
    while j < chars.len() && is_ident_continue(chars[j]) {
        j += 1;
    }
    (chars[i..j].iter().collect(), j)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        tokenize(src)
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_strings_and_puncts() {
        let toks = kinds("const NAMES: [&str; 2] = [\"lru\", \"fifo\"];");
        assert!(toks.contains(&(TokKind::Ident, "NAMES".into())));
        assert!(toks.contains(&(TokKind::Str, "lru".into())));
        assert!(toks.contains(&(TokKind::Str, "fifo".into())));
        assert!(toks.contains(&(TokKind::Num, "2".into())));
    }

    #[test]
    fn comments_are_dropped_but_lines_advance() {
        let toks = tokenize("a // note\n/* block\nspans */ b\n");
        let idents: Vec<_> = toks.iter().map(|t| (t.text.clone(), t.line)).collect();
        assert_eq!(idents, vec![("a".to_owned(), 1), ("b".to_owned(), 3)]);
    }

    #[test]
    fn string_values_survive_with_lines() {
        let toks = tokenize("x\n\"keep me\"\ny");
        assert_eq!(toks[1].kind, TokKind::Str);
        assert_eq!(toks[1].text, "keep me");
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 3);
    }

    #[test]
    fn raw_and_byte_strings() {
        let toks = kinds(r##"let a = r#"raw "quoted""#; let b = b"bytes"; let r = row;"##);
        assert!(toks.contains(&(TokKind::Str, "raw \"quoted\"".into())));
        assert!(toks.contains(&(TokKind::Str, "bytes".into())));
        assert!(toks.contains(&(TokKind::Ident, "row".into())));
    }

    #[test]
    fn chars_vs_lifetimes() {
        let toks = kinds("fn f<'a>(c: char) { let x = 'q'; let y = '\\n'; }");
        assert!(toks.contains(&(TokKind::Lifetime, "a".into())));
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Char).count(),
            2,
            "{toks:?}"
        );
        assert!(!toks.contains(&(TokKind::Ident, "q".into())));
    }

    #[test]
    fn arrow_and_path_arrive_as_adjacent_puncts() {
        let toks = tokenize("\"lru\" => Self::Lru(Lru::new()),");
        assert_eq!(toks[0].kind, TokKind::Str);
        assert!(toks[1].is_punct('='));
        assert!(toks[2].is_punct('>'));
        assert!(toks[3].is_ident("Self"));
        assert!(toks[4].is_punct(':'));
        assert!(toks[5].is_punct(':'));
        assert!(toks[6].is_ident("Lru"));
    }
}
