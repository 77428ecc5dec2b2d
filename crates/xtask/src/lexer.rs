//! A string/char/comment-aware Rust lexer for the audit engine.
//!
//! Every source rule reads this token stream. Unlike a per-line text
//! scan, it tells a `partial_cmp` in code from one in a raw string, and
//! it follows a statement across line breaks. Two guarantees the rest of
//! the engine builds on:
//!
//! 1. **Round-trip**: concatenating [`Token::text`] over the stream
//!    reproduces the input byte-for-byte, so line/column arithmetic can
//!    never drift from the source.
//! 2. **Classification**: every character belongs to exactly one token,
//!    and string/char/comment contents are *contained* — a quote inside a
//!    raw string or a nested block comment never leaks into code tokens.
//!
//! The lexer is deliberately lossless and permissive: malformed input
//! (an unterminated string at EOF) still lexes, ending the open token at
//! EOF, because the audit must degrade gracefully on in-progress code.

/// Classification of one [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Spaces, tabs and newlines (grouped into runs).
    Whitespace,
    /// `// …` to end of line. `doc` marks `///` and `//!` forms.
    LineComment {
        /// Whether this is a doc comment (`///` or `//!`, but not `////`).
        doc: bool,
    },
    /// `/* … */`, nesting-aware. `doc` marks `/**` and `/*!` forms.
    BlockComment {
        /// Whether this is a doc comment (`/**` or `/*!`, but not `/***`).
        doc: bool,
    },
    /// Any string literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
    Str,
    /// A char or byte-char literal: `'x'`, `'\n'`, `b'x'`.
    Char,
    /// A lifetime or loop label: `'a`, `'static`.
    Lifetime,
    /// An identifier or keyword, including raw identifiers (`r#match`).
    Ident,
    /// A numeric literal, including suffixes and exponents (`1_000u64`,
    /// `2.5e-3`, `0xff`).
    Number,
    /// A single punctuation character (`.`, `:`, `(`, `+`, …).
    Punct,
}

/// One lexed token with its exact source text and 1-based start line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// The exact source text, so the stream round-trips losslessly.
    pub text: String,
    /// 1-based line number of the token's first character.
    pub line: usize,
}

impl Token {
    /// Whether this token carries code meaning (not whitespace or a
    /// comment). String/char literals *are* significant: rules may need
    /// to see that an argument is a literal.
    pub fn is_significant(&self) -> bool {
        !matches!(
            self.kind,
            TokenKind::Whitespace | TokenKind::LineComment { .. } | TokenKind::BlockComment { .. }
        )
    }
}

/// Lexes `text` into a lossless token stream.
pub fn lex(text: &str) -> Vec<Token> {
    Lexer {
        chars: text.chars().collect(),
        pos: 0,
        line: 1,
        tokens: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    tokens: Vec<Token>,
}

impl Lexer {
    fn run(mut self) -> Vec<Token> {
        while self.pos < self.chars.len() {
            let start = self.pos;
            let line = self.line;
            let kind = self.next_token();
            let text: String = self.chars[start..self.pos].iter().collect();
            self.line += text.matches('\n').count();
            self.tokens.push(Token { kind, text, line });
        }
        self.tokens
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Consumes one token starting at `self.pos` and returns its kind.
    fn next_token(&mut self) -> TokenKind {
        let c = self.chars[self.pos];
        match c {
            c if c.is_whitespace() => {
                while self.peek(0).is_some_and(char::is_whitespace) {
                    self.pos += 1;
                }
                TokenKind::Whitespace
            }
            '/' if self.peek(1) == Some('/') => self.line_comment(),
            '/' if self.peek(1) == Some('*') => self.block_comment(),
            '"' => self.string(0),
            'b' | 'r' if self.raw_or_byte_string_len().is_some() => {
                let prefix = self.raw_or_byte_string_len().unwrap_or(0);
                self.string(prefix)
            }
            'b' if self.peek(1) == Some('\'') => {
                self.pos += 1; // the `b`; char_or_lifetime sees the quote
                self.char_or_lifetime()
            }
            '\'' => self.char_or_lifetime(),
            c if c.is_alphabetic() || c == '_' => self.ident(),
            c if c.is_ascii_digit() => self.number(),
            _ => {
                self.pos += 1;
                TokenKind::Punct
            }
        }
    }

    fn line_comment(&mut self) -> TokenKind {
        let doc =
            (self.peek(2) == Some('/') && self.peek(3) != Some('/')) || self.peek(2) == Some('!');
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.pos += 1;
        }
        TokenKind::LineComment { doc }
    }

    fn block_comment(&mut self) -> TokenKind {
        let doc =
            (self.peek(2) == Some('*') && self.peek(3) != Some('*')) || self.peek(2) == Some('!');
        self.pos += 2;
        let mut depth = 1u32;
        while self.pos < self.chars.len() && depth > 0 {
            if self.peek(0) == Some('/') && self.peek(1) == Some('*') {
                depth += 1;
                self.pos += 2;
            } else if self.peek(0) == Some('*') && self.peek(1) == Some('/') {
                depth -= 1;
                self.pos += 2;
            } else {
                self.pos += 1;
            }
        }
        TokenKind::BlockComment { doc }
    }

    /// Length of a raw/byte string prefix (`r`, `b`, `br`, `rb`, plus any
    /// `#`s) starting at `self.pos`, if one introduces a string literal.
    fn raw_or_byte_string_len(&self) -> Option<usize> {
        let mut j = 0;
        let mut saw_r = false;
        for _ in 0..2 {
            match self.peek(j) {
                Some('r') if !saw_r => {
                    saw_r = true;
                    j += 1;
                }
                Some('b') if j == 0 => j += 1,
                _ => break,
            }
        }
        if j == 0 {
            return None;
        }
        let hash_start = j;
        while self.peek(j) == Some('#') {
            j += 1;
        }
        // Hashes require a raw prefix: `b#` is not a string.
        if j > hash_start && !saw_r {
            return None;
        }
        (self.peek(j) == Some('"')).then_some(j)
    }

    /// Consumes a string literal whose prefix (`r#`, `b`, …) is `prefix`
    /// characters long. For raw strings the closing delimiter is `"`
    /// followed by the same number of `#`s as the opening one.
    fn string(&mut self, prefix: usize) -> TokenKind {
        let raw = self.chars[self.pos..self.pos + prefix].contains(&'r');
        let hashes = self.chars[self.pos..self.pos + prefix]
            .iter()
            .filter(|&&c| c == '#')
            .count();
        self.pos += prefix + 1; // prefix + opening quote
        while self.pos < self.chars.len() {
            let c = self.chars[self.pos];
            if !raw && c == '\\' {
                self.pos = (self.pos + 2).min(self.chars.len());
            } else if c == '"' {
                let closes = (1..=hashes).all(|k| self.peek(k) == Some('#'));
                self.pos += 1;
                if closes {
                    self.pos += hashes;
                    break;
                }
            } else {
                self.pos += 1;
            }
        }
        TokenKind::Str
    }

    /// Disambiguates `'x'` / `'\n'` (char literals) from `'a` / `'static`
    /// (lifetimes and labels). Called with `self.pos` at the `'`.
    fn char_or_lifetime(&mut self) -> TokenKind {
        let is_char = match self.peek(1) {
            Some('\\') => true,
            Some(c) if c != '\'' => self.peek(2) == Some('\''),
            _ => false,
        };
        if is_char {
            self.pos += 1;
            while self.pos < self.chars.len() {
                match self.chars[self.pos] {
                    '\\' => self.pos = (self.pos + 2).min(self.chars.len()),
                    '\'' => {
                        self.pos += 1;
                        break;
                    }
                    _ => self.pos += 1,
                }
            }
            TokenKind::Char
        } else {
            self.pos += 1;
            while self
                .peek(0)
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                self.pos += 1;
            }
            TokenKind::Lifetime
        }
    }

    fn ident(&mut self) -> TokenKind {
        // Raw identifier `r#name` (the string case was ruled out earlier).
        if self.peek(0) == Some('r') && self.peek(1) == Some('#') {
            self.pos += 2;
        }
        while self
            .peek(0)
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            self.pos += 1;
        }
        TokenKind::Ident
    }

    fn number(&mut self) -> TokenKind {
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                // `1e-3` / `2E+5`: the sign belongs to the literal only
                // when an exponent `e`/`E` in a decimal literal precedes
                // it and a digit follows.
                self.pos += 1;
                if (c == 'e' || c == 'E')
                    && !self.hex_prefix()
                    && matches!(self.peek(0), Some('+' | '-'))
                    && self.peek(1).is_some_and(|d| d.is_ascii_digit())
                {
                    self.pos += 1;
                }
            } else if c == '.'
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
                && !self.text_so_far_contains_dot()
            {
                self.pos += 1;
            } else {
                break;
            }
        }
        TokenKind::Number
    }

    /// Whether the number being lexed started with `0x`/`0o`/`0b`.
    fn hex_prefix(&self) -> bool {
        // Walk back to the start of the current numeric run.
        let mut start = self.pos;
        while start > 0 {
            let c = self.chars[start - 1];
            if c.is_alphanumeric() || c == '_' || c == '.' {
                start -= 1;
            } else {
                break;
            }
        }
        self.chars[start] == '0'
            && matches!(
                self.chars.get(start + 1),
                Some('x' | 'o' | 'b' | 'X' | 'O' | 'B')
            )
    }

    /// Whether the numeric token being lexed already consumed a `.`
    /// (so `1.2.3` stops at the second dot and `1..2` keeps the range).
    fn text_so_far_contains_dot(&self) -> bool {
        let mut i = self.pos;
        while i > 0 {
            let c = self.chars[i - 1];
            if c == '.' {
                return true;
            }
            if c.is_alphanumeric() || c == '_' {
                i -= 1;
            } else {
                break;
            }
        }
        false
    }
}

/// Renders one token for the stripped view: comments and string/char
/// contents become spaces (newlines preserved), delimiters and code text
/// stay put, so the output has the same line structure as the input.
pub fn stripped_text(token: &Token) -> String {
    let blank = |s: &str| -> String {
        s.chars()
            .map(|c| if c == '\n' { '\n' } else { ' ' })
            .collect()
    };
    match token.kind {
        TokenKind::Whitespace
        | TokenKind::Ident
        | TokenKind::Number
        | TokenKind::Punct
        | TokenKind::Lifetime => token.text.clone(),
        TokenKind::LineComment { .. } | TokenKind::BlockComment { .. } => blank(&token.text),
        TokenKind::Str | TokenKind::Char => {
            // Keep the opening delimiter (prefix + quote) and closing
            // delimiter (quote + hashes) so the stripped line still reads
            // as a literal; blank everything between.
            let chars: Vec<char> = token.text.chars().collect();
            let quote = if token.kind == TokenKind::Char {
                '\''
            } else {
                '"'
            };
            let open = chars.iter().position(|&c| c == quote).map_or(0, |p| p + 1);
            let mut close = chars.iter().rposition(|&c| c == quote).unwrap_or(0);
            if close < open {
                // Unterminated literal: blank through to EOF.
                close = chars.len();
            }
            chars
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    if i < open || i >= close || c == '\n' {
                        c
                    } else {
                        ' '
                    }
                })
                .collect()
        }
    }
}

/// The full stripped view of a source file: same character count per line
/// as the input, with comment and literal contents blanked.
pub fn stripped_view(tokens: &[Token]) -> String {
    tokens.iter().map(stripped_text).collect()
}

/// The complement of [`stripped_view`]: comments and whitespace kept
/// verbatim, every code/literal token blanked to spaces (newlines
/// preserved). The suppression-ledger scan runs on this view, so an
/// `audit:allow(…)` quoted inside a string literal — a diagnostic message
/// explaining the syntax, say — is never mistaken for a real marker.
pub fn comment_view(tokens: &[Token]) -> String {
    tokens
        .iter()
        .map(|t| match t.kind {
            TokenKind::Whitespace
            | TokenKind::LineComment { .. }
            | TokenKind::BlockComment { .. } => t.text.clone(),
            _ => t
                .text
                .chars()
                .map(|c| if c == '\n' { '\n' } else { ' ' })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(text: &str) -> Vec<Token> {
        let tokens = lex(text);
        let rebuilt: String = tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(rebuilt, text, "lossless round-trip");
        tokens
    }

    #[test]
    fn classifies_basic_stream() {
        let tokens = round_trip("let x = 1.5e-3 + foo_bar(42);\n");
        let kinds: Vec<(TokenKind, &str)> = tokens
            .iter()
            .filter(|t| t.is_significant())
            .map(|t| (t.kind, t.text.as_str()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (TokenKind::Ident, "let"),
                (TokenKind::Ident, "x"),
                (TokenKind::Punct, "="),
                (TokenKind::Number, "1.5e-3"),
                (TokenKind::Punct, "+"),
                (TokenKind::Ident, "foo_bar"),
                (TokenKind::Punct, "("),
                (TokenKind::Number, "42"),
                (TokenKind::Punct, ")"),
                (TokenKind::Punct, ";"),
            ]
        );
    }

    #[test]
    fn strings_contain_their_hazards() {
        for (text, n_str) in [
            ("let a = \"panic! \\\" unwrap()\";", 1),
            ("let a = r#\"quote \" inside\"#;", 1),
            ("let a = br##\"double \"# inside\"##;", 1),
            ("let a = b\"bytes\";", 1),
            ("let (a, b) = (\"x\", \"y\");", 2),
        ] {
            let tokens = round_trip(text);
            let strs: Vec<_> = tokens.iter().filter(|t| t.kind == TokenKind::Str).collect();
            assert_eq!(strs.len(), n_str, "{text}");
            assert!(
                !tokens
                    .iter()
                    .filter(|t| t.kind == TokenKind::Ident)
                    .any(|t| t.text == "panic" || t.text == "unwrap" || t.text == "inside"),
                "{text}: literal contents leaked into code tokens"
            );
        }
    }

    #[test]
    fn nested_block_comments() {
        let tokens = round_trip("a /* outer /* inner */ still outer */ b");
        assert_eq!(
            tokens
                .iter()
                .filter(|t| matches!(t.kind, TokenKind::BlockComment { .. }))
                .count(),
            1
        );
        let idents: Vec<_> = tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, vec!["a", "b"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let tokens =
            round_trip("fn f<'a>(x: &'a str) -> char { 'x' }\nlet n = '\\n'; let l = 'static;");
        let lifetimes: Vec<_> = tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a", "'static"]);
        let chars: Vec<_> = tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(chars, vec!["'x'", "'\\n'"]);
    }

    #[test]
    fn byte_char_and_raw_ident() {
        let tokens = round_trip("let c = b'x'; let r#match = 1;");
        assert!(tokens
            .iter()
            .any(|t| t.kind == TokenKind::Char && t.text == "b'x'"));
        assert!(tokens
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == "r#match"));
    }

    #[test]
    fn doc_comment_flags() {
        let tokens = round_trip(
            "/// doc\n//! inner\n//// not doc\n// plain\n/** blk */\n/*! blk */\n/*** not */\n",
        );
        let docs: Vec<bool> = tokens
            .iter()
            .filter_map(|t| match t.kind {
                TokenKind::LineComment { doc } | TokenKind::BlockComment { doc } => Some(doc),
                _ => None,
            })
            .collect();
        assert_eq!(docs, vec![true, true, false, false, true, true, false]);
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let text = "a\n\"multi\nline\"\n/* c\nc */ b\n";
        let tokens = round_trip(text);
        let b = tokens
            .iter()
            .find(|t| t.kind == TokenKind::Ident && t.text == "b")
            .unwrap();
        assert_eq!(b.line, 5);
    }

    #[test]
    fn unterminated_literals_lex_to_eof() {
        round_trip("let s = \"open");
        round_trip("let s = r#\"open\"");
        round_trip("/* open");
        round_trip("let c = 'x");
    }

    #[test]
    fn stripped_view_preserves_structure() {
        let text = "let m = \"calls unwrap() here\"; // panic!\nlet y = 'x';\n";
        let view = stripped_view(&lex(text));
        assert_eq!(view.split('\n').count(), text.split('\n').count());
        assert!(!view.contains("unwrap"));
        assert!(!view.contains("panic"));
        assert!(view.contains("let m = \""));
        assert!(view.contains("let y = ' ';"));
        for (a, b) in view.split('\n').zip(text.split('\n')) {
            assert_eq!(a.chars().count(), b.chars().count());
        }
    }

    #[test]
    fn comment_view_keeps_comments_blanks_code() {
        let text = "let s = \"audit:allow(R1): fake\"; // audit:allow(R2): real\n";
        let view = comment_view(&lex(text));
        assert!(!view.contains("fake"));
        assert!(view.contains("// audit:allow(R2): real"));
        assert_eq!(view.split('\n').count(), text.split('\n').count());
    }

    #[test]
    fn ranges_are_not_float_dots() {
        let tokens = round_trip("for i in 0..10 { let x = 1.5; let v = a[1..=2]; }");
        let numbers: Vec<_> = tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Number)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(numbers, vec!["0", "10", "1.5", "1", "2"]);
    }
}
