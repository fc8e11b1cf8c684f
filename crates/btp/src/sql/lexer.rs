//! Tokenizer for the SQL subset.
//!
//! [`tokenize`] walks the text's bytes once and yields [`Token`]s that borrow their text from
//! the input, so no token owns a `String`; the parser allocates one only where the AST takes
//! ownership of a name or a literal. An identifier is tagged with its [`Keyword`] here, once,
//! and the parser compares tags instead of strings. A keyword still reads as a plain name
//! wherever the grammar expects an identifier.
//!
//! ASCII takes a fast path. A byte at or above 0x80 starts a multi-byte character, which is
//! decoded and judged like any `char`: Unicode whitespace (e.g. U+00A0) separates tokens, and
//! anything else outside a comment or a string literal is an `unexpected character`. Columns
//! count characters, not bytes, so a token after an `é` sits where an editor shows it.

use crate::error::BtpError;

/// A lexical token with the line and column it starts on (for error reporting and the
/// source spans threaded through to summary-graph diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Token<'a> {
    pub kind: TokenKind,
    /// The name of an identifier or a parameter (without its `:`), the digits of a number, the
    /// contents of a string literal (without its quotes), or the operator itself.
    pub text: &'a str,
    pub line: usize,
    pub column: usize,
}

/// Token kinds of the SQL subset; the token's [`text`](Token::text) carries the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// Keyword or identifier, with its keyword tag ([`Keyword::None`] for a plain name).
    Ident(Keyword),
    /// Host parameter, e.g. `:B`.
    Param,
    /// Numeric literal.
    Number,
    /// String literal (single quotes).
    Str,
    /// `*`
    Star,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `.`
    Dot,
    /// `:` not followed by a parameter name (used by catalog declarations, e.g. `f1 : Bids`).
    Colon,
}

macro_rules! keywords {
    ($($variant:ident $text:literal,)*) => {
        /// The keywords of the SQL subset, matched ignoring ASCII case.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Keyword {
            /// A plain name.
            None,
            $($variant,)*
        }

        impl Keyword {
            /// Every keyword.
            const ALL: &'static [Keyword] = &[$(Keyword::$variant,)*];

            /// The keyword as messages spell it (upper case); empty for a plain name.
            pub const fn as_str(self) -> &'static str {
                match self {
                    Keyword::None => "",
                    $(Keyword::$variant => $text,)*
                }
            }
        }
    };
}

keywords! {
    And "AND",
    Commit "COMMIT",
    Create "CREATE",
    Delete "DELETE",
    Do "DO",
    Else "ELSE",
    End "END",
    EndFor "ENDFOR",
    EndIf "ENDIF",
    EndRepeat "ENDREPEAT",
    EndWhile "ENDWHILE",
    For "FOR",
    Foreign "FOREIGN",
    From "FROM",
    If "IF",
    Insert "INSERT",
    Into "INTO",
    Key "KEY",
    Primary "PRIMARY",
    Program "PROGRAM",
    References "REFERENCES",
    Repeat "REPEAT",
    Returning "RETURNING",
    Schema "SCHEMA",
    Select "SELECT",
    Set "SET",
    Table "TABLE",
    Then "THEN",
    Until "UNTIL",
    Update "UPDATE",
    Values "VALUES",
    Where "WHERE",
    While "WHILE",
}

/// Folds ASCII case away by clearing bit 5 of every byte. On identifier bytes
/// (`[A-Za-z0-9_]`) it maps exactly the lower-case letters onto the upper-case ones.
const FOLD: u128 = u128::from_ne_bytes([!0x20; 16]);

/// The slot of an identifier in [`KEYWORD_SLOTS`]: a multiplicative hash of its length and of
/// its first, middle and last bytes with ASCII case folded away. The multiplier was found by
/// search; building [`KEYWORD_SLOTS`] fails at compile time if two keywords share a slot.
const fn keyword_slot(ident: &[u8]) -> usize {
    let n = ident.len();
    let key = (ident[0] & FOLD as u8) as u32
        | ((ident[n / 2] & FOLD as u8) as u32) << 8
        | ((ident[n - 1] & FOLD as u8) as u32) << 16
        | (n as u32) << 24;
    (key.wrapping_mul(0x78d8_5d8d) >> 26) as usize
}

/// The bytes of an upper-case keyword, little-endian and zero-padded to 16.
const fn packed(keyword: &str) -> u128 {
    let bytes = keyword.as_bytes();
    let mut key = 0u128;
    let mut i = 0;
    while i < bytes.len() {
        key |= (bytes[i] as u128) << (8 * i);
        i += 1;
    }
    key
}

/// Each keyword with its [`packed`] bytes at its [`keyword_slot`]; [`Keyword::None`], whose
/// packed bytes (zero) match no identifier, in the free slots.
const KEYWORD_SLOTS: [(u128, Keyword); 64] = {
    let mut slots = [(0, Keyword::None); 64];
    let mut i = 0;
    while i < Keyword::ALL.len() {
        let keyword = Keyword::ALL[i];
        let slot = keyword_slot(keyword.as_str().as_bytes());
        assert!(
            matches!(slots[slot].1, Keyword::None),
            "two keywords share a slot"
        );
        slots[slot] = (packed(keyword.as_str()), keyword);
        i += 1;
    }
    slots
};

impl Keyword {
    /// Classifies the identifier `text[start..end]` (non-empty, `[A-Za-z0-9_]` only) with one
    /// hash and one comparison of its case-folded bytes against the keyword in its slot. Away
    /// from the end of the text the bytes come from one 16-byte load, and the outcome selects
    /// the result without a branch: identifiers and keywords alternate too irregularly for a
    /// branch predictor.
    fn of(text: &[u8], start: usize, end: usize) -> Keyword {
        let ident = &text[start..end];
        let (key, candidate) = KEYWORD_SLOTS[keyword_slot(ident)];
        match text.get(start..start + 16) {
            Some(window) if ident.len() <= 16 => {
                let window = u128::from_le_bytes(window.try_into().expect("a 16-byte window"));
                let word = window & (u128::MAX >> (8 * (16 - ident.len())));
                [Keyword::None, candidate][usize::from(word & FOLD == key)]
            }
            _ if candidate.as_str().as_bytes().eq_ignore_ascii_case(ident) => candidate,
            _ => Keyword::None,
        }
    }
}

/// Renders a token the way parse errors name it, e.g. `Some(Ident("FRM"))`, `Some(LParen)` or
/// `None` at the end of the input.
pub(crate) fn describe(token: Option<&Token<'_>>) -> String {
    match token {
        None => "None".into(),
        Some(t) => match t.kind {
            TokenKind::Ident(_) => format!("Some(Ident({:?}))", t.text),
            TokenKind::Param => format!("Some(Param({:?}))", t.text),
            TokenKind::Number => format!("Some(Number({:?}))", t.text),
            TokenKind::Str => format!("Some(Str({:?}))", t.text),
            kind => format!("Some({kind:?})"),
        },
    }
}

/// The end of the identifier characters (`[A-Za-z0-9_]*`) starting at byte `from`.
fn ident_end(bytes: &[u8], from: usize) -> usize {
    bytes[from..]
        .iter()
        .position(|&b| !(b.is_ascii_alphanumeric() || b == b'_'))
        .map_or(bytes.len(), |n| from + n)
}

/// Tokenizes the input text. `--` starts a comment running to the end of the line.
pub(crate) fn tokenize(text: &str) -> Result<Vec<Token<'_>>, BtpError> {
    let bytes = text.as_bytes();
    // Workload text runs at about four bytes per token.
    let mut tokens = Vec::with_capacity(text.len() / 4);
    let mut i = 0;
    let mut line = 1;
    // The column of byte `i` is `i - line_base + 1`: `line_base` is where the line starts,
    // pushed right by the continuation bytes of every multi-byte character on it.
    let mut line_base = 0;

    while let Some(&b) = bytes.get(i) {
        let start = i;
        let column = i - line_base + 1;
        let error = |message: String| BtpError::SqlParse {
            line,
            column,
            message,
        };
        let next = bytes.get(i + 1).copied();
        let kind = match b {
            b'\n' => {
                i += 1;
                line += 1;
                line_base = i;
                continue;
            }
            // The ASCII characters `char::is_whitespace` accepts.
            b'\t' | b'\x0b' | b'\x0c' | b'\r' | b' ' => {
                // Indentation comes in runs of spaces.
                i += 1 + bytes[i + 1..].iter().take_while(|&&b| b == b' ').count();
                continue;
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                i = ident_end(bytes, i + 1);
                TokenKind::Ident(Keyword::of(bytes, start, i))
            }
            b'0'..=b'9' => {
                i = bytes[i..]
                    .iter()
                    .position(|&b| !(b.is_ascii_digit() || b == b'.'))
                    .map_or(bytes.len(), |n| i + n);
                TokenKind::Number
            }
            b':' => {
                let end = ident_end(bytes, i + 1);
                if end == i + 1 {
                    // A bare `:` (e.g. `FOREIGN KEY f1 : Bids (…)`); parameters are always
                    // written without a space, so this is a plain colon token.
                    i += 1;
                    TokenKind::Colon
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Param,
                        text: &text[i + 1..end],
                        line,
                        column,
                    });
                    i = end;
                    continue;
                }
            }
            b'\'' => {
                let Some(len) = bytes[i + 1..].iter().position(|&b| b == b'\'') else {
                    return Err(error("unterminated string literal".into()));
                };
                let close = i + 1 + len;
                tokens.push(Token {
                    kind: TokenKind::Str,
                    text: &text[i + 1..close],
                    line,
                    column,
                });
                for (at, &b) in bytes.iter().enumerate().take(close).skip(i + 1) {
                    if b == b'\n' {
                        line += 1;
                        line_base = at + 1;
                    } else if b & 0xC0 == 0x80 {
                        line_base += 1;
                    }
                }
                i = close + 1;
                continue;
            }
            b'-' if next == Some(b'-') => {
                // Comment until end of line; the newline itself is left to the loop.
                i = bytes[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |n| i + n);
                continue;
            }
            b'!' if next == Some(b'=') => {
                i += 2;
                TokenKind::NotEq
            }
            b'!' => return Err(error("unexpected `!`".into())),
            b'<' if next == Some(b'=') => {
                i += 2;
                TokenKind::Le
            }
            b'<' if next == Some(b'>') => {
                i += 2;
                TokenKind::NotEq
            }
            b'>' if next == Some(b'=') => {
                i += 2;
                TokenKind::Ge
            }
            0x80.. => {
                let c = text[i..]
                    .chars()
                    .next()
                    .expect("a non-ASCII byte at a character boundary starts a character");
                if !c.is_whitespace() {
                    return Err(error(format!("unexpected character `{c}`")));
                }
                i += c.len_utf8();
                line_base += c.len_utf8() - 1;
                continue;
            }
            _ => {
                let kind = match b {
                    b'*' => TokenKind::Star,
                    b'(' => TokenKind::LParen,
                    b')' => TokenKind::RParen,
                    b'{' => TokenKind::LBrace,
                    b'}' => TokenKind::RBrace,
                    b',' => TokenKind::Comma,
                    b';' => TokenKind::Semicolon,
                    b'+' => TokenKind::Plus,
                    b'-' => TokenKind::Minus,
                    b'/' => TokenKind::Slash,
                    b'.' => TokenKind::Dot,
                    b'=' => TokenKind::Eq,
                    b'<' => TokenKind::Lt,
                    b'>' => TokenKind::Gt,
                    other => {
                        return Err(error(format!("unexpected character `{}`", other as char)))
                    }
                };
                i += 1;
                kind
            }
        };
        tokens.push(Token {
            kind,
            text: &text[start..i],
            line,
            column,
        });
    }
    Ok(tokens)
}

/// The tokenizer as it was before tokens borrowed their text: a `char` cursor producing owned
/// tokens. The oracle tests below hold [`tokenize`] to its tokens, positions and errors.
#[cfg(test)]
mod reference {
    use crate::error::BtpError;

    #[derive(Debug, Clone, PartialEq)]
    pub struct Token {
        pub kind: TokenKind,
        pub line: usize,
        pub column: usize,
    }

    #[derive(Debug, Clone, PartialEq)]
    pub enum TokenKind {
        Ident(String),
        Param(String),
        Number(String),
        Str(String),
        Star,
        LParen,
        RParen,
        LBrace,
        RBrace,
        Comma,
        Semicolon,
        Eq,
        NotEq,
        Lt,
        Le,
        Gt,
        Ge,
        Plus,
        Minus,
        Slash,
        Dot,
        Colon,
    }

    struct Cursor<'a> {
        chars: std::iter::Peekable<std::str::Chars<'a>>,
        line: usize,
        column: usize,
    }

    impl Cursor<'_> {
        fn new(text: &str) -> Cursor<'_> {
            Cursor {
                chars: text.chars().peekable(),
                line: 1,
                column: 1,
            }
        }

        fn peek(&mut self) -> Option<char> {
            self.chars.peek().copied()
        }

        fn bump(&mut self) -> Option<char> {
            let c = self.chars.next()?;
            if c == '\n' {
                self.line += 1;
                self.column = 1;
            } else {
                self.column += 1;
            }
            Some(c)
        }

        fn take_ident(&mut self) -> String {
            let mut s = String::new();
            while let Some(c) = self.peek() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    s.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            s
        }
    }

    pub fn tokenize(text: &str) -> Result<Vec<Token>, BtpError> {
        let mut tokens = Vec::new();
        let mut cur = Cursor::new(text);

        while let Some(c) = cur.peek() {
            let (line, column) = (cur.line, cur.column);
            let mut push = |kind: TokenKind| tokens.push(Token { kind, line, column });
            match c {
                c if c.is_whitespace() => {
                    cur.bump();
                }
                '-' => {
                    cur.bump();
                    if cur.peek() == Some('-') {
                        while let Some(c) = cur.bump() {
                            if c == '\n' {
                                break;
                            }
                        }
                    } else {
                        push(TokenKind::Minus);
                    }
                }
                ':' => {
                    cur.bump();
                    let name = cur.take_ident();
                    if name.is_empty() {
                        push(TokenKind::Colon);
                    } else {
                        push(TokenKind::Param(name));
                    }
                }
                '\'' => {
                    cur.bump();
                    let mut s = String::new();
                    let mut closed = false;
                    while let Some(c) = cur.bump() {
                        if c == '\'' {
                            closed = true;
                            break;
                        }
                        s.push(c);
                    }
                    if !closed {
                        return Err(BtpError::SqlParse {
                            line,
                            column,
                            message: "unterminated string literal".into(),
                        });
                    }
                    push(TokenKind::Str(s));
                }
                c if c.is_ascii_digit() => {
                    let mut s = String::new();
                    while let Some(c) = cur.peek() {
                        if c.is_ascii_digit() || c == '.' {
                            s.push(c);
                            cur.bump();
                        } else {
                            break;
                        }
                    }
                    push(TokenKind::Number(s));
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let s = cur.take_ident();
                    push(TokenKind::Ident(s));
                }
                _ => {
                    cur.bump();
                    let kind = match c {
                        '*' => TokenKind::Star,
                        '(' => TokenKind::LParen,
                        ')' => TokenKind::RParen,
                        '{' => TokenKind::LBrace,
                        '}' => TokenKind::RBrace,
                        ',' => TokenKind::Comma,
                        ';' => TokenKind::Semicolon,
                        '+' => TokenKind::Plus,
                        '/' => TokenKind::Slash,
                        '.' => TokenKind::Dot,
                        '=' => TokenKind::Eq,
                        '!' => {
                            if cur.peek() == Some('=') {
                                cur.bump();
                                TokenKind::NotEq
                            } else {
                                return Err(BtpError::SqlParse {
                                    line,
                                    column,
                                    message: "unexpected `!`".into(),
                                });
                            }
                        }
                        '<' => match cur.peek() {
                            Some('=') => {
                                cur.bump();
                                TokenKind::Le
                            }
                            Some('>') => {
                                cur.bump();
                                TokenKind::NotEq
                            }
                            _ => TokenKind::Lt,
                        },
                        '>' => {
                            if cur.peek() == Some('=') {
                                cur.bump();
                                TokenKind::Ge
                            } else {
                                TokenKind::Gt
                            }
                        }
                        other => {
                            return Err(BtpError::SqlParse {
                                line,
                                column,
                                message: format!("unexpected character `{other}`"),
                            })
                        }
                    };
                    push(kind);
                }
            }
        }
        Ok(tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::testgen;

    fn kinds(text: &str) -> Vec<TokenKind> {
        tokenize(text).unwrap().iter().map(|t| t.kind).collect()
    }

    /// Asserts that [`tokenize`] and the reference tokenizer agree on `text`: the same error,
    /// or the same tokens at the same positions, each rendered by [`describe`] exactly as the
    /// reference token's `Debug` form, and each identifier tagged with the keyword it spells.
    fn assert_matches_reference(text: &str) {
        let (got, want) = match (tokenize(text), reference::tokenize(text)) {
            (Ok(got), Ok(want)) => (got, want),
            (got, want) => {
                assert_eq!(got.err(), want.err(), "lexing {text:?}");
                return;
            }
        };
        assert_eq!(got.len(), want.len(), "token count of {text:?}");
        for (got, want) in got.iter().zip(&want) {
            assert_eq!(
                (describe(Some(got)), got.line, got.column),
                (format!("{:?}", Some(&want.kind)), want.line, want.column),
                "lexing {text:?}"
            );
            if let TokenKind::Ident(keyword) = got.kind {
                let spelled = Keyword::ALL
                    .iter()
                    .find(|k| k.as_str().eq_ignore_ascii_case(got.text));
                assert_eq!(Some(&keyword), spelled.or(Some(&Keyword::None)));
            }
        }
    }

    #[test]
    fn matches_the_reference_on_the_bundled_workloads_and_auction_n() {
        for source in testgen::sources() {
            assert_matches_reference(source);
        }
        for n in [1, 10, 100] {
            assert_matches_reference(&testgen::auction_n_sql(n));
        }
    }

    #[test]
    fn matches_the_reference_on_the_seeded_mutants() {
        let mutants = testgen::mutants();
        assert_eq!(mutants.len(), 4000);
        for (_, text) in &mutants {
            assert_matches_reference(text);
        }
    }

    #[test]
    fn matches_the_reference_on_edge_cases() {
        let cases = [
            "SELECT\u{a0}a\tFROM\u{a0}\u{a0}R;",
            "SELECT a\r\nFROM R;\r\n  WHERE k = :x;",
            "-- café\nSELECT a FROM R; -- é at the end",
            "SET c = 'café' WHERE k = :x AND d = 1",
            "SET c = 'x\ny é\n  z', d = :p",
            "SELECT café FROM R",
            "SELECT a FROM R WHERE k = 'unterminated\nacross\nlines",
            "a ! b",
            "a !",
            "a != b <> c <= d >= e < f > g",
            "FOREIGN KEY f1 : Bids (x) REFERENCES B (y); f2: Bids",
            "x = 1.2.3 - -1 --",
            "\u{2003}SELECT\u{85}a\u{3000}FROM R",
            "\u{feff}SELECT a FROM R",
            "",
            "SeLeCt FROM from EndRepeat endrepeats references_ REFERENCES",
        ];
        for text in cases {
            assert_matches_reference(text);
        }
        // Every character up to U+3000 alone and between two tokens.
        for c in (0..=0x3000).filter_map(char::from_u32) {
            assert_matches_reference(&c.to_string());
            assert_matches_reference(&format!("a{c}b\n{c}é{c}:c"));
        }
    }

    #[test]
    fn keywords_are_tagged_ignoring_case_and_names_are_not() {
        assert_eq!(
            kinds("select Select SELECT selects _select"),
            [
                TokenKind::Ident(Keyword::Select),
                TokenKind::Ident(Keyword::Select),
                TokenKind::Ident(Keyword::Select),
                TokenKind::Ident(Keyword::None),
                TokenKind::Ident(Keyword::None),
            ]
        );
        assert_eq!(Keyword::ALL.len(), 33);
        // Each word alone (near the end of the text) and followed by more text (the 16-byte
        // window), in every case.
        let classify = |word: &str| {
            let alone = Keyword::of(word.as_bytes(), 0, word.len());
            let padded = format!("{word} {}", "x".repeat(20));
            assert_eq!(
                Keyword::of(padded.as_bytes(), 0, word.len()),
                alone,
                "{word}"
            );
            alone
        };
        for &keyword in Keyword::ALL {
            let upper = keyword.as_str();
            let lower = upper.to_lowercase();
            let mixed: String = upper
                .chars()
                .zip(lower.chars())
                .enumerate()
                .map(|(i, (u, l))| if i % 2 == 0 { l } else { u })
                .collect();
            for word in [upper, &lower, &mixed] {
                assert_eq!(classify(word), keyword);
                for other in [&word[1..], &word[..word.len() - 1]] {
                    if !other.is_empty() {
                        assert_ne!(classify(other), keyword);
                    }
                }
                for suffix in ["s", "_", "1", "_and_more_than_sixteen_bytes"] {
                    assert_eq!(classify(&format!("{word}{suffix}")), Keyword::None);
                }
            }
        }
        assert_eq!(classify("ABCDEFGHIJKLMNOPQRSTUVWXYZ"), Keyword::None);
    }

    #[test]
    fn tokenizes_statement_with_params_and_operators() {
        let tokens = tokenize("UPDATE Buyer SET calls = calls + 1 WHERE id = :B;").unwrap();
        assert_eq!(tokens[0].kind, TokenKind::Ident(Keyword::Update));
        assert!(tokens
            .iter()
            .any(|t| t.kind == TokenKind::Param && t.text == "B"));
        assert!(tokens
            .iter()
            .any(|t| t.kind == TokenKind::Number && t.text == "1"));
        assert_eq!(tokens.last().unwrap().kind, TokenKind::Semicolon);
    }

    #[test]
    fn comments_are_skipped_and_lines_tracked() {
        let tokens = tokenize("SELECT a -- the a column\nFROM R;").unwrap();
        assert!(tokens
            .iter()
            .any(|t| t.kind == TokenKind::Ident(Keyword::From) && t.line == 2));
        assert!(!tokens.iter().any(|t| t.text == "column"));
    }

    #[test]
    fn columns_track_token_starts() {
        let tokens = tokenize("SELECT a\n  FROM R; -- é\n'é' b").unwrap();
        let at = |text: &str| {
            let t = tokens.iter().find(|t| t.text == text).unwrap();
            (t.line, t.column)
        };
        assert_eq!(at("SELECT"), (1, 1));
        assert_eq!(at("a"), (1, 8));
        assert_eq!(at("FROM"), (2, 3));
        assert_eq!(at("é"), (3, 1));
        assert_eq!(at("b"), (3, 5));
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = tokenize("a b\n  ? c").unwrap_err();
        assert_eq!(
            err,
            BtpError::SqlParse {
                line: 2,
                column: 3,
                message: "unexpected character `?`".into(),
            }
        );
        let err = tokenize("a\u{a0}é").unwrap_err();
        assert_eq!(
            err.to_string(),
            "SQL parse error at line 1, column 3: unexpected character `é`"
        );
    }

    #[test]
    fn comparison_operators() {
        let ops: Vec<TokenKind> =
            kinds("a >= 1 AND b <> 2 AND c <= 3 AND d != 4 AND e < 5 AND f > 6")
                .into_iter()
                .filter(|k| {
                    matches!(
                        k,
                        TokenKind::Ge
                            | TokenKind::NotEq
                            | TokenKind::Le
                            | TokenKind::Lt
                            | TokenKind::Gt
                    )
                })
                .collect();
        assert_eq!(
            ops,
            [
                TokenKind::Ge,
                TokenKind::NotEq,
                TokenKind::Le,
                TokenKind::NotEq,
                TokenKind::Lt,
                TokenKind::Gt
            ]
        );
    }

    #[test]
    fn string_literals_and_errors() {
        let tokens = tokenize("SET c_credit = 'BC'").unwrap();
        assert!(tokens
            .iter()
            .any(|t| t.kind == TokenKind::Str && t.text == "BC"));
        assert!(tokenize("SET x = 'oops").is_err());
        assert!(kinds("FOREIGN KEY f1 : Bids").contains(&TokenKind::Colon));
        assert!(tokenize("a ! b").is_err());
        assert!(tokenize("a ? b").is_err());
    }

    #[test]
    fn minus_is_distinguished_from_comment() {
        assert!(kinds("SET b = b - 1").contains(&TokenKind::Minus));
    }

    #[test]
    fn describe_renders_tokens_as_parse_errors_name_them() {
        let tokens = tokenize("FRM ( :p 'q\"' 1.5").unwrap();
        let described: Vec<String> = tokens.iter().map(|t| describe(Some(t))).collect();
        assert_eq!(
            described,
            [
                r#"Some(Ident("FRM"))"#,
                "Some(LParen)",
                r#"Some(Param("p"))"#,
                r#"Some(Str("q\""))"#,
                r#"Some(Number("1.5"))"#,
            ]
        );
        assert_eq!(describe(None), "None");
    }
}
