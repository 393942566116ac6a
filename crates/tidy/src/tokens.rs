//! The one tokenizer behind every `stem-tidy` source rule.
//!
//! Produces a flat token stream over the whole file: identifiers,
//! single-character punctuation, literals and delimiters, each tagged
//! with its 1-based source line. String/char literal bodies collapse into
//! a single `Lit` token, so no rule ever confuses text inside a string
//! for code; numeric literals keep their digits (the float-equality rule
//! reads them). Comments leave the code stream and arrive separately,
//! one entry per source line they cover, for the hygiene markers.
//!
//! It deliberately stops short of Rust's full grammar — multi-character
//! operators arrive as adjacent single `Punct` tokens and the rules match
//! the sequences they care about (`::`, `->`, `==`, `.unwrap()`). That
//! keeps this file small enough to audit while staying robust on every
//! construct the workspace actually uses, including nested block
//! comments, raw strings with hash runs, byte strings, raw identifiers
//! and lifetimes.
//!
//! The item-boundary helpers at the bottom (`seek_body_or_semi`,
//! `item_end`, `attribute`, `test_regions`) are the single definition of
//! "which tokens belong to which item" and of "which items are test
//! code", shared by the line rules and the item parser.

use std::ops::Range;

/// Token kind. Delimiters are split out so the parser can do cheap
/// balanced-region skips without re-inspecting punct characters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (raw identifiers arrive without the `r#`).
    Ident,
    /// Any literal: string, raw string, byte string, char, number.
    Lit,
    /// One punctuation character (`:`, `=`, `+`, `.`, …).
    Punct(char),
    /// `(`, `[` or `{`.
    Open(char),
    /// `)`, `]` or `}`.
    Close(char),
}

/// One token with its source position.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    /// Identifier text, or the digits of a numeric literal (`1.5e-3`,
    /// `0x1f`, `2u32`); empty for every other kind.
    pub text: String,
    /// 1-based line number of the token's first character.
    pub line: u32,
}

impl Tok {
    /// True when this token is the identifier `word`.
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokKind::Ident && self.text == word
    }

    /// True when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// The text of one source line's share of a comment (line, block or
/// doc). A block comment spanning lines yields one entry per line.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based source line.
    pub line: u32,
    pub text: String,
}

/// A tokenized file: the code tokens and, apart from them, the comments.
#[derive(Debug, Clone)]
pub struct Tokens {
    pub toks: Vec<Tok>,
    /// In source order, so lines never decrease.
    pub comments: Vec<Comment>,
}

/// Tokenize a whole source file. Never fails: unrecognised bytes are
/// skipped, unterminated literals simply run to end of input. The stream
/// is best-effort by design — `stem-tidy` is a lint, not a compiler.
pub fn tokenize(src: &str) -> Tokens {
    let chars: Vec<char> = src.chars().collect();
    let mut toks: Vec<Tok> = Vec::new();
    let mut comments: Vec<Comment> = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0usize;

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if next == Some('/') => {
                let start = i;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                comments.push(Comment {
                    line,
                    text: chars[start..i].iter().collect(),
                });
            }
            '/' if next == Some('*') => {
                let mut depth = 1u32;
                let mut seg = i; // start of this line's share of the comment
                i += 2;
                while i < chars.len() && depth > 0 {
                    match (chars[i], chars.get(i + 1).copied()) {
                        ('\n', _) => {
                            comments.push(Comment {
                                line,
                                text: chars[seg..i].iter().collect(),
                            });
                            seg = i + 1;
                            line += 1;
                        }
                        ('/', Some('*')) => {
                            depth += 1;
                            i += 1;
                        }
                        ('*', Some('/')) => {
                            depth -= 1;
                            i += 1;
                        }
                        _ => {}
                    }
                    i += 1;
                }
                comments.push(Comment {
                    line,
                    text: chars[seg..i].iter().collect(),
                });
            }
            'r' | 'b' if raw_string_hashes(&chars, i).is_some() => {
                let (hashes, prefix) = raw_string_hashes(&chars, i).expect("checked");
                let start = line;
                i += prefix; // lands just past the opening quote
                while i < chars.len() {
                    if chars[i] == '\n' {
                        line += 1;
                    } else if chars[i] == '"' && run_of(&chars, i + 1, '#') >= hashes {
                        i += 1 + hashes;
                        break;
                    }
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Lit,
                    text: String::new(),
                    line: start,
                });
            }
            'b' if next == Some('"') => {
                let start = line;
                i = consume_string(&chars, i + 2, &mut line);
                toks.push(Tok {
                    kind: TokKind::Lit,
                    text: String::new(),
                    line: start,
                });
            }
            'b' if next == Some('\'') => {
                let start = line;
                i = consume_char_lit(&chars, i + 2);
                toks.push(Tok {
                    kind: TokKind::Lit,
                    text: String::new(),
                    line: start,
                });
            }
            '"' => {
                let start = line;
                i = consume_string(&chars, i + 1, &mut line);
                toks.push(Tok {
                    kind: TokKind::Lit,
                    text: String::new(),
                    line: start,
                });
            }
            '\'' => {
                if is_char_literal(&chars, i) {
                    toks.push(Tok {
                        kind: TokKind::Lit,
                        text: String::new(),
                        line,
                    });
                    i = consume_char_lit(&chars, i + 1);
                } else {
                    // Lifetime: skip the quote and the label identifier.
                    i += 1;
                    while i < chars.len() && is_ident_char(chars[i]) {
                        i += 1;
                    }
                }
            }
            'r' if next == Some('#') && chars.get(i + 2).is_some_and(|&c| is_ident_start(c)) => {
                // Raw identifier `r#type`: token text drops the prefix.
                let (text, end) = take_ident(&chars, i + 2);
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text,
                    line,
                });
                i = end;
            }
            c if is_ident_start(c) => {
                let (text, end) = take_ident(&chars, i);
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text,
                    line,
                });
                i = end;
            }
            c if c.is_ascii_digit() => {
                let end = consume_number(&chars, i);
                toks.push(Tok {
                    kind: TokKind::Lit,
                    text: chars[i..end].iter().collect(),
                    line,
                });
                i = end;
            }
            '(' | '[' | '{' => {
                toks.push(Tok {
                    kind: TokKind::Open(c),
                    text: String::new(),
                    line,
                });
                i += 1;
            }
            ')' | ']' | '}' => {
                toks.push(Tok {
                    kind: TokKind::Close(c),
                    text: String::new(),
                    line,
                });
                i += 1;
            }
            c => {
                toks.push(Tok {
                    kind: TokKind::Punct(c),
                    text: String::new(),
                    line,
                });
                i += 1;
            }
        }
    }
    Tokens { toks, comments }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn take_ident(chars: &[char], start: usize) -> (String, usize) {
    let mut end = start;
    while end < chars.len() && is_ident_char(chars[end]) {
        end += 1;
    }
    (chars[start..end].iter().collect(), end)
}

/// Length of the run of `c` starting at `i`.
fn run_of(chars: &[char], i: usize, c: char) -> usize {
    chars[i.min(chars.len())..]
        .iter()
        .take_while(|&&x| x == c)
        .count()
}

/// If position `i` opens a raw (byte) string, return `(hash_count,
/// chars_from_i_to_just_past_the_opening_quote)`.
fn raw_string_hashes(chars: &[char], i: usize) -> Option<(usize, usize)> {
    let prefix = match (chars[i], chars.get(i + 1).copied()) {
        ('r', _) => 1,
        ('b', Some('r')) => 2,
        _ => return None,
    };
    let hashes = run_of(chars, i + prefix, '#');
    (chars.get(i + prefix + hashes) == Some(&'"')).then_some((hashes, prefix + hashes + 1))
}

/// Consume a (byte) string body starting just past the opening quote;
/// returns the index just past the closing quote.
fn consume_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                if chars.get(i + 1) == Some(&'\n') {
                    *line += 1; // escaped-newline continuation
                }
                i += 2;
            }
            '\n' => {
                *line += 1;
                i += 1;
            }
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Consume a char-literal body starting just past the opening quote.
fn consume_char_lit(chars: &[char], mut i: usize) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '\'' => return i + 1,
            '\n' => return i, // malformed; don't eat the newline
            _ => i += 1,
        }
    }
    i
}

/// `'x'` / `'\n'` are char literals, `'static` is a lifetime.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

/// Consume a numeric literal (ints, floats, exponents, suffixes, radix
/// prefixes). `.` is only part of the number when followed by a digit, so
/// `0..n` and `1.max(x)` tokenize correctly.
fn consume_number(chars: &[char], mut i: usize) -> usize {
    while i < chars.len() {
        let c = chars[i];
        if is_ident_char(c) {
            // Exponent sign: `1e-3` / `2.5E+8`.
            if (c == 'e' || c == 'E')
                && matches!(chars.get(i + 1), Some('+') | Some('-'))
                && chars.get(i + 2).is_some_and(|d| d.is_ascii_digit())
            {
                i += 2;
            }
            i += 1;
        } else if c == '.' && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit()) {
            i += 1;
        } else {
            break;
        }
    }
    i
}

/// Index just past the region opened by the delimiter at `open_idx`
/// (which must be `Open(_)`). Counts nested delimiters of every flavour
/// together, which is sound for well-formed code.
pub fn skip_balanced(toks: &[Tok], open_idx: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open_idx;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Open(_) => depth += 1,
            TokKind::Close(_) => {
                depth -= 1;
                if depth <= 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Where an item's declaration ends.
#[derive(Debug)]
pub enum Body {
    /// Index of the `{` that opens the item body.
    Braced(usize),
    /// Index just past the `;` that ends a body-less item.
    Semi(usize),
}

/// From `start`, find the item's `{` body or terminating `;`, skipping
/// balanced `()`/`[]`/`<>` regions (generics, where-clause bounds).
pub fn seek_body_or_semi(toks: &[Tok], start: usize, end: usize) -> Body {
    let mut i = start;
    let mut angle = 0i64;
    while i < end {
        match toks[i].kind {
            TokKind::Open('{') if angle == 0 => return Body::Braced(i),
            TokKind::Punct(';') if angle == 0 => return Body::Semi(i + 1),
            TokKind::Open(_) => {
                i = skip_balanced(toks, i);
                continue;
            }
            TokKind::Punct('<') => {
                // `->` never reaches here ('-' precedes), `<<` just nests.
                angle += 1;
            }
            TokKind::Punct('>') if angle > 0 => angle -= 1,
            _ => {}
        }
        i += 1;
    }
    Body::Semi(end)
}

/// Index just past the item whose declaration starts at `start`: past
/// its closing `}`, or past its `;` when it has no body.
pub fn item_end(toks: &[Tok], start: usize, end: usize) -> usize {
    match seek_body_or_semi(toks, start, end) {
        Body::Braced(open) => skip_balanced(toks, open),
        Body::Semi(after) => after,
    }
}

/// The outer attribute `#[...]` at `i`, if one starts there: the index
/// just past its `]`, and whether it marks test code. Exactly `#[test]`
/// and `#[cfg(test)]` do; `#[cfg(not(test))]` guards live code.
pub fn attribute(toks: &[Tok], i: usize) -> Option<(usize, bool)> {
    if !toks[i].is_punct('#')
        || !toks
            .get(i + 1)
            .is_some_and(|t| t.kind == TokKind::Open('['))
    {
        return None;
    }
    let close = skip_balanced(toks, i + 1);
    let is_test = match &toks[i + 2..close.saturating_sub(1).max(i + 2)] {
        [t] => t.is_ident("test"),
        [cfg, open, t, shut] => {
            cfg.is_ident("cfg")
                && open.kind == TokKind::Open('(')
                && t.is_ident("test")
                && shut.kind == TokKind::Close(')')
        }
        _ => false,
    };
    Some((close, is_test))
}

/// Token ranges of every item under a test attribute, attribute included,
/// wherever in the file it sits. The line rules exempt these tokens; the
/// item parser leaves the same items out of the call graph.
pub fn test_regions(toks: &[Tok]) -> Vec<Range<usize>> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        i = match attribute(toks, i) {
            Some((after, true)) => {
                let end = item_end(toks, after, toks.len());
                regions.push(i..end);
                end
            }
            Some((after, false)) => after,
            None => i + 1,
        };
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    /// Identifiers on source line `line` (1-based).
    fn idents_on(src: &str, line: u32) -> Vec<String> {
        tokenize(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident && t.line == line)
            .map(|t| t.text)
            .collect()
    }

    /// Whether the first identifier `name` lies inside a test region.
    fn in_test(src: &str, name: &str) -> bool {
        let toks = tokenize(src).toks;
        let at = toks
            .iter()
            .position(|t| t.is_ident(name))
            .expect("ident present");
        test_regions(&toks).iter().any(|r| r.contains(&at))
    }

    #[test]
    fn strings_and_comments_vanish() {
        let src = "fn f() { let s = \"thread_rng()\"; /* now() */ g(); } // now()\n";
        let ids = idents(src);
        assert_eq!(ids, ["fn", "f", "let", "s", "g"]);
    }

    #[test]
    fn comments_keep_their_text_and_line() {
        let src = "let x = 1; // unwrap() in comment\n/// doc unwrap()\nfn f() {}\n";
        let t = tokenize(src);
        let lines: Vec<u32> = t.comments.iter().map(|c| c.line).collect();
        assert_eq!(lines, [1, 2]);
        assert!(t.comments.iter().all(|c| c.text.contains("unwrap")));
        assert!(!idents(src).contains(&"unwrap".to_string()));
    }

    #[test]
    fn block_comments_span_lines() {
        let src = "a();\n/* unwrap()\n still comment */ b();\n";
        let t = tokenize(src);
        assert!(idents_on(src, 2).is_empty(), "comment body leaked as code");
        assert_eq!(idents_on(src, 3), ["b"]);
        // One comment entry per covered line, so a marker is reported on
        // its own line.
        let per_line: Vec<(u32, bool)> = t
            .comments
            .iter()
            .map(|c| (c.line, c.text.contains("still")))
            .collect();
        assert_eq!(per_line, [(2, false), (3, true)]);
    }

    #[test]
    fn raw_strings_span_lines() {
        let src = "let a = r##\"x\ny \"# z\nw\"##; tail();\n";
        let toks = tokenize(src).toks;
        let tail = toks
            .iter()
            .find(|t| t.is_ident("tail"))
            .expect("tail survives");
        assert_eq!(tail.line, 3);
        assert!(
            !toks.iter().any(|t| t.is_ident("w")),
            "raw body leaked into code"
        );
    }

    #[test]
    fn ident_tail_r_is_not_a_raw_string_open() {
        // `xr` is an identifier; `#` and `""` follow it. Taking the
        // trailing `r` as a raw-string prefix would swallow every later
        // line until a stray `"#`.
        let src = "let a = xr #\"\";\nx.unwrap();\n";
        assert_eq!(idents_on(src, 2), ["x", "unwrap"]);
        // Adjacent form (no space): ident `xr`, then `#`, then a string.
        let src = "m!(xr#\"\");\nx.unwrap();\n";
        assert_eq!(idents_on(src, 2), ["x", "unwrap"]);
    }

    #[test]
    fn ident_tail_r_before_quote_keeps_escape_semantics() {
        // `rr"\""` is ident `rr` + a *normal* string containing an escaped
        // quote; the string stays open past the line end. Read as a raw
        // string it would close at the `\"` and leak the real string body
        // on the following lines as code.
        let src = "let a = rr\"\\\"\nnot_code();\n\";\nreal();\n";
        assert!(idents_on(src, 2).is_empty(), "string body leaked as code");
        assert_eq!(idents_on(src, 4), ["real"]);
    }

    #[test]
    fn ident_tail_br_is_not_a_byte_raw_open() {
        let src = "let a = xbr #\"\";\nx.unwrap();\n";
        assert_eq!(idents_on(src, 2), ["x", "unwrap"]);
    }

    #[test]
    fn real_raw_strings_are_still_literals() {
        let src = "let s = r#\"panic!()\"#;\nlet b = br##\"unwrap()\"##;\nok();\n";
        assert_eq!(idents_on(src, 1), ["let", "s"]);
        assert_eq!(idents_on(src, 2), ["let", "b"]);
        assert_eq!(idents_on(src, 3), ["ok"]);
    }

    #[test]
    fn lifetimes_and_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { let c = '\\''; let d = 'x'; c }\n";
        let ids = idents(src);
        assert!(ids.contains(&"str".to_string()));
        assert!(
            !ids.contains(&"a".to_string()),
            "lifetime label leaked: {ids:?}"
        );
        assert!(!ids.contains(&"x".to_string()) || ids.iter().filter(|s| *s == "x").count() == 1);
    }

    #[test]
    fn raw_identifiers_keep_name() {
        let ids = idents("let r#type = r#match;\n");
        assert_eq!(ids, ["let", "type", "match"]);
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let src = "for i in 0..10 { let x = 1.5e-3; let y = 2.max(i); }\n";
        let toks = tokenize(src).toks;
        assert!(
            toks.iter().any(|t| t.is_ident("max")),
            "method after int literal lost"
        );
        let lits: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lit)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lits, ["0", "10", "1.5e-3", "2"]);
    }

    #[test]
    fn line_numbers_track_every_literal_form() {
        let src = "a();\n\"two\nthree\";\nb();\n/* four\nfive */\nc();\n";
        let toks = tokenize(src).toks;
        let line_of = |name: &str| toks.iter().find(|t| t.is_ident(name)).map(|t| t.line);
        assert_eq!(line_of("a"), Some(1));
        assert_eq!(line_of("b"), Some(4));
        assert_eq!(line_of("c"), Some(7));
    }

    #[test]
    fn skip_balanced_nested() {
        let toks = tokenize("{ a { b } ( c ) } tail").toks;
        let end = skip_balanced(&toks, 0);
        assert!(toks[end].is_ident("tail"));
    }

    #[test]
    fn cfg_test_region_marked() {
        let src = "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn lib2() {}\n";
        assert!(!in_test(src, "x"));
        assert!(in_test(src, "cfg"));
        assert!(in_test(src, "tests"));
        assert!(in_test(src, "y"));
        assert!(!in_test(src, "lib2"));
    }

    #[test]
    fn test_attribute_function_marked() {
        let src = "fn a() {}\n#[test]\nfn t() {\n    body();\n}\nfn b() {}\n";
        assert!(!in_test(src, "a"));
        assert!(in_test(src, "body"));
        assert!(!in_test(src, "b"));
    }

    #[test]
    fn a_test_attribute_covers_only_its_own_item() {
        // A body-less item ends at its `;`: the fn after it is live code.
        let src = "#[cfg(test)]\nuse super::*;\npub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(in_test(src, "super"));
        assert!(!in_test(src, "unwrap"));
        // Stacked attributes stay with their item.
        let src = "#[cfg(test)]\n#[derive(Debug)]\nstruct S { a: u8 }\nfn live() {}\n";
        assert!(in_test(src, "a"));
        assert!(!in_test(src, "live"));
    }

    #[test]
    fn only_test_and_cfg_test_are_test_attributes() {
        for attr in [
            "#[cfg(not(test))]",
            "#[cfg_attr(test, derive(Debug))]",
            "#![cfg(test)]",
        ] {
            let src = format!("{attr}\nfn leaf() {{ now(); }}\n");
            assert!(!in_test(&src, "now"), "{attr} marked live code as test");
        }
    }
}
