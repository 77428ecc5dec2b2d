//! Per-line classification for the audit's exemptions: which lines lie
//! inside a `#[cfg(test)]` item and which are doc comments.
//!
//! Test regions are found on the stripped line view, comments and
//! string-literal contents blanked with line structure preserved, so a
//! brace inside a literal cannot skew the matching. The blanking is
//! [`crate::lexer::stripped_view`] over the lossless token stream the
//! rules read, so the two never disagree about what is code.

use crate::lexer;

/// A file's stripped lines and their classifications.
#[derive(Debug)]
pub struct StrippedSource {
    /// Lines with comments and string contents blanked.
    pub lines: Vec<String>,
    /// Whether each line is a doc comment (`///`, `//!` or `#[doc`) in the
    /// original source: an `audit:allow` marker there is prose, not a
    /// suppression.
    pub doc_comment: Vec<bool>,
    /// Whether each line lies inside a `#[cfg(test)]` item.
    pub in_test_region: Vec<bool>,
}

/// Strips `text` and computes the line classifications.
pub fn strip_source(text: &str) -> StrippedSource {
    let tokens = lexer::lex(text);
    let stripped = lexer::stripped_view(&tokens);
    let lines: Vec<String> = stripped.split('\n').map(ToOwned::to_owned).collect();
    let doc_comment = text
        .split('\n')
        .map(|line| {
            let t = line.trim_start();
            t.starts_with("///") || t.starts_with("//!") || t.starts_with("#[doc")
        })
        .collect();
    let in_test_region = mark_test_regions(&lines);
    StrippedSource {
        lines,
        doc_comment,
        in_test_region,
    }
}

/// Marks every line belonging to a `#[cfg(test)]` item. The attribute's
/// item is delimited by its matching braces (a `mod tests { … }` block) or,
/// for brace-less items, by the first `;` at brace depth zero. Runs on the
/// stripped lines, so braces inside literals cannot skew the matching.
fn mark_test_regions(lines: &[String]) -> Vec<bool> {
    let mut marked = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if marked[i] || !lines[i].contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let start = i;
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut end = lines.len() - 1;
        'scan: for (j, line) in lines.iter().enumerate().skip(start) {
            for c in line.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth == 0 {
                            end = j;
                            break 'scan;
                        }
                    }
                    ';' if !opened && depth == 0 => {
                        end = j;
                        break 'scan;
                    }
                    _ => {}
                }
            }
        }
        for flag in marked.iter_mut().take(end + 1).skip(start) {
            *flag = true;
        }
        i = end + 1;
    }
    marked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let s = strip_source(
            "let x = 1; // panic! in comment\nlet m = \"calls unwrap() inside\";\n/* block\npanic! */ let y = 2;\n",
        );
        assert!(!s.lines[0].contains("panic!"));
        assert!(s.lines[0].contains("let x = 1;"));
        assert!(!s.lines[1].contains("unwrap"));
        assert!(s.lines[1].contains("let m ="));
        assert!(!s.lines[2].contains("panic"));
        assert!(s.lines[3].contains("let y = 2;"));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let s = strip_source(
            "let a = r#\"panic! \"quoted\" unwrap()\"#;\nlet b = \"esc \\\" panic!\";\nlet c = a.unwrap();\n",
        );
        assert!(!s.lines[0].contains("panic"));
        assert!(!s.lines[1].contains("panic"));
        assert!(s.lines[2].contains(".unwrap()"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let s =
            strip_source("fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'x';\nlet n = '\\n';\n");
        assert_eq!(s.lines[0], "fn f<'a>(x: &'a str) -> &'a str { x }");
        assert_eq!(s.lines[1], "let c = ' ';");
        assert_eq!(s.lines[2], "let n = '  ';");
    }

    #[test]
    fn multiline_strings_keep_line_count() {
        let text = "let s = \"line one\nline two with panic!\nend\";\nlet t = 1.unwrap();\n";
        let s = strip_source(text);
        assert_eq!(s.lines.len(), text.split('\n').count());
        assert!(!s.lines[1].contains("panic"));
        assert!(s.lines[3].contains("unwrap"));
    }

    #[test]
    fn test_region_spans_mod_block() {
        let s = strip_source(
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    use super::*;\n    fn b() {}\n}\nfn c() {}\n",
        );
        // The trailing newline yields one final empty line.
        assert_eq!(
            s.in_test_region,
            vec![false, true, true, true, true, true, false, false]
        );
    }

    #[test]
    fn braceless_test_item_ends_at_semicolon() {
        let s = strip_source("#[cfg(test)]\nuse helpers::*;\nfn real() {}\n");
        assert_eq!(s.in_test_region, vec![true, true, false, false]);
    }

    #[test]
    fn doc_comment_lines_flagged() {
        let s = strip_source("/// docs\npub fn f() {}\n//! inner\n#[doc = \"x\"]\n");
        assert_eq!(s.doc_comment, vec![true, false, true, true, false]);
    }
}
