//! A dependency-free CSV reader sufficient for the Adult data file, and
//! the general line parser behind the labelled-CSV reader.
//!
//! Supports quoted fields with embedded commas and doubled quotes, CRLF
//! and LF line endings, and optional surrounding whitespace trimming. It
//! deliberately does not support embedded newlines inside quoted fields —
//! the Adult file has none, and rejecting them keeps the reader O(1) in
//! lookahead.

use std::io::BufRead;

use crate::error::{DataError, Result};

/// Parse one CSV line into fields.
///
/// # Errors
/// Returns [`DataError::Csv`] for unterminated quotes; `line_no` is used
/// only for error reporting.
pub fn parse_line(line: &str, line_no: usize) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let n = parse_line_into(line, line_no, &mut fields)?;
    fields.truncate(n);
    Ok(fields)
}

/// Parse one CSV line into a reusable field buffer, returning the number
/// of fields written. Slots beyond the returned count keep stale content;
/// callers read `&fields[..n]`. Reusing the buffer keeps a streaming
/// reader at zero per-line `String` allocations once capacities settle.
///
/// # Errors
/// Returns [`DataError::Csv`] for unterminated quotes; `line_no` is used
/// only for error reporting.
pub fn parse_line_into(line: &str, line_no: usize, fields: &mut Vec<String>) -> Result<usize> {
    // Hand out the next reusable field slot, cleared.
    fn open_slot(fields: &mut Vec<String>, n: &mut usize) {
        if *n == fields.len() {
            fields.push(String::new());
        }
        fields[*n].clear();
        *n += 1;
    }
    let mut n = 0usize;
    open_slot(fields, &mut n);
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        fields[n - 1].push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => fields[n - 1].push(c),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => open_slot(fields, &mut n),
                '\r' => {} // tolerate CR before LF
                _ => fields[n - 1].push(c),
            }
        }
    }
    if in_quotes {
        return Err(DataError::Csv {
            line: line_no,
            reason: "unterminated quoted field".into(),
        });
    }
    Ok(n)
}

/// Stream rows from a reader, invoking `visit(line_no, fields)` for each
/// non-blank line (1-based `line_no`). Line and field buffers are reused
/// across rows, so memory stays O(widest row) no matter how large the
/// file is. The labelled-CSV reader accepts and rejects exactly what this
/// loop plus its row parser would, one block of lines at a time.
///
/// # Errors
/// Propagates I/O and parse failures, and whatever the visitor returns.
pub fn for_each_row<R, F>(mut reader: R, mut visit: F) -> Result<()>
where
    R: BufRead,
    F: FnMut(usize, &[String]) -> Result<()>,
{
    let mut line = String::new();
    let mut fields: Vec<String> = Vec::new();
    let mut line_no = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        line_no += 1;
        let trimmed = line.trim_end_matches(['\n', '\r']);
        if trimmed.trim().is_empty() {
            continue;
        }
        let n = parse_line_into(trimmed, line_no, &mut fields)?;
        visit(line_no, &fields[..n])?;
    }
}

/// Read all rows from a reader; empty lines are skipped.
///
/// # Errors
/// Propagates I/O and parse failures.
pub fn read_rows<R: BufRead>(reader: R) -> Result<Vec<Vec<String>>> {
    let mut rows = Vec::new();
    for_each_row(reader, |_, fields| {
        rows.push(fields.to_vec());
        Ok(())
    })?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_fields() {
        assert_eq!(
            parse_line("a,b,c", 1).unwrap(),
            vec!["a".to_string(), "b".into(), "c".into()]
        );
    }

    #[test]
    fn quoted_with_commas_and_quotes() {
        assert_eq!(
            parse_line(r#""a,b","say ""hi""",c"#, 1).unwrap(),
            vec!["a,b".to_string(), r#"say "hi""#.into(), "c".into()]
        );
    }

    #[test]
    fn empty_fields_preserved() {
        assert_eq!(
            parse_line("a,,c,", 1).unwrap(),
            vec!["a".to_string(), String::new(), "c".into(), String::new()]
        );
    }

    #[test]
    fn crlf_tolerated() {
        assert_eq!(
            parse_line("a,b\r", 1).unwrap(),
            vec!["a".to_string(), "b".into()]
        );
    }

    #[test]
    fn unterminated_quote_errors() {
        assert!(matches!(
            parse_line("\"abc", 7),
            Err(DataError::Csv { line: 7, .. })
        ));
    }

    #[test]
    fn read_rows_skips_blank_lines() {
        let input = "a,b\n\n c,d\n";
        let rows = read_rows(input.as_bytes()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], vec![" c".to_string(), "d".into()]);
    }
}
