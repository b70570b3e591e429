//! Labelled-dataset CSV interchange: the on-disk format of the `otrepair`
//! CLI.
//!
//! Layout: a header row `s,u,x0,x1,…` followed by one row per
//! observation. `s` and `u` must be `0`/`1`; features are finite floats.
//! Column order is fixed (`s`, `u`, then features) so that plans and data
//! sets exchanged between the design and deployment sides cannot be
//! silently misaligned.
//!
//! Both directions move blocks of bytes, not lines, and both run on
//! `otr_par` scoped threads (`OTR_THREADS`, else every core):
//!
//! * the reader fills one buffer of about 1 MiB per thread, cuts
//!   it at the last line end, parses the newline-aligned pieces in
//!   parallel and appends them to the columns in piece order;
//! * the writer formats blocks of rows into one buffer per thread and
//!   writes the buffers in row order. Each thread keeps, per column, a
//!   small direct-mapped cache of `Display` forms keyed on the value's
//!   bits, so a repaired column, which repeats a few support states,
//!   formats each of them about once per thread.
//!
//! Neither the parsed bits, the error reported for a bad file, nor the
//! written bytes depend on the thread count or the block size.

use std::io::{BufRead, Read, Write};
use std::ops::Range;

use crate::columnar::ColumnarDataset;
use crate::csv::{parse_line, parse_line_into};
use crate::dataset::Dataset;
use crate::error::{DataError, Result};

/// Bytes per thread that the reader buffers and the writer formats
/// before handing them on: large enough that spawning a thread per block
/// is noise, small enough that the buffers stay a few MiB.
const BLOCK: usize = 1 << 20;

/// Validate the fixed `s,u,x0,x1,…` header; returns the feature count.
fn validate_header(header: &[String]) -> Result<usize> {
    if header.len() < 3
        || header[0].trim() != "s"
        || header[1].trim() != "u"
        || !header[2..]
            .iter()
            .enumerate()
            .all(|(k, name)| name.trim() == format!("x{k}"))
    {
        return Err(DataError::Csv {
            line: 1,
            reason: format!("header must be `s,u,x0,x1,…`, got {:?}", header.join(",")),
        });
    }
    Ok(header.len() - 2)
}

fn parse_label(raw: &str, name: &str, line: usize) -> Result<u8> {
    match raw.trim() {
        "0" => Ok(0),
        "1" => Ok(1),
        other => Err(DataError::Csv {
            line,
            reason: format!("{name} must be 0 or 1, got {other:?}"),
        }),
    }
}

fn parse_feature(raw: &str, k: usize, line: usize) -> Result<f64> {
    let v: f64 = raw.trim().parse().map_err(|_| DataError::Csv {
        line,
        reason: format!("x{k} is not a number: {raw:?}"),
    })?;
    if !v.is_finite() {
        return Err(DataError::Csv {
            line,
            reason: format!("x{k} is not finite: {v}"),
        });
    }
    Ok(v)
}

/// Parse one data row against the expected width, appending its
/// features to `x`; returns the `(s, u)` labels.
fn parse_data_row<F: AsRef<str>>(
    fields: &[F],
    d: usize,
    line_no: usize,
    x: &mut Vec<f64>,
) -> Result<(u8, u8)> {
    if fields.len() != d + 2 {
        return Err(DataError::Csv {
            line: line_no,
            reason: format!("expected {} fields, found {}", d + 2, fields.len()),
        });
    }
    let s = parse_label(fields[0].as_ref(), "s", line_no)?;
    let u = parse_label(fields[1].as_ref(), "u", line_no)?;
    for (k, raw) in fields[2..].iter().enumerate() {
        x.push(parse_feature(raw.as_ref(), k, line_no)?);
    }
    Ok((s, u))
}

/// Split `line` on `,` into `fields` (cleared first), unless it holds a
/// `"` or a `\r`. Then the fields are exactly what `parse_line_into`
/// yields for the line, without a `String` per field; otherwise this
/// returns `false` and the line needs `parse_line_into`.
fn split_plain<'a>(line: &'a str, fields: &mut Vec<&'a str>) -> bool {
    fields.clear();
    let mut start = 0;
    for (i, b) in line.bytes().enumerate() {
        match b {
            b',' => {
                fields.push(&line[start..i]);
                start = i + 1;
            }
            b'"' | b'\r' => return false,
            _ => {}
        }
    }
    fields.push(&line[start..]);
    true
}

/// Parse the lines of `piece` (whole lines of the input) as data rows
/// of width `dim`; returns their columns and the piece's line count.
/// Errors carry line numbers counted from the piece's first line.
///
/// Each line is cut of its trailing `\r`s and skipped when blank, as
/// `csv::for_each_row` does, then split by `split_plain` or, failing
/// that, `parse_line_into`. Both feed the one `parse_data_row`.
fn parse_piece(piece: &[u8], dim: usize) -> Result<(ColumnarDataset, usize)> {
    // The piece is validated as a whole. Its lines before an invalid
    // one still parse first, so an earlier bad row wins, as it does line
    // by line; the invalid line is the I/O error `read_line` reports.
    let (text, bad_utf8) = match std::str::from_utf8(piece) {
        Ok(text) => (text, false),
        Err(e) => {
            let valid = &piece[..e.valid_up_to()];
            let lines_end = valid.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            let text = std::str::from_utf8(&piece[..lines_end]);
            (
                text.expect("whole lines before the first invalid byte"),
                true,
            )
        }
    };
    let mut cols = ColumnarDataset::new(dim)?;
    let (mut plain, mut owned, mut x) = (Vec::new(), Vec::new(), Vec::with_capacity(dim));
    let mut lines = 0;
    for line in text.split_terminator('\n') {
        lines += 1;
        let line = line.trim_end_matches('\r');
        if line.trim().is_empty() {
            continue;
        }
        x.clear();
        let (s, u) = if split_plain(line, &mut plain) {
            parse_data_row(&plain, dim, lines, &mut x)?
        } else {
            let n = parse_line_into(line, lines, &mut owned)?;
            parse_data_row(&owned[..n], dim, lines, &mut x)?
        };
        cols.push_row(&x, s, u)?;
    }
    if bad_utf8 {
        let e = std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        );
        return Err(e.into());
    }
    Ok((cols, lines))
}

/// Cut `region` (whole lines) into at most `n` near-equal pieces, each
/// ending at a line end.
fn cut_pieces(region: &[u8], n: usize) -> Vec<&[u8]> {
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for k in 1..=n {
        let aim = (region.len() * k / n).max(start);
        let end = match region[aim..].iter().position(|&b| b == b'\n') {
            Some(i) if k < n => aim + i + 1,
            _ => region.len(),
        };
        if end > start {
            out.push(&region[start..end]);
        }
        start = end;
    }
    out
}

/// The block reader behind [`read_labelled_csv_columnar`], with its
/// block size and thread count exposed so that tests can shrink them.
fn read_blocks<R: BufRead>(mut reader: R, block: usize, threads: usize) -> Result<ColumnarDataset> {
    // The header is the first non-blank line, read as
    // `csv::for_each_row` reads it.
    let mut line_no = 0usize; // lines consumed so far
    let mut line = String::new();
    let mut cols = loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(DataError::Csv {
                line: 0,
                reason: "empty file (expected a header row)".into(),
            });
        }
        line_no += 1;
        let text = line.trim_end_matches(['\n', '\r']);
        if !text.trim().is_empty() {
            break ColumnarDataset::new(validate_header(&parse_line(text, line_no)?)?)?;
        }
    };
    let mut buf: Vec<u8> = Vec::new();
    loop {
        // Top the buffer up to a block per thread; a line longer than
        // that doubles it until the line ends. The carried-over tail
        // holds no line end, so only new bytes are searched. A read
        // error still lets the whole lines before it parse first.
        let mut searched = buf.len();
        let (cut, end) = loop {
            let want = threads
                .saturating_mul(block)
                .saturating_sub(buf.len())
                .max(block)
                .max(buf.len());
            buf.reserve(want);
            let read = reader.by_ref().take(want as u64).read_to_end(&mut buf);
            let line_end = buf[searched..].iter().rposition(|&b| b == b'\n');
            let line_end = line_end.map(|i| searched + i + 1);
            match read {
                Err(e) => break (line_end.unwrap_or(0), Some(Err(e))),
                Ok(n) if n < want => break (buf.len(), Some(Ok(()))),
                Ok(_) => match line_end {
                    Some(cut) => break (cut, None),
                    None => searched = buf.len(),
                },
            }
        };
        let pieces = cut_pieces(&buf[..cut], threads);
        let dim = cols.dim();
        let parsed =
            otr_par::par_map_indexed(pieces.len(), threads, |i| parse_piece(pieces[i], dim));
        // In piece order, so the first bad line in the file is the one
        // reported, with its line number made absolute.
        for piece in parsed {
            let (rows, lines) = piece.map_err(|mut e| {
                if let DataError::Csv { line, .. } = &mut e {
                    *line += line_no;
                }
                e
            })?;
            cols.append(&rows);
            line_no += lines;
        }
        buf.drain(..cut);
        if let Some(end) = end {
            end?;
            break;
        }
    }
    if cols.is_empty() {
        // A header with zero data rows is an empty data set, which
        // `Dataset::from_points` refuses too.
        return Err(DataError::Shape("cannot build an empty dataset".into()));
    }
    Ok(cols)
}

/// Read a labelled data set from CSV (header required): the columnar
/// reader, transposed to rows.
///
/// # Errors
/// Same conditions (and messages) as [`read_labelled_csv_columnar`].
pub fn read_labelled_csv<R: BufRead>(reader: R) -> Result<Dataset> {
    Ok(read_labelled_csv_columnar(reader)?.to_dataset())
}

/// Read a labelled data set straight into columnar (struct-of-arrays)
/// layout, a block per thread at a time (see the module docs). Peak
/// memory beyond the columns themselves is one buffer of about a block
/// per thread plus the pieces' column fragments; the file is never held
/// whole.
///
/// # Errors
/// Reports malformed headers, label values outside `{0,1}`, non-numeric
/// or non-finite features, and inconsistent row widths with line
/// numbers; the first bad line in the file is the one reported.
pub fn read_labelled_csv_columnar<R: BufRead>(reader: R) -> Result<ColumnarDataset> {
    read_blocks(reader, BLOCK, otr_par::thread_count(0))
}

/// Slots per column in the writer's cache of `Display` forms.
const FORM_SLOTS: usize = 512;

/// One slot of the writer's direct-mapped cache: the bits of a value
/// and its `Display` form. No form is empty, so `len == 0` marks an
/// empty slot; a form longer than `text` is never cached.
#[derive(Clone, Copy, Default)]
struct Form {
    bits: u64,
    len: u8,
    text: [u8; 23],
}

/// The cache slot of a value's bits (Fibonacci hashing).
fn form_slot(bits: u64) -> usize {
    (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - FORM_SLOTS.trailing_zeros())) as usize
}

/// Append the `Display` form of `v` to `buf`, from `forms` when its
/// slot holds the form of the same bits, else formatted and cached.
fn push_form(buf: &mut Vec<u8>, v: f64, forms: &mut [Form]) {
    let bits = v.to_bits();
    let slot = &mut forms[form_slot(bits)];
    if slot.len > 0 && slot.bits == bits {
        buf.extend_from_slice(&slot.text[..usize::from(slot.len)]);
        return;
    }
    let start = buf.len();
    write!(buf, "{v}").expect("writing into a Vec cannot fail");
    let form = &buf[start..];
    if form.len() <= slot.text.len() {
        slot.text[..form.len()].copy_from_slice(form);
        slot.len = form.len() as u8;
        slot.bits = bits;
    }
}

/// Format `rows` of `data` as CSV lines into `out.0` (cleared first),
/// each column through its own slots of the cache `out.1`, which the
/// thread keeps from block to block.
fn format_rows(out: &mut (Vec<u8>, Vec<Form>), data: &ColumnarDataset, rows: Range<usize>) {
    // Grow buffers owned by this thread's stack: the per-thread buffers
    // sit side by side in one `Vec`, and updating their lengths in place
    // would bounce that cache line between the threads on every value.
    let (mut buf, mut forms) = std::mem::take(out);
    buf.clear();
    let (s, u, cols) = (data.s(), data.u(), data.feature_columns());
    forms.resize(FORM_SLOTS * cols.len(), Form::default());
    for i in rows {
        // Labels are 0 or 1, a single digit.
        buf.extend_from_slice(&[b'0' + s[i], b',', b'0' + u[i]]);
        for (col, forms) in cols.iter().zip(forms.chunks_exact_mut(FORM_SLOTS)) {
            buf.push(b',');
            push_form(&mut buf, col[i], forms);
        }
        buf.push(b'\n');
    }
    *out = (buf, forms);
}

/// The block writer behind [`write_labelled_csv_columnar`], with its
/// block size and thread count exposed so that tests can shrink them.
fn write_blocks<W: Write>(
    mut writer: W,
    data: &ColumnarDataset,
    block: usize,
    threads: usize,
) -> Result<()> {
    let mut header = String::from("s,u");
    for k in 0..data.dim() {
        header.push_str(&format!(",x{k}"));
    }
    header.push('\n');
    writer.write_all(header.as_bytes())?;
    // Rows per block: `{}` of a typical f64 takes about 20 bytes.
    let rows = (block / (4 + 20 * data.dim())).max(1);
    let n = data.len();
    let threads = threads.min(n.div_ceil(rows)).max(1);
    let mut bufs = vec![(Vec::new(), Vec::new()); threads];
    for round in (0..n).step_by(rows * threads) {
        otr_par::par_chunks_mut(&mut bufs, threads, |first, chunk| {
            for (b, buf) in chunk.iter_mut().enumerate() {
                let start = (round + (first + b) * rows).min(n);
                format_rows(buf, data, start..(start + rows).min(n));
            }
        });
        for (buf, _) in &bufs {
            writer.write_all(buf)?;
        }
    }
    writer.flush()?;
    Ok(())
}

/// Write a labelled data set as CSV (with header): the columnar writer
/// over its transpose, so both writers produce the same bytes.
///
/// # Errors
/// Propagates I/O failures, including those of the final flush.
pub fn write_labelled_csv<W: Write>(writer: W, data: &Dataset) -> Result<()> {
    write_labelled_csv_columnar(writer, &ColumnarDataset::from_dataset(data))
}

/// Write a columnar data set as CSV (with header), a block of rows per
/// thread at a time (see the module docs), and flush the writer. Labels
/// and finite floats never need CSV escaping; every value is written
/// with its `Display` form.
///
/// # Errors
/// Propagates I/O failures, including those of the final flush.
pub fn write_labelled_csv_columnar<W: Write>(writer: W, data: &ColumnarDataset) -> Result<()> {
    write_blocks(writer, data, BLOCK, otr_par::thread_count(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::for_each_row;
    use crate::dataset::LabelledPoint;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn sample() -> Dataset {
        Dataset::from_points(vec![
            LabelledPoint {
                x: vec![1.5, -2.0],
                s: 0,
                u: 1,
            },
            LabelledPoint {
                x: vec![0.25, 100.0],
                s: 1,
                u: 0,
            },
        ])
        .unwrap()
    }

    #[test]
    fn round_trip() {
        let data = sample();
        let mut buf = Vec::new();
        write_labelled_csv(&mut buf, &data).unwrap();
        let back = read_labelled_csv(buf.as_slice()).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn rejects_missing_or_bad_header() {
        assert!(read_labelled_csv("".as_bytes()).is_err());
        assert!(read_labelled_csv("a,b,c\n0,1,2".as_bytes()).is_err());
        assert!(read_labelled_csv("s,u\n0,1".as_bytes()).is_err());
        assert!(read_labelled_csv("s,u,x1\n0,1,2".as_bytes()).is_err()); // must start at x0
    }

    #[test]
    fn rejects_bad_rows_with_line_numbers() {
        let err = read_labelled_csv("s,u,x0\n0,1,1.0\n2,0,1.0".as_bytes());
        match err {
            Err(DataError::Csv { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected CSV error, got {other:?}"),
        }
        assert!(read_labelled_csv("s,u,x0\n0,1".as_bytes()).is_err());
        assert!(read_labelled_csv("s,u,x0\n0,1,abc".as_bytes()).is_err());
        assert!(read_labelled_csv("s,u,x0\n0,1,inf".as_bytes()).is_err());
    }

    #[test]
    fn skips_blank_lines() {
        let data = read_labelled_csv("s,u,x0\n\n0,1,3.5\n\n1,0,2.5\n".as_bytes()).unwrap();
        assert_eq!(data.len(), 2);
        assert_eq!(data.points()[0].x, vec![3.5]);
    }

    #[test]
    fn columnar_ingest_matches_row_path() {
        let input = "s,u,x0,x1\n\n0,1,3.5,-2\n1,0,2.5,1e3\n\n1,1,0.125,7\n";
        let rows = read_labelled_csv(input.as_bytes()).unwrap();
        let cols = read_labelled_csv_columnar(input.as_bytes()).unwrap();
        assert_eq!(cols.to_dataset(), rows);
        assert_eq!(cols, ColumnarDataset::from_dataset(&rows));
    }

    #[test]
    fn columnar_ingest_rejects_what_row_path_rejects() {
        for bad in [
            "",
            "a,b,c\n0,1,2",
            "s,u,x1\n0,1,2",
            "s,u,x0\n",        // header but zero data rows
            "s,u,x0\n0,1",     // short row
            "s,u,x0\n2,0,1.0", // bad label
            "s,u,x0\n0,1,abc", // non-numeric
            "s,u,x0\n0,1,inf", // non-finite
        ] {
            assert!(
                read_labelled_csv(bad.as_bytes()).is_err(),
                "row path accepted {bad:?}"
            );
            assert!(
                read_labelled_csv_columnar(bad.as_bytes()).is_err(),
                "columnar path accepted {bad:?}"
            );
        }
    }

    #[test]
    fn columnar_write_is_byte_identical_to_row_write() {
        let data = sample();
        let cols = ColumnarDataset::from_dataset(&data);
        let mut row_buf = Vec::new();
        write_labelled_csv(&mut row_buf, &data).unwrap();
        let mut col_buf = Vec::new();
        write_labelled_csv_columnar(&mut col_buf, &cols).unwrap();
        assert_eq!(row_buf, col_buf);
        let back = read_labelled_csv_columnar(col_buf.as_slice()).unwrap();
        assert_eq!(back, cols);
    }

    /// The line-at-a-time reader the block reader replaced:
    /// `csv::for_each_row` plus `parse_data_row`, one row at a time.
    fn oracle(input: &[u8]) -> Result<ColumnarDataset> {
        let mut data: Option<ColumnarDataset> = None;
        let mut x = Vec::new();
        for_each_row(input, |line_no, fields| {
            let Some(cols) = data.as_mut() else {
                data = Some(ColumnarDataset::new(validate_header(fields)?)?);
                return Ok(());
            };
            x.clear();
            let (s, u) = parse_data_row(fields, cols.dim(), line_no, &mut x)?;
            cols.push_row(&x, s, u)
        })?;
        match data {
            Some(cols) if !cols.is_empty() => Ok(cols),
            Some(_) => Err(DataError::Shape("cannot build an empty dataset".into())),
            None => Err(DataError::Csv {
                line: 0,
                reason: "empty file (expected a header row)".into(),
            }),
        }
    }

    /// The columns' bits and labels, or the error's text.
    type Image = std::result::Result<(Vec<Vec<u64>>, Vec<u8>, Vec<u8>), String>;

    fn image(read: Result<ColumnarDataset>) -> Image {
        read.map(|c| {
            let bits = c.feature_columns().iter();
            let bits = bits.map(|col| col.iter().map(|v| v.to_bits()).collect());
            (bits.collect(), c.s().to_vec(), c.u().to_vec())
        })
        .map_err(|e| e.to_string())
    }

    /// Inputs covering every branch of both readers: line endings,
    /// blank lines, quoting, labels, number spellings, field counts,
    /// non-ASCII and invalid UTF-8, and file shapes.
    fn corpus() -> Vec<Vec<u8>> {
        let mut inputs: Vec<Vec<u8>> = [
            // Line endings: CRLF, lone CRs mid-line and CR-only lines.
            "s,u,x0,x1\r\n0,1,1.5,2\r\n1,0,-3,4e-2\r\n",
            "s,u,x0,x1\n0,1,1.\r5,2\n1\r,0,3,4\n",
            "s,u,x0,x1\n\r\n0,1,1,2\n\r\r\n1,1,3,4\r\r\n",
            // Blank lines: empty, whitespace incl. tab, VT and FF, and
            // before the header.
            "\n \n\t\n\x0B\n\x0C\n s , u ,x0,x1\n\n0,1,1,2\n \t\x0B\x0C\n1,1,3,4\n",
            "\x0B\ns,u,x0\n\x0B\x0B\n0,0,1\n",
            // Quoted fields.
            "s,u,x0,x1\n0,1,\"1.5\",2\n\"1\",\"0\",\"-0\",3\n",
            "s,u,x0,x1\n0,1,\"1,5\",2\n",
            "s,u,x0,x1\n0,1,\"1.5,2\n",
            "\"s\",u,\"x0\"\n0,1,2\n",
            "\"s,u,x0\n0,1,2\n",
            // Labels.
            "s,u,x0\n 1 , 0 ,2\n",
            "s,u,x0\n2,0,1\n",
            "s,u,x0\n0,01,1\n",
            "s,u,x0\n,0,1\n",
            // Numbers.
            "s,u,x0\n0,1,+1.5\n1,0,1e3\n0,0,-0\n1,1,4.9e-324\n0,1,2.2250738585072014e-308\n",
            "s,u,x0\n0,1, 2.5 \n1,1,\t.5\n",
            "s,u,x0\n0,1,inf\n",
            "s,u,x0\n0,1,NaN\n",
            "s,u,x0\n0,1,infinity\n",
            "s,u,x0\n0,1,-inf\n",
            "s,u,x0\n0,1,1e400\n",
            "s,u,x0\n0,1,abc\n",
            "s,u,x0\n0,1,\n",
            // Field counts.
            "s,u,x0,x1\n0,1,2\n",
            "s,u,x0,x1\n0,1,2,3,4\n",
            "s,u,x0\n0,1,2,\n",
            // Non-ASCII: a bad number, Unicode whitespace trimmed, a
            // Unicode-blank line skipped, a byte-order mark.
            "s,u,x0\n0,1,1.5é\n",
            "s,u,x0\n\u{a0}0,1,2\u{2003}\n",
            "s,u,x0\n0,1,2\n\u{3000}\n1,0,3\n",
            "\u{feff}s,u,x0\n0,1,2\n",
            // Header errors.
            "a,b,c\n",
            "s,u\n0,1\n",
            "s,u,x1\n0,1,2\n",
            // File shapes: no trailing newline, header only, empty,
            // blank only.
            "s,u,x0\n0,1,2",
            "s,u,x0\n0,1,2\n1,0,3\r",
            "s,u,x0\n",
            "s,u,x0",
            "",
            "\n\n  \n",
        ]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect();
        // Invalid UTF-8: in a row, in a blank-looking line, before the
        // header, after and before a bad row.
        inputs.extend([
            b"s,u,x0\n0,1,2\n0,1,\xff\n".to_vec(),
            b"s,u,x0\n\xc3\n0,1,2\n".to_vec(),
            b"\xff\ns,u,x0\n".to_vec(),
            b"s,u,x0\n5,1,2\n\xff\n".to_vec(),
            b"s,u,x0\n\xff\n5,1,2\n".to_vec(),
        ]);
        // Lines longer than the default block, with and without an end.
        let long = format!("s,u,x0,x1\n0,1,{}1.5,2\n", "0".repeat(BLOCK + 17));
        inputs.push(format!("{long}1,0,3,4\n").into_bytes());
        inputs.push(format!("{long}1,0,3,{}", "7".repeat(BLOCK + 3)).into_bytes());
        // Many rows, so that pieces and regions split them, with two
        // bad rows late in the file: the first one must be reported.
        let mut many = String::from("s,u,x0,x1\r\n");
        for i in 0..300 {
            let blank = if i % 7 == 0 { "\n \n" } else { "" };
            many.push_str(&format!(
                "{},{},{}.25,-{i}e-3\r\n{blank}",
                i % 2,
                i / 2 % 2,
                i
            ));
        }
        inputs.push(many.clone().into_bytes());
        many.push_str("0,1,1,oops\n1,1,x,2\n");
        inputs.push(many.into_bytes());
        inputs
    }

    #[test]
    fn block_reader_matches_line_reader_for_any_block_and_thread_count() {
        let corpus = corpus();
        let images: Vec<Image> = corpus.iter().map(|input| image(oracle(input))).collect();
        // The corpus reaches every outcome: data, a CSV error with a line
        // number, the invalid-UTF-8 I/O error and the empty-file errors.
        for needle in [
            "line 2:",
            "oops",
            "valid UTF-8",
            "empty file",
            "empty dataset",
        ] {
            assert!(
                images
                    .iter()
                    .any(|i| i.as_ref().is_err_and(|e| e.contains(needle))),
                "no oracle error mentions {needle:?}"
            );
        }
        assert!(images.iter().filter(|i| i.is_ok()).count() >= 15);
        for (input, want) in corpus.iter().zip(&images) {
            for block in [1, 2, 3, 7, 64, BLOCK] {
                for threads in [1, 2, 7] {
                    let got = image(read_blocks(input.as_slice(), block, threads));
                    assert!(
                        &got == want,
                        "block {block}, threads {threads}, input {:?}:\n got {got:?}\nwant {want:?}",
                        String::from_utf8_lossy(&input[..input.len().min(200)])
                    );
                }
            }
        }
    }

    /// A read that fails part-way reports the bad row before it, if
    /// any, and otherwise the I/O error, as a line-at-a-time read does.
    #[test]
    fn io_errors_come_after_the_whole_lines_before_them() {
        use std::io::BufReader;
        struct Failing<'a>(&'a [u8]);
        impl Read for Failing<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Err(std::io::Error::other("disk gone"));
                }
                let n = out.len().min(self.0.len());
                out[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        for threads in [1, 2, 7] {
            let bad_row = read_blocks(
                BufReader::new(Failing(b"s,u,x0\n0,1,2\n9,1,2\n0,1")),
                3,
                threads,
            );
            assert_eq!(
                bad_row.unwrap_err().to_string(),
                "CSV error at line 3: s must be 0 or 1, got \"9\""
            );
            let clean = read_blocks(BufReader::new(Failing(b"s,u,x0\n0,1,2\n0,1")), 3, threads);
            assert_eq!(clean.unwrap_err().to_string(), "I/O error: disk gone");
        }
    }

    /// Every written field is the `Display` form of its value, whatever
    /// the cache of forms does: hit, miss, evict and re-fill, or skip a
    /// form too long for a slot.
    #[test]
    fn written_fields_are_the_display_forms_of_their_values() {
        // Three times as many distinct values as slots, twice over, so
        // that evicted forms come back.
        let many: Vec<f64> = (0..3 * FORM_SLOTS)
            .map(|i| i as f64 * 0.37 - 100.0)
            .collect();
        // Two values that share a slot, to alternate in one column.
        let a = 0.25f64;
        let b = (1..)
            .map(|i| a + f64::from(i) * 1e-3)
            .find(|b| form_slot(b.to_bits()) == form_slot(a.to_bits()))
            .unwrap();
        // Forms that differ only in sign, subnormals, forms of 23 bytes
        // (cached) and 24 bytes (not), and forms of hundreds of digits.
        let specials = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE / 3.0,
            f64::MAX,
            -f64::MAX,
            1e300,
            1e-300,
            -1.2345678901234567e-4,
            -1.2345678901234567e-5,
            1.5,
            -1.5,
        ];
        let lens: Vec<usize> = specials.iter().map(|v| format!("{v}").len()).collect();
        assert!(lens.contains(&23) && lens.contains(&24), "{lens:?}");
        let rows = 2 * many.len();
        let columns = vec![
            (0..rows).map(|i| many[i % many.len()]).collect(),
            (0..rows).map(|i| if i % 2 == 0 { a } else { b }).collect(),
            (0..rows).map(|i| specials[i % specials.len()]).collect(),
        ];
        let s = (0..rows).map(|i| (i % 2) as u8).collect();
        let u = (0..rows).map(|i| (i / 3 % 2) as u8).collect();
        let data = ColumnarDataset::from_columns(columns, s, u).unwrap();
        for block in [1, 2, 7, 64, 1 << 16, BLOCK] {
            for threads in [1, 2, 7] {
                let mut out = Vec::new();
                write_blocks(&mut out, &data, block, threads).unwrap();
                let text = String::from_utf8(out).unwrap();
                let mut lines = text.lines();
                assert_eq!(lines.next(), Some("s,u,x0,x1,x2"));
                let mut written = 0;
                for (i, line) in lines.enumerate() {
                    let mut want = format!("{},{}", data.s()[i], data.u()[i]);
                    for col in data.feature_columns() {
                        want.push_str(&format!(",{}", col[i]));
                    }
                    assert!(
                        line == want,
                        "block {block}, threads {threads}, row {i}:\n got {line}\nwant {want}"
                    );
                    written += 1;
                }
                assert_eq!(written, rows, "block {block}, threads {threads}");
            }
        }
    }

    /// Any finite `f64`, with `-0.0`, subnormals and `±f64::MAX` drawn
    /// often.
    fn finite_f64() -> impl Strategy<Value = f64> {
        (0u8..8, 0..=u64::MAX).prop_map(|(pick, bits)| match pick {
            0 => -0.0,
            1 => f64::MAX,
            2 => -f64::MAX,
            // Zero exponent field: a subnormal (or a signed zero).
            3 => f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF),
            // Clearing the top exponent bit rules out NaN and ±∞.
            _ => f64::from_bits(bits & !(1 << 62)),
        })
    }

    /// Archives of dimension 1–4 with 1–120 rows.
    fn arb_archive() -> impl Strategy<Value = ColumnarDataset> {
        (1usize..=4, 1usize..=120).prop_flat_map(|(dim, rows)| {
            (
                vec(finite_f64(), dim * rows),
                vec(0u8..2, rows),
                vec(0u8..2, rows),
            )
                .prop_map(move |(flat, s, u)| {
                    let columns = (0..dim)
                        .map(|k| flat[k * rows..(k + 1) * rows].to_vec())
                        .collect();
                    ColumnarDataset::from_columns(columns, s, u).unwrap()
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Written bytes do not depend on the block size or the thread
        /// count, and read back bit for bit at tiny blocks.
        #[test]
        fn archives_round_trip_bit_exactly(data in arb_archive()) {
            let mut want = Vec::new();
            write_blocks(&mut want, &data, BLOCK, 1).unwrap();
            for (block, threads) in [(1, 1), (7, 2), (64, 7), (BLOCK, 7)] {
                let mut got = Vec::new();
                write_blocks(&mut got, &data, block, threads).unwrap();
                prop_assert!(got == want, "block {block}, threads {threads}: bytes differ");
            }
            for (block, threads) in [(1, 2), (7, 7), (BLOCK, 2)] {
                let back = read_blocks(want.as_slice(), block, threads);
                prop_assert_eq!(image(back), image(Ok(data.clone())));
            }
        }
    }
}
