//! Graph I/O: whitespace edge lists and Matrix Market files.
//!
//! The paper's dataset comes from the SuiteSparse (University of Florida)
//! collection, distributed as Matrix Market. These readers apply the same
//! preprocessing the paper describes: symmetrize, drop self-loops, dedup.
//!
//! The edge-list reader takes one `u v` pair of 0-based decimal ids per
//! line. An id may carry a leading `+`; tokens after the second id are
//! ignored. Blank lines and `#`/`%` comments are skipped, also when
//! indented. Lines end in `\n` or `\r\n`, and the last one may lack its
//! newline. Ids are separated by whitespace in the sense of
//! `char::is_whitespace`: on an ASCII line that is space, tab, `\x0B`,
//! `\x0C` and `\r`, and a line with other bytes may also use NBSP, U+3000
//! and the rest. Such a line must be valid UTF-8, even as a comment.
//! Errors name the 1-based physical line, counting blank and comment
//! lines. Each line is read into one reused byte buffer and tokenized
//! there, with no allocation per line.

use crate::builder::GraphBuilder;
use crate::csr::Graph;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::path::Path;

/// Largest usable vertex id: `id + 1` vertices must stay below the
/// `u32::MAX` sentinel (`sb_graph::csr::INVALID`) that every solver uses
/// for "no vertex".
pub const MAX_VERTEX_ID: u64 = u32::MAX as u64 - 2;

/// Errors from the readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed `.sbg` binary file (dispatched through [`read_path`]).
    Sbg(crate::sbg::SbgError),
    /// Malformed content with a line number and message.
    Parse { line: usize, msg: String },
    /// A vertex id at or beyond the declared vertex count (the edge-list
    /// `n_hint`, or a Matrix Market dimension). Rejected rather than
    /// silently growing the graph: a caller that declared a size wants
    /// ids outside it treated as corruption.
    VertexOutOfRange {
        /// 1-based input line.
        line: usize,
        /// The offending (0-based) vertex id.
        id: u64,
        /// Ids must be `< limit`.
        limit: u64,
    },
    /// A vertex id too large to represent: ids above [`MAX_VERTEX_ID`]
    /// would collide with the `u32::MAX` INVALID sentinel or overflow the
    /// `u32` vertex-count domain.
    IdOverflow {
        /// 1-based input line.
        line: usize,
        /// The offending (0-based) vertex id.
        id: u64,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Sbg(e) => write!(f, "{e}"),
            IoError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            IoError::VertexOutOfRange { line, id, limit } => write!(
                f,
                "vertex id {id} at line {line} is outside the declared vertex count {limit}"
            ),
            IoError::IdOverflow { line, id } => write!(
                f,
                "vertex id {id} at line {line} exceeds the maximum representable id {MAX_VERTEX_ID}"
            ),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Edges per parse-buffer flush in the streaming edge-list reader. At 8
/// bytes per parsed edge this bounds the reader's own staging memory at
/// 8 MiB regardless of input size; the builder it feeds is the only O(m)
/// consumer.
const CHUNK_EDGES: usize = 1 << 20;

/// Read-buffer size of the edge-list reader.
const READ_BUF_BYTES: usize = 1 << 16;

/// Read a whitespace-separated edge list (`u v` per line, 0-based ids,
/// `#`/`%` comments).
///
/// Without a hint the vertex count is `max id + 1`. With `n_hint` the
/// count is exactly the hint, and any id `≥ n_hint` is rejected with
/// [`IoError::VertexOutOfRange`] — the graph never silently outgrows a
/// declared size. Ids above [`MAX_VERTEX_ID`] are rejected with
/// [`IoError::IdOverflow`] in either mode.
///
/// Parsing streams through a bounded chunk buffer (2^20 edges)
/// flushed into the [`GraphBuilder`] as it fills, so ingesting a 100M+
/// edge list holds one copy of the edges (the builder's), not two. The
/// `sb_graph_io_parse_buffer_peak_bytes` gauge records the staging
/// buffer's peak occupancy so tests can pin the bound.
pub fn read_edge_list<R: Read>(reader: R, n_hint: Option<usize>) -> Result<Graph, IoError> {
    read_edge_list_chunked(reader, n_hint, CHUNK_EDGES).map(|(g, _)| g)
}

/// Streaming core of [`read_edge_list`]; returns the graph together with
/// the staging buffer's peak byte occupancy (also exported through the
/// `sb_graph_io_parse_buffer_peak_bytes` gauge) so tests can assert the
/// memory bound without racing on the process-global registry.
pub(crate) fn read_edge_list_chunked<R: Read>(
    reader: R,
    n_hint: Option<usize>,
    chunk_edges: usize,
) -> Result<(Graph, usize), IoError> {
    assert!(chunk_edges > 0);
    let mut br = BufReader::with_capacity(READ_BUF_BYTES, reader);
    let mut b = GraphBuilder::new(n_hint.unwrap_or(0));
    let mut chunk: Vec<(u32, u32)> = Vec::with_capacity(chunk_edges);
    let mut max_id = 0u32;
    let mut any = false;
    let mut peak_bytes = 0usize;
    let mut flush = |b: &mut GraphBuilder, chunk: &mut Vec<(u32, u32)>, max_id: u32| {
        // Ingestion counts no rounds; a stopped job stops at a flush.
        sb_par::stop::check();
        peak_bytes = peak_bytes.max(chunk.len() * std::mem::size_of::<(u32, u32)>());
        // Ids were range-checked against the hint on parse; without a hint
        // the vertex set grows to cover what this chunk saw.
        b.ensure_vertices(max_id as usize + 1);
        b.reserve(chunk.len());
        for &(u, v) in chunk.iter() {
            b.push(u, v);
        }
        chunk.clear();
    };
    let mut line = Vec::new();
    let mut lineno = 0usize;
    while br.read_until(b'\n', &mut line)? > 0 {
        lineno += 1;
        if let Some((u, v)) = parse_edge_line(&line, lineno, n_hint)? {
            max_id = max_id.max(u).max(v);
            any = true;
            chunk.push((u, v));
            if chunk.len() == chunk_edges {
                flush(&mut b, &mut chunk, max_id);
            }
        }
        line.clear();
    }
    if !chunk.is_empty() || (any && b.num_vertices() <= max_id as usize) {
        flush(&mut b, &mut chunk, max_id);
    }
    sb_metrics::global()
        .gauge(
            "sb_graph_io_parse_buffer_peak_bytes",
            sb_metrics::Class::Runtime,
        )
        .set(peak_bytes as u64);
    Ok((b.build(), peak_bytes))
}

/// Whitespace in the sense of `char::is_whitespace`, for ASCII bytes. Unlike
/// `u8::is_ascii_whitespace` this includes vertical tab (`\x0B`).
fn is_space(c: u8) -> bool {
    matches!(c, b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r' | b' ')
}

/// Parse one physical edge-list line: `None` for a blank or comment line,
/// else the edge `(u, v)`. Tokens after the second id are ignored, and a
/// trailing `\n` or `\r\n` is whitespace like any other.
///
/// An all-ASCII line is split on bytes. A line with any other byte must be
/// valid UTF-8 (comment or not), and is then split on Unicode whitespace,
/// so NBSP and U+3000 separate ids too.
fn parse_edge_line(
    line: &[u8],
    lineno: usize,
    n_hint: Option<usize>,
) -> Result<Option<(u32, u32)>, IoError> {
    if line.is_ascii() {
        let tokens = line.split(|&c| is_space(c)).filter(|t| !t.is_empty());
        parse_edge_tokens(tokens, lineno, n_hint)
    } else {
        let text = std::str::from_utf8(line).map_err(|_| {
            std::io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8")
        })?;
        parse_edge_tokens(text.split_whitespace().map(str::as_bytes), lineno, n_hint)
    }
}

/// The shared tail of both tokenizers: comment detection, then `u`'s parse
/// and range checks before `v`'s, so the first error on a line wins.
fn parse_edge_tokens<'a>(
    mut tokens: impl Iterator<Item = &'a [u8]>,
    line: usize,
    n_hint: Option<usize>,
) -> Result<Option<(u32, u32)>, IoError> {
    let first = match tokens.next() {
        None | Some([b'#' | b'%', ..]) => return Ok(None),
        Some(t) => t,
    };
    let u = parse_vertex_id(Some(first), line, n_hint)?;
    let v = parse_vertex_id(tokens.next(), line, n_hint)?;
    Ok(Some((u, v)))
}

/// Parse and range-check one vertex id token. Every token comes from an
/// ASCII line or an already-validated `str`, so the lossy conversion only
/// borrows; `str::parse::<u64>`'s error text becomes the message.
fn parse_vertex_id(tok: Option<&[u8]>, line: usize, n_hint: Option<usize>) -> Result<u32, IoError> {
    let tok = tok.ok_or_else(|| IoError::Parse {
        line,
        msg: "expected two vertex ids".into(),
    })?;
    let id = String::from_utf8_lossy(tok)
        .parse::<u64>()
        .map_err(|e| IoError::Parse {
            line,
            msg: e.to_string(),
        })?;
    if id > MAX_VERTEX_ID {
        return Err(IoError::IdOverflow { line, id });
    }
    if let Some(limit) = n_hint {
        if id >= limit as u64 {
            return Err(IoError::VertexOutOfRange {
                line,
                id,
                limit: limit as u64,
            });
        }
    }
    Ok(id as u32)
}

/// Write a graph as a 0-based edge list, one `u v` per line.
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# vertices {} edges {}", g.num_vertices(), g.num_edges())?;
    for &[u, v] in g.edge_list() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Read a Matrix Market coordinate file as an undirected graph.
///
/// Accepts `pattern`/`real`/`integer` fields and `general`/`symmetric`
/// symmetry; numeric values are ignored (the study treats all graphs as
/// unweighted). Entries are 1-based per the format.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<Graph, IoError> {
    let br = BufReader::new(reader);
    let mut lines = br.lines().enumerate();

    // Header: %%MatrixMarket matrix coordinate <field> <symmetry>
    let (hline, header) = loop {
        match lines.next() {
            Some((i, l)) => {
                let l = l?;
                if !l.trim().is_empty() {
                    break (i, l);
                }
            }
            None => {
                // Absolute-line contract: the header was expected on the
                // first line of the file.
                return Err(IoError::Parse {
                    line: 1,
                    msg: "empty file".into(),
                });
            }
        }
    };
    let head: Vec<String> = header
        .split_whitespace()
        .map(|s| s.to_lowercase())
        .collect();
    if head.len() < 5 || head[0] != "%%matrixmarket" || head[2] != "coordinate" {
        return Err(IoError::Parse {
            line: hline + 1,
            msg: "expected '%%MatrixMarket matrix coordinate ...'".into(),
        });
    }

    // Size line: rows cols nnz (skipping comments). Errors carry absolute
    // file lines: a missing size line points one past the last line that
    // exists (header and comments counted), not at the header.
    let mut last_line = hline;
    let (rows, _cols, nnz, size_line) = loop {
        let (i, l) = lines.next().ok_or(IoError::Parse {
            line: last_line + 2,
            msg: "missing size line".into(),
        })?;
        last_line = i;
        let l = l?;
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = t.split_whitespace().collect();
        if parts.len() != 3 {
            return Err(IoError::Parse {
                line: i + 1,
                msg: "size line must have three fields".into(),
            });
        }
        let p = |s: &str| -> Result<usize, IoError> {
            s.parse().map_err(|_| IoError::Parse {
                line: i + 1,
                msg: format!("bad size value '{s}'"),
            })
        };
        break (p(parts[0])?, p(parts[1])?, p(parts[2])?, i);
    };
    // Dimensions bound the 0-based ids below, so they must themselves fit
    // the id domain (dimension d admits ids up to d - 1).
    let max_dim = rows.max(_cols);
    if max_dim as u64 > MAX_VERTEX_ID + 1 {
        return Err(IoError::IdOverflow {
            line: size_line + 1,
            id: max_dim as u64 - 1,
        });
    }

    let mut b = GraphBuilder::new(max_dim);
    // `nnz` is untrusted: reserve at most one chunk up front and let the
    // list grow as entries actually arrive.
    b.reserve(nnz.min(CHUNK_EDGES));
    let mut read = 0usize;
    for (i, l) in lines {
        let l = l?;
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let p = |s: Option<&str>| -> Result<u64, IoError> {
            s.ok_or(IoError::Parse {
                line: i + 1,
                msg: "entry needs row and column".into(),
            })?
            .parse()
            .map_err(|_| IoError::Parse {
                line: i + 1,
                msg: "bad index".into(),
            })
        };
        let r = p(it.next())?;
        let c = p(it.next())?;
        if r == 0 || c == 0 {
            return Err(IoError::Parse {
                line: i + 1,
                msg: "matrix market indices are 1-based (found a 0 index)".into(),
            });
        }
        // Entries beyond the declared dimensions are corruption, not a
        // request to grow the matrix.
        if r > rows as u64 {
            return Err(IoError::VertexOutOfRange {
                line: i + 1,
                id: r - 1,
                limit: rows as u64,
            });
        }
        if c > _cols as u64 {
            return Err(IoError::VertexOutOfRange {
                line: i + 1,
                id: c - 1,
                limit: _cols as u64,
            });
        }
        // Value field (if any) ignored.
        b.push((r - 1) as u32, (c - 1) as u32);
        read += 1;
    }
    if read != nnz {
        return Err(IoError::Parse {
            line: size_line + 1,
            msg: format!("size line promised {nnz} entries, found {read}"),
        });
    }
    Ok(b.build())
}

/// Read a graph from a path, dispatching on extension (`.mtx` → Matrix
/// Market, `.sbg` → zero-copy mapped binary CSR, anything else → edge
/// list).
pub fn read_path(path: &Path) -> Result<Graph, IoError> {
    if path.extension().is_some_and(|e| e == "sbg") {
        return crate::sbg::map_sbg(path).map_err(|e| match e {
            crate::sbg::SbgError::Io(io) => IoError::Io(io),
            other => IoError::Sbg(other),
        });
    }
    let f = std::fs::File::open(path)?;
    if path.extension().is_some_and(|e| e == "mtx") {
        read_matrix_market(f)
    } else {
        read_edge_list(f, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// The edge-list reader as it was before the byte tokenizer, kept
    /// verbatim (`BufRead::lines`, Unicode `trim`/`split_whitespace`,
    /// `str::parse`) as the differential reference for the rewrite.
    fn read_edge_list_by_lines<R: Read>(
        reader: R,
        n_hint: Option<usize>,
        chunk_edges: usize,
    ) -> Result<(Graph, usize), IoError> {
        assert!(chunk_edges > 0);
        let br = BufReader::new(reader);
        let mut b = GraphBuilder::new(n_hint.unwrap_or(0));
        let mut chunk: Vec<(u32, u32)> = Vec::with_capacity(chunk_edges);
        let mut max_id = 0u32;
        let mut any = false;
        let mut peak_bytes = 0usize;
        let mut flush = |b: &mut GraphBuilder, chunk: &mut Vec<(u32, u32)>, max_id: u32| {
            peak_bytes = peak_bytes.max(chunk.len() * std::mem::size_of::<(u32, u32)>());
            // Ids were range-checked against the hint on parse; without a hint
            // the vertex set grows to cover what this chunk saw.
            b.ensure_vertices(max_id as usize + 1);
            b.reserve(chunk.len());
            for &(u, v) in chunk.iter() {
                b.push(u, v);
            }
            chunk.clear();
        };
        for (lineno, line) in br.lines().enumerate() {
            let line = line?;
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
                continue;
            }
            let mut it = t.split_whitespace();
            let parse = |s: Option<&str>| -> Result<u32, IoError> {
                let id = s
                    .ok_or_else(|| IoError::Parse {
                        line: lineno + 1,
                        msg: "expected two vertex ids".into(),
                    })?
                    .parse::<u64>()
                    .map_err(|e| IoError::Parse {
                        line: lineno + 1,
                        msg: e.to_string(),
                    })?;
                if id > MAX_VERTEX_ID {
                    return Err(IoError::IdOverflow {
                        line: lineno + 1,
                        id,
                    });
                }
                if let Some(limit) = n_hint {
                    if id >= limit as u64 {
                        return Err(IoError::VertexOutOfRange {
                            line: lineno + 1,
                            id,
                            limit: limit as u64,
                        });
                    }
                }
                Ok(id as u32)
            };
            let u = parse(it.next())?;
            let v = parse(it.next())?;
            max_id = max_id.max(u).max(v);
            any = true;
            chunk.push((u, v));
            if chunk.len() == chunk_edges {
                flush(&mut b, &mut chunk, max_id);
            }
        }
        if !chunk.is_empty() || (any && b.num_vertices() <= max_id as usize) {
            flush(&mut b, &mut chunk, max_id);
        }
        sb_metrics::global()
            .gauge(
                "sb_graph_io_parse_buffer_peak_bytes",
                sb_metrics::Class::Runtime,
            )
            .set(peak_bytes as u64);
        Ok((b.build(), peak_bytes))
    }

    /// A reader that hands out at most `step` bytes per `read`, so every
    /// `BufReader` refill ends `step` bytes after the previous one: at step
    /// 1 a refill boundary falls at every offset of every line.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// What a reader result must agree on: the graph, or the error's
    /// variant, line and fields (message included), with I/O errors
    /// compared by kind and text.
    fn outcome(r: Result<(Graph, usize), IoError>) -> Result<Graph, String> {
        r.map(|(g, _)| g).map_err(|e| match e {
            IoError::Io(e) => format!("Io({:?}, {e})", e.kind()),
            other => format!("{other:?}"),
        })
    }

    fn assert_matches_reference(input: &[u8]) {
        for n_hint in [None, Some(3), Some(10)] {
            let want = outcome(read_edge_list_by_lines(
                Cursor::new(input),
                n_hint,
                CHUNK_EDGES,
            ));
            for step in [1, 2, 3, 7, usize::MAX] {
                let reader = Trickle { data: input, step };
                let got = outcome(read_edge_list_chunked(reader, n_hint, CHUNK_EDGES));
                assert_eq!(
                    got,
                    want,
                    "input {:?}, n_hint {n_hint:?}, read step {step}",
                    String::from_utf8_lossy(input)
                );
            }
        }
    }

    #[test]
    fn byte_reader_matches_lines_reference() {
        let long_gap = " ".repeat(READ_BUF_BYTES + 100);
        let mut corpus: Vec<Vec<u8>> = [
            // Line endings and separators.
            "0 1\r\n1 2\r\n",
            "0\t1\n1 \t 2\n",
            "0\x0B1\n1\x0B2\n",
            "0\x0C1\n",
            "0\u{A0}1\n1\u{A0}\u{A0}2\n",
            "0\u{3000}1\n",
            "0\u{85}1\n",
            "0\x1F1\n",
            "0 1\r",
            "0 1\r\r\n",
            // Ids.
            "+2 1\n",
            "+ 1\n",
            "-1 2\n",
            "0x1 2\n",
            "\u{FF11} 2\n",
            "0000000000000000002 1\n",
            "00000000000000000002 1\n",
            "1234567890123456789 1\n",
            "12345678901234567890 1\n",
            "18446744073709551615 1\n",
            "18446744073709551616 1\n",
            "99999999999999999999999 1\n",
            "4294967293 x\n",
            "1 4294967294\n",
            // Line shapes.
            "0 1 7\n1 2 x y\n",
            "  # indented comment\n\t% indented\n0 1\n",
            "#\n%\n#0 1\n0 1#c\n",
            "   \n\t \r\n\n0 1\n",
            "0 1\n5\n",
            "0 1\n5 \n",
            "99 x\n",
            "x 99\n",
            "1 2\n2 99\n0 x\n",
            "1 2\x00\n",
            "",
            "\n\n",
            // Framing.
            "0 1",
            "0 1\n1 2",
            "2 1\n0 1\n1 0\n2 2\n",
        ]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect();
        // Encoding: invalid UTF-8 in a data line, in a comment line, and
        // after an earlier parse error; valid UTF-8 in a comment.
        corpus.push(b"0 1\n\xff\xfe 2\n".to_vec());
        corpus.push(b"# caf\xe9\n0 1\n".to_vec());
        corpus.push(b"0 1 \xc3\n".to_vec());
        corpus.push(b"0 x\n\xff\n".to_vec());
        corpus.push("# café\n0 1\n".as_bytes().to_vec());
        // Lines longer than the read buffer: a data line, a comment, and a
        // long tail of ignored tokens.
        corpus.push(format!("{long_gap}3 4\n0 1\n").into_bytes());
        corpus.push(format!("#{long_gap}\n0 1\n").into_bytes());
        corpus.push(format!("0 1{long_gap}x\n2 1").into_bytes());
        for input in &corpus {
            assert_matches_reference(input);
        }
    }

    #[test]
    fn byte_whitespace_is_char_whitespace() {
        for c in 0u8..128 {
            assert_eq!(is_space(c), (c as char).is_whitespace(), "byte {c:#04x}");
        }
    }

    #[test]
    fn matrix_market_oversized_entry_count_is_a_parse_error() {
        // A size line that promises more entries than memory can hold must
        // not size an allocation: it is a count mismatch like any other.
        for nnz in [1_000_000_000_000_000u64, 2_305_843_009_213_693_951] {
            let text =
                format!("%%MatrixMarket matrix coordinate pattern general\n3 3 {nnz}\n1 2\n");
            let err = read_matrix_market(Cursor::new(text)).unwrap_err();
            let IoError::Parse { line, msg } = &err else {
                panic!("{err}")
            };
            assert_eq!(*line, 2, "{err}");
            assert_eq!(msg, &format!("size line promised {nnz} entries, found 1"));
        }
    }

    #[test]
    fn edge_list_round_trip() {
        let g = crate::builder::from_edge_list(5, &[(0, 1), (1, 2), (3, 4)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(Cursor::new(buf), Some(5)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_skips_comments_and_blank_lines() {
        let text = "# comment\n\n0 1\n% other comment\n1 2\n";
        let g = read_edge_list(Cursor::new(text), None).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let err = read_edge_list(Cursor::new("0 x\n"), None).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }));
        let err = read_edge_list(Cursor::new("5\n"), None).unwrap_err();
        assert!(matches!(err, IoError::Parse { .. }));
    }

    #[test]
    fn matrix_market_symmetric_pattern() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    % a comment\n\
                    4 4 3\n1 2\n2 3\n4 4\n";
        let g = read_matrix_market(Cursor::new(text)).unwrap();
        assert_eq!(g.num_vertices(), 4);
        // Self-loop (4,4) dropped.
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn matrix_market_general_with_values_symmetrizes() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    3 3 4\n1 2 1.5\n2 1 2.5\n2 3 0.1\n3 3 9.0\n";
        let g = read_matrix_market(Cursor::new(text)).unwrap();
        // (1,2) and (2,1) merge, (3,3) self-loop drops.
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn matrix_market_entry_count_mismatch() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 3\n1 2\n";
        assert!(read_matrix_market(Cursor::new(text)).is_err());
    }

    #[test]
    fn matrix_market_bad_header() {
        let text = "%%NotMatrixMarket nope\n1 1 0\n";
        assert!(read_matrix_market(Cursor::new(text)).is_err());
    }

    #[test]
    fn matrix_market_header_case_and_whitespace_tolerant() {
        let text =
            "%%MATRIXMARKET MATRIX COORDINATE PATTERN SYMMETRIC\n  3   3   2 \n 1  2 \n2\t3\n";
        let g = read_matrix_market(Cursor::new(text)).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn matrix_market_crlf_line_endings() {
        let text = "%%MatrixMarket matrix coordinate pattern general\r\n2 2 1\r\n1 2\r\n";
        let g = read_matrix_market(Cursor::new(text)).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn matrix_market_rectangular_uses_max_dimension() {
        // Bipartite-style rectangular matrices appear in the UFL set; the
        // reader sizes the vertex set by max(rows, cols).
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 5 1\n1 5\n";
        let g = read_matrix_market(Cursor::new(text)).unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert!(g.has_edge(0, 4));
    }

    #[test]
    fn matrix_market_rejects_zero_index() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n";
        let err = read_matrix_market(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 3, .. }), "{err}");
    }

    #[test]
    fn edge_list_rejects_ids_beyond_hint() {
        // A declared size is a contract, not a lower bound: ids past it
        // are corruption, never silent growth.
        let err = read_edge_list(Cursor::new("0 1\n2 5\n"), Some(3)).unwrap_err();
        assert!(
            matches!(
                err,
                IoError::VertexOutOfRange {
                    line: 2,
                    id: 5,
                    limit: 3
                }
            ),
            "{err}"
        );
        // Equal to the hint is already out of range (ids are 0-based).
        let err = read_edge_list(Cursor::new("0 3\n"), Some(3)).unwrap_err();
        assert!(
            matches!(err, IoError::VertexOutOfRange { id: 3, .. }),
            "{err}"
        );
        // The same input reads fine without the hint.
        let g = read_edge_list(Cursor::new("0 1\n2 5\n"), None).unwrap();
        assert_eq!(g.num_vertices(), 6);
    }

    #[test]
    fn edge_list_rejects_ids_near_u32_boundary() {
        // u32::MAX is the INVALID sentinel and u32::MAX - 1 would need a
        // vertex count of u32::MAX; both are typed errors instead of a
        // builder panic (or a sentinel-colliding graph).
        for id in [u32::MAX as u64, u32::MAX as u64 - 1] {
            let err = read_edge_list(Cursor::new(format!("0 {id}\n")), None).unwrap_err();
            assert!(
                matches!(err, IoError::IdOverflow { line: 1, id: got } if got == id),
                "{err}"
            );
        }
        // The largest representable id is accepted by the parser (the
        // range check fires before any allocation).
        let err = read_edge_list(Cursor::new(format!("0 {MAX_VERTEX_ID}\n")), Some(4)).unwrap_err();
        assert!(matches!(err, IoError::VertexOutOfRange { .. }), "{err}");
        // Ids past u64 remain plain parse errors.
        let err = read_edge_list(Cursor::new("0 99999999999999999999999\n"), None).unwrap_err();
        assert!(matches!(err, IoError::Parse { .. }), "{err}");
    }

    #[test]
    fn matrix_market_rejects_entries_beyond_declared_dims() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 3\n";
        let err = read_matrix_market(Cursor::new(text)).unwrap_err();
        assert!(
            matches!(
                err,
                IoError::VertexOutOfRange {
                    line: 3,
                    id: 2,
                    limit: 2
                }
            ),
            "{err}"
        );
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n";
        assert!(matches!(
            read_matrix_market(Cursor::new(text)).unwrap_err(),
            IoError::VertexOutOfRange { line: 3, id: 2, .. }
        ));
    }

    #[test]
    fn matrix_market_rejects_overflowing_dimensions() {
        let text = format!(
            "%%MatrixMarket matrix coordinate pattern general\n{} 2 0\n",
            u32::MAX
        );
        let err = read_matrix_market(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, IoError::IdOverflow { line: 2, .. }), "{err}");
    }

    #[test]
    fn matrix_market_line_numbers_are_absolute_file_lines() {
        // Comments and the header count: the bad entry below sits on
        // physical line 7, and that is the line the error must name, not
        // its rank within the data section (which would be 2).
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    % comment line 2\n\
                    % comment line 3\n\
                    3 3 3\n\
                    1 2\n\
                    % comment line 6\n\
                    0 3\n\
                    2 3\n";
        let err = read_matrix_market(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 7, .. }), "{err}");

        // Same file shape, out-of-range entry instead: still line 7.
        let text = text.replace("0 3", "9 3");
        let err = read_matrix_market(Cursor::new(text)).unwrap_err();
        assert!(
            matches!(
                err,
                IoError::VertexOutOfRange {
                    line: 7,
                    id: 8,
                    limit: 3
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn matrix_market_size_line_errors_are_absolute() {
        // The malformed size line is physical line 4 (header + 2 comments).
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    % c\n% c\nnot a size line\n";
        let err = read_matrix_market(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 4, .. }), "{err}");

        // A file that ends before any size line points one past its last
        // physical line (line 4 here), not at the header.
        let text = "%%MatrixMarket matrix coordinate pattern general\n% c\n% c\n";
        let err = read_matrix_market(Cursor::new(text)).unwrap_err();
        let IoError::Parse { line, msg } = &err else {
            panic!("{err}")
        };
        assert_eq!(*line, 4, "{err}");
        assert!(msg.contains("missing size line"));
    }

    #[test]
    fn matrix_market_empty_file_reports_line_one() {
        let err = read_matrix_market(Cursor::new("")).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }), "{err}");
        let err = read_matrix_market(Cursor::new("\n\n  \n")).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn matrix_market_count_mismatch_points_at_size_line() {
        // Size line is physical line 3 after one comment; the mismatch is
        // reported against the promise made there.
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    % c\n2 2 3\n1 2\n";
        let err = read_matrix_market(Cursor::new(text)).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 3, .. }), "{err}");
    }

    #[test]
    fn edge_list_streaming_chunks_match_buffered_read() {
        // 1000 edges through a 7-edge chunk buffer must build the same
        // graph as one big buffer, with peak staging bounded by the chunk.
        let mut text = String::new();
        let n = 200u32;
        for i in 0..1000u32 {
            text.push_str(&format!("{} {}\n", i % n, (i * 7 + 3) % n));
        }
        let (small, small_peak) = read_edge_list_chunked(Cursor::new(&text), None, 7).unwrap();
        let (big, big_peak) = read_edge_list_chunked(Cursor::new(&text), None, 1 << 20).unwrap();
        assert_eq!(small, big);
        assert!(
            small_peak <= 7 * 8,
            "staging peak {small_peak} exceeds the 7-edge chunk bound"
        );
        // The wide-chunk path stages everything; the bounded path must not.
        assert_eq!(big_peak, 1000 * 8);
        assert!(small_peak < big_peak);
    }

    #[test]
    fn edge_list_streaming_grows_vertex_set_across_chunks() {
        // Max id appears in the last chunk; earlier flushes must not have
        // frozen the vertex count.
        let text = "0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n90 91\n";
        let (g, _) = read_edge_list_chunked(Cursor::new(text), None, 2).unwrap();
        assert_eq!(g.num_vertices(), 92);
        assert_eq!(g.num_edges(), 7);
        g.validate().unwrap();
    }

    #[test]
    fn edge_list_fuzz_case_duplicate_selfloop_heavy_with_hint() {
        // Minimized from a fuzzed raw edge list: duplicates, self-loops,
        // comments interleaved, and an id exactly at the hint boundary on
        // the last line. The reader must dedup/drop-loops for the valid
        // prefix and still flag the trailing violation with its line.
        let text = "3 3\n0 1\n1 0\n# dup\n0 1\n2 2\n\n1 4\n";
        let err = read_edge_list(Cursor::new(text), Some(4)).unwrap_err();
        assert!(
            matches!(
                err,
                IoError::VertexOutOfRange {
                    line: 8,
                    id: 4,
                    limit: 4
                }
            ),
            "{err}"
        );
        // One more vertex of headroom and the same input is clean.
        let ok = read_edge_list(Cursor::new(text), Some(5)).unwrap();
        assert_eq!(ok.num_vertices(), 5);
        assert_eq!(
            ok.num_edges(),
            2,
            "(0,1) survives dedup, (1,4) stays, loops drop"
        );
    }
}
