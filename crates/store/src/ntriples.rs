//! N-Triples-subset parser and writer.
//!
//! Supports the slice of the N-Triples grammar the datasets need:
//!
//! ```text
//! <subject-iri> <predicate-iri> <object-iri> .
//! <subject-iri> <predicate-iri> "object literal" .
//! ```
//!
//! with `#` comments, blank lines, and `\"`, `\\`, `\n`, `\t` escapes in
//! literals. Blank nodes and datatype/language tags are not needed by the
//! pipeline and are rejected with a precise error.

use crate::dictionary::Term;
use crate::error::StoreError;
use crate::store::TripleStore;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

/// Parses N-Triples from a reader into a fresh store.
pub fn read_ntriples<R: Read>(reader: R) -> Result<TripleStore, StoreError> {
    let mut store = TripleStore::new();
    load_ntriples(reader, &mut store)?;
    Ok(store)
}

/// Parses N-Triples from a reader into an existing store.
pub fn load_ntriples<R: Read>(reader: R, store: &mut TripleStore) -> Result<usize, StoreError> {
    let mut r = BufReader::new(reader);
    let mut buf = String::new();
    let mut line_no = 0usize;
    let mut added = 0usize;
    loop {
        buf.clear();
        if r.read_line(&mut buf)? == 0 {
            break;
        }
        line_no += 1;
        let line = buf.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (s, p, o) = parse_line(line).map_err(|message| StoreError::Parse {
            line: line_no,
            message,
        })?;
        if store.insert(&s, &p, &o) {
            added += 1;
        }
    }
    Ok(added)
}

/// Writes the store as N-Triples.
pub fn write_ntriples<W: Write>(store: &TripleStore, writer: W) -> Result<(), StoreError> {
    let mut w = BufWriter::new(writer);
    for t in store.iter() {
        let st = store.decode(t);
        write_term(&mut w, st.s)?;
        w.write_all(b" ")?;
        write_term(&mut w, st.p)?;
        w.write_all(b" ")?;
        write_term(&mut w, st.o)?;
        w.write_all(b" .\n")?;
    }
    w.flush()?;
    Ok(())
}

fn write_term<W: Write>(w: &mut W, term: &Term) -> Result<(), StoreError> {
    match term {
        Term::Iri(s) => write!(w, "<{s}>")?,
        Term::Literal(s) => {
            w.write_all(b"\"")?;
            for ch in s.chars() {
                match ch {
                    '"' => w.write_all(b"\\\"")?,
                    '\\' => w.write_all(b"\\\\")?,
                    '\n' => w.write_all(b"\\n")?,
                    '\t' => w.write_all(b"\\t")?,
                    '\r' => w.write_all(b"\\r")?,
                    c => write!(w, "{c}")?,
                }
            }
            w.write_all(b"\"")?;
        }
    }
    Ok(())
}

/// Parses one statement line (without trailing newline).
fn parse_line(line: &str) -> Result<(Term, Term, Term), String> {
    let mut rest = line;
    let s = parse_term(&mut rest)?;
    if s.is_literal() {
        return Err("subject must be an IRI".into());
    }
    let p = parse_term(&mut rest)?;
    if p.is_literal() {
        return Err("predicate must be an IRI".into());
    }
    let o = parse_term(&mut rest)?;
    let rest = rest.trim_start();
    match rest.strip_prefix('.') {
        Some(tail) if tail.trim().is_empty() => Ok((s, p, o)),
        _ => Err("expected terminating '.'".into()),
    }
}

/// Parses the next term from `*rest`, advancing it past the term.
fn parse_term(rest: &mut &str) -> Result<Term, String> {
    let trimmed = rest.trim_start();
    if let Some(tail) = trimmed.strip_prefix('<') {
        let end = tail.find('>').ok_or("unterminated IRI (missing '>')")?;
        let iri = &tail[..end];
        if iri.is_empty() {
            return Err("empty IRI".into());
        }
        *rest = &tail[end + 1..];
        return Ok(Term::iri(iri));
    }
    if let Some(tail) = trimmed.strip_prefix('"') {
        let mut value = String::new();
        let mut chars = tail.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, '"')) => value.push('"'),
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, 't')) => value.push('\t'),
                    Some((_, 'r')) => value.push('\r'),
                    Some((_, other)) => return Err(format!("unknown escape \\{other}")),
                    None => return Err("dangling escape at end of literal".into()),
                },
                '"' => {
                    let after = &tail[i + 1..];
                    if after.trim_start().starts_with('^') || after.trim_start().starts_with('@') {
                        return Err("datatype/language tags are not supported".into());
                    }
                    *rest = after;
                    return Ok(Term::literal(value));
                }
                c => value.push(c),
            }
        }
        return Err("unterminated literal (missing '\"')".into());
    }
    if trimmed.starts_with("_:") {
        return Err("blank nodes are not supported".into());
    }
    Err(format!(
        "expected '<iri>' or '\"literal\"', found: {:?}",
        trimmed.chars().take(20).collect::<String>()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_iri_triples() {
        let input = b"<Merkel> <studied> <Physics> .\n<Putin> <studied> <Law> .\n";
        let s = read_ntriples(&input[..]).unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.contains(
            &Term::iri("Merkel"),
            &Term::iri("studied"),
            &Term::iri("Physics")
        ));
    }

    #[test]
    fn parses_literals_with_escapes() {
        let input = br#"<Merkel> <quote> "wir \"schaffen\" das\n" ."#;
        let s = read_ntriples(&input[..]).unwrap();
        let obj: Vec<_> = s.iter().map(|t| s.decode(t).o.clone()).collect();
        assert_eq!(obj, vec![Term::literal("wir \"schaffen\" das\n")]);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let input = b"# comment\n\n<a> <b> <c> .\n";
        assert_eq!(read_ntriples(&input[..]).unwrap().len(), 1);
    }

    #[test]
    fn round_trip() {
        let mut store = TripleStore::new();
        store.insert_iris("a", "p", "b");
        store.insert(
            &Term::iri("a"),
            &Term::iri("says"),
            &Term::literal("tab\there \"quoted\" \\slash"),
        );
        let mut buf = Vec::new();
        write_ntriples(&store, &mut buf).unwrap();
        let back = read_ntriples(&buf[..]).unwrap();
        assert_eq!(back.len(), store.len());
        assert!(back.contains(
            &Term::iri("a"),
            &Term::iri("says"),
            &Term::literal("tab\there \"quoted\" \\slash"),
        ));
    }

    #[test]
    fn error_positions_are_reported() {
        let input = b"<a> <b> <c> .\n<broken\n";
        match read_ntriples(&input[..]) {
            Err(StoreError::Parse { line, message }) => {
                assert_eq!(line, 2);
                assert!(message.contains("unterminated IRI"));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn rejects_unsupported_constructs() {
        for (input, needle) in [
            (&b"_:b0 <p> <o> .\n"[..], "blank nodes"),
            (&b"<s> <p> \"v\"@en .\n"[..], "tags"),
            (&b"<s> <p> \"v\"^^<int> .\n"[..], "tags"),
            (&b"\"lit\" <p> <o> .\n"[..], "subject"),
            (&b"<s> \"lit\" <o> .\n"[..], "predicate"),
            (&b"<s> <p> <o>\n"[..], "terminating"),
            (&b"<s> <p> <o> . trailing\n"[..], "terminating"),
            (&b"<> <p> <o> .\n"[..], "empty IRI"),
        ] {
            match read_ntriples(input) {
                Err(StoreError::Parse { message, .. }) => {
                    assert!(
                        message.contains(needle),
                        "expected {needle:?} in {message:?}"
                    );
                }
                other => panic!("expected parse error for {input:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_lines_counted_once() {
        let input = b"<a> <b> <c> .\n<a> <b> <c> .\n";
        let mut store = TripleStore::new();
        let added = load_ntriples(&input[..], &mut store).unwrap();
        assert_eq!(added, 1);
        assert_eq!(store.len(), 1);
    }
}
