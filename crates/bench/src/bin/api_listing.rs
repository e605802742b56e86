//! Public-API drift gate: extract every `pub` item signature in the
//! workspace into a sorted listing (`API.md`) so review sees exactly what
//! the public surface gained or lost.
//!
//! ```bash
//! cargo run -p bench --bin api_listing -- --write          # regenerate API.md
//! cargo run -p bench --bin api_listing -- --check          # diff against API.md, exit 1 on drift
//! cargo run -p bench --bin api_listing -- --unreferenced   # public names nobody calls, exit 1 outside KEPT
//! ```
//!
//! `--check` and `--unreferenced` run in ci.sh: an API change without the
//! regenerated listing fails the build, the same way a stale lockfile
//! would, and so does a public name that no other file uses.
//!
//! `--unreferenced` is a name-level scan (no type resolution): an item is
//! reported when its identifier occurs in no file of `crates tests
//! examples benchmark/src src` but the one defining it — comments, string
//! literals, `use` declarations and other definitions of the same name
//! not counted. The class says what is left in the defining file: `dead`
//! (nothing), `test-only` (uses below its first `#[cfg(test)]`),
//! `file-local` (uses above it: the function or constant wants to be
//! private; a type there is what its file's public signatures return).

use std::collections::HashSet;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Keyword heads that start a public item we want in the listing.
const HEADS: [&str; 10] = [
    "pub fn ",
    "pub unsafe fn ",
    "pub struct ",
    "pub enum ",
    "pub trait ",
    "pub type ",
    "pub use ",
    "pub mod ",
    "pub const ",
    "pub static ",
];

/// Keywords whose next identifier is a definition, not a use.
const DEF_KEYWORDS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
];

/// Paper surface that only its own file exercises (the unit tests beside
/// it, or one sibling method): name → where the paper asks for it. An
/// entry that is no longer reported is stale and fails the gate too.
const KEPT: [(&str, &str); 15] = [
    ("waitall", "Fig. 1, workers' direct MPI: Waitall"),
    ("waitany", "Fig. 1, workers' direct MPI: Waitany"),
    ("norm1", "Table I, Epetra/Tpetra vectors: Norm1"),
    ("norm_inf", "Table I, Epetra/Tpetra vectors: NormInf"),
    ("read_vector", "Table I, EpetraExt: vector input"),
    ("write_vector", "Table I, EpetraExt: vector output"),
    ("write_matrix_market", "Table I, EpetraExt: MatrixMarket"),
    ("rebalance_block_map", "Table I, Isorropia"),
    ("block_map", "Table I, Galeri: common maps"),
    ("cyclic_map", "Table I, Galeri: common maps"),
    ("map_with", "Table I, Galeri: common maps"),
    ("skewed_block_map", "Table I, Galeri: Isorropia's input"),
    ("begin_batch", "§III-B: batched control messages"),
    ("flush_batch", "§III-B: batched control messages"),
    ("jit_from_values", "§IV-A: @jit type discovery"),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().and_then(|n| n.to_str()) != Some("target") {
                rust_files(&p, out);
            }
        } else if p.extension().and_then(|x| x.to_str()) == Some("rs") {
            out.push(p);
        }
    }
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// `src` with comments and the contents of string and char literals
/// blanked, line structure kept — so a name in prose or in an embedded C
/// source is not a use, and `#[cfg(test)]` in a doc comment is not a cut.
fn strip(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let mut blank = |from: usize, to: usize| {
        for c in &mut out[from..to.min(b.len())] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
    };
    let mut i = 0;
    while i < b.len() {
        let start = i;
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                blank(start, i);
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 0usize;
                while i < b.len() {
                    if b[i..].starts_with(b"/*") {
                        depth += 1;
                        i += 2;
                    } else if b[i..].starts_with(b"*/") {
                        depth -= 1;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        i += 1;
                    }
                }
                blank(start, i);
            }
            b'r' if (i == 0 || !is_ident(b[i - 1]))
                && matches!(b.get(i + 1), Some(b'"' | b'#')) =>
            {
                let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
                if b.get(i + 1 + hashes) != Some(&b'"') {
                    i += 1; // a raw identifier, `r#type`
                    continue;
                }
                let mut close = vec![b'"'];
                close.resize(1 + hashes, b'#');
                i += 2 + hashes;
                let body = i;
                while i < b.len() && !b[i..].starts_with(&close) {
                    i += 1;
                }
                blank(body, i);
                i += close.len();
            }
            b'"' => {
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                blank(start + 1, i);
                i += 1;
            }
            b'\'' => {
                // A char literal closes after one (possibly escaped)
                // character; anything else is a lifetime.
                let len = if b.get(i + 1) == Some(&b'\\') {
                    b.get(i + 3..)
                        .and_then(|t| t.iter().position(|&c| c == b'\''))
                        .map(|p| p + 4)
                } else {
                    let ch = src[i + 1..].chars().next().map_or(0, char::len_utf8);
                    (ch > 0 && b.get(i + 1 + ch) == Some(&b'\'')).then_some(ch + 2)
                };
                match len {
                    Some(len) => {
                        blank(start + 1, start + len - 1);
                        i += len;
                    }
                    None => i += 1,
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("only whole code points were blanked")
}

/// The identifiers *used* in stripped code: a definition (`fn name`,
/// `struct Name`, …) and everything inside a `use` declaration are not
/// uses.
fn used_names(code: &str) -> HashSet<&str> {
    let b = code.as_bytes();
    let mut uses = HashSet::new();
    let (mut prev, mut prev_start) = ("", 0);
    let mut in_use = false;
    let mut i = 0;
    while i < b.len() {
        if !is_ident(b[i]) {
            in_use &= b[i] != b';';
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len() && is_ident(b[i]) {
            i += 1;
        }
        let tok = &code[start..i];
        in_use |= tok == "use";
        // `fn name` defines; `*const T` and `&'static T` use.
        let defines = DEF_KEYWORDS.contains(&prev)
            && code[prev_start + prev.len()..start].trim().is_empty()
            && !matches!(prev_start.checked_sub(1).map(|p| b[p]), Some(b'*' | b'\''));
        if !in_use && !defines && !b[start].is_ascii_digit() {
            uses.insert(tok);
        }
        (prev, prev_start) = (tok, start);
    }
    uses
}

/// One scanned file: its public signatures, its stripped code, and where
/// in that code the first `#[cfg(test)]` starts.
struct Source {
    rel: String,
    sigs: Vec<String>,
    code: String,
    cut: usize,
}

/// Pull the signature lines out of one file. Items inside function bodies
/// or test modules are not public API; a brace-depth scan that only
/// records items at module level would need a real parser, so the filter
/// is simpler and honest about it: stop at the first `#[cfg(test)]` (as
/// ci.sh's panic-site ratchet does), keep only module- and impl-level
/// indentation, and strip trailing bodies/`where` clauses.
fn scan(path: &Path, root: &Path) -> Source {
    let src = fs::read_to_string(path).unwrap_or_default();
    let code = strip(&src);
    let cut = code.find("#[cfg(test)]").unwrap_or(code.len());
    let mut sigs = Vec::new();
    for (line, _) in src.lines().zip(code[..cut].lines()) {
        let t = line.trim_start();
        // Only module-level and impl-level items: both sit at one or two
        // indentation steps. Anything deeper is a body.
        let indent = line.len() - t.len();
        if indent > 4 {
            continue;
        }
        if HEADS.iter().any(|h| t.starts_with(h)) {
            let mut sig = t.trim_end();
            for stop in [" {", " where"] {
                if let Some(i) = sig.find(stop) {
                    sig = &sig[..i];
                }
            }
            sigs.push(sig.trim_end_matches(';').trim_end().to_string());
        }
    }
    let rel = path.strip_prefix(root).unwrap_or(path).display();
    Source {
        rel: rel.to_string(),
        sigs,
        code,
        cut,
    }
}

/// Every `.rs` file a public name could be used from.
fn scan_all(root: &Path) -> Vec<Source> {
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", "benchmark/src", "src"] {
        rust_files(&root.join(dir), &mut files);
    }
    files.iter().map(|f| scan(f, root)).collect()
}

/// The files whose `pub` items are the workspace's surface: every crate's
/// library sources plus the facade, not the binaries.
fn is_surface(rel: &str) -> bool {
    rel == "src/lib.rs"
        || (rel.starts_with("crates/")
            && rel.split('/').nth(2) == Some("src")
            && !rel.contains("/bin/"))
}

fn listing(sources: &[Source]) -> String {
    let mut items: Vec<String> = sources
        .iter()
        .filter(|s| is_surface(&s.rel))
        .flat_map(|s| s.sigs.iter().map(move |sig| format!("{} :: {sig}", s.rel)))
        .collect();
    items.sort();
    items.dedup();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Public API listing\n\n\
         Generated by `cargo run -p bench --bin api_listing -- --write`;\n\
         checked in CI with `--check`. One line per public item, sorted:\n\
         `<file> :: <signature>`.\n\n```\n"
    );
    for it in &items {
        let _ = writeln!(out, "{it}");
    }
    let _ = writeln!(out, "```");
    let _ = writeln!(out, "\n{} public items.", items.len());
    out
}

/// The keyword and identifier a signature defines; `None` for re-exports
/// and modules.
fn defined_name(sig: &str) -> Option<(&str, &str)> {
    if sig.starts_with("pub use ") || sig.starts_with("pub mod ") {
        return None;
    }
    let mut words = sig.split(|c: char| !(c.is_ascii() && is_ident(c as u8)));
    let mut keyword = words.next()?;
    for w in words {
        if DEF_KEYWORDS.contains(&keyword) && !matches!(w, "fn" | "unsafe") {
            return Some((keyword, w));
        }
        keyword = w;
    }
    None
}

/// `(class, "file :: signature", name)` for every public item whose name
/// no other file uses.
fn unreferenced(sources: &[Source]) -> Vec<(&'static str, String, &str)> {
    let uses: Vec<[HashSet<&str>; 2]> = sources
        .iter()
        .map(|s| [used_names(&s.code[..s.cut]), used_names(&s.code[s.cut..])])
        .collect();
    let mut out = Vec::new();
    for (i, s) in sources.iter().enumerate() {
        if !is_surface(&s.rel) {
            continue;
        }
        for sig in &s.sigs {
            let Some((keyword, name)) = defined_name(sig) else {
                continue;
            };
            let used_in = |f: usize, region: usize| uses[f][region].contains(name);
            if (0..sources.len()).any(|j| j != i && (used_in(j, 0) || used_in(j, 1))) {
                continue;
            }
            let class = if used_in(i, 0) {
                // A type its own file's signatures mention is reachable
                // through them, and a trait is used by being imported.
                if matches!(keyword, "struct" | "enum" | "trait" | "type") {
                    continue;
                }
                "file-local"
            } else if used_in(i, 1) {
                "test-only"
            } else {
                "dead"
            };
            out.push((class, format!("{} :: {sig}", s.rel), name));
        }
    }
    out.sort();
    out
}

fn main() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let api_md = root.join("API.md");
    let sources = scan_all(&root);
    let fresh = listing(&sources);
    let mode = std::env::args().nth(1).unwrap_or_default();
    match mode.as_str() {
        "--write" => {
            fs::write(&api_md, &fresh).expect("write API.md");
            println!(
                "wrote {} ({} lines)",
                api_md.display(),
                fresh.lines().count()
            );
        }
        "--check" => {
            let on_disk = fs::read_to_string(&api_md).unwrap_or_default();
            if on_disk == fresh {
                println!("API.md is current");
            } else {
                let old: Vec<&str> = on_disk.lines().collect();
                let new: Vec<&str> = fresh.lines().collect();
                for l in new.iter().filter(|l| !old.contains(l)) {
                    println!("+ {l}");
                }
                for l in old.iter().filter(|l| !new.contains(l)) {
                    println!("- {l}");
                }
                eprintln!(
                    "API.md is stale: the public surface changed. Regenerate with\n\
                     `cargo run -p bench --bin api_listing -- --write` and commit it."
                );
                std::process::exit(1);
            }
        }
        "--unreferenced" => {
            let report = unreferenced(&sources);
            let kept = |name: &str| KEPT.iter().find(|(k, _)| *k == name);
            let (mut n_kept, mut to_fix) = (0, 0);
            for (class, item, name) in &report {
                match kept(name) {
                    Some((_, paper)) => {
                        println!("{class:<10} {item}   [KEPT: {paper}]");
                        n_kept += 1;
                    }
                    None => {
                        println!("{class:<10} {item}");
                        to_fix += 1;
                    }
                }
            }
            for (name, _) in KEPT {
                if !report.iter().any(|(_, _, n)| *n == name) {
                    println!("stale      KEPT entry `{name}` is no longer reported: drop it");
                    to_fix += 1;
                }
            }
            println!(
                "{} unreferenced public items, {n_kept} of them in KEPT, {to_fix} to fix.",
                report.len()
            );
            if to_fix > 0 {
                eprintln!(
                    "A public name nothing outside its file uses: delete it, make it private,\n\
                     add the missing case to a test grid, or (paper surface whose tests sit\n\
                     beside it) list it in KEPT with its paper reference."
                );
                std::process::exit(1);
            }
        }
        other => {
            eprintln!("usage: api_listing --write | --check | --unreferenced (got {other:?})");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_blanks_prose_and_literals_but_keeps_code_and_lines() {
        let src = "let a = \"fn x // no\"; // gone\n/* bb /* cc */ dd */ let q = '\\'';\n\
                   let r = r#\"raw \" fn\"#; fn f<'a>(c: char) -> &'a str { 'é'; r#type }";
        let code = strip(src);
        assert_eq!(code.lines().count(), src.lines().count());
        let names = used_names(&code);
        for gone in ["x", "no", "gone", "bb", "cc", "dd", "raw"] {
            assert!(!names.contains(gone), "{gone} in {code:?}");
        }
        for kept in ["a", "q", "r", "char", "str", "type"] {
            assert!(names.contains(kept), "{kept} not in {code:?}");
        }
    }

    #[test]
    fn definitions_and_use_declarations_are_not_uses() {
        let names = used_names(
            "pub use a::{b,\n c}; use d; fn e() { f(); } struct G; impl G { const H: I = 1; }\n\
             fn j(x: *const K, y: &'static L, z: fn(M) -> N) {}",
        );
        for gone in ["a", "b", "c", "d", "e", "H", "j"] {
            assert!(!names.contains(gone), "{gone}");
        }
        for kept in ["f", "G", "I", "K", "L", "M", "N"] {
            assert!(names.contains(kept), "{kept}");
        }
        assert_eq!(
            defined_name("pub const fn new() -> Self"),
            Some(("fn", "new"))
        );
        assert_eq!(defined_name("pub struct Ring<T>"), Some(("struct", "Ring")));
        assert_eq!(defined_name("pub use span::RankGuard"), None);
    }
}
