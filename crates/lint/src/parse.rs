//! Pass 2 — item-level parsing over the stripped token stream.
//!
//! A deliberately approximate, brace-matching parser that recovers the
//! item structure rustfmt'd Rust exposes line by line: functions (with
//! their enclosing `impl`/`trait` type and body line range), struct
//! fields (with their declared type text), `use` paths, and
//! module-level `static` items. It is not a Rust parser — it is exactly
//! strong enough for a workspace symbol index and an approximate call
//! graph, and it must never panic on weird-but-valid input (unmatched
//! braces in macros, one-line bodies, multi-line `impl` headers).

use crate::lexer::{word_match, SourceFile};

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name (last path segment), if any.
    pub impl_type: Option<String>,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// 0-based inclusive body line range (opening to closing brace);
    /// `None` for signature-only trait declarations.
    pub body: Option<(usize, usize)>,
}

/// One struct field with its declared type text.
#[derive(Debug, Clone)]
pub struct FieldItem {
    /// Name of the struct declaring the field.
    pub owner: String,
    /// Field name.
    pub name: String,
    /// Declared type, as written (e.g. `HashMap<FlowId, usize>`).
    pub ty: String,
    /// 0-based declaration line.
    pub line: usize,
}

/// One `use` path (first line only for multi-line groups).
#[derive(Debug, Clone)]
pub struct UseItem {
    /// The path text after `use`, up to `;` or end of line.
    pub path: String,
    /// 0-based line.
    pub line: usize,
}

/// One module-level `static` item (the cross-shard escape channel the
/// `shared_mut_across_shards` rule hunts).
#[derive(Debug, Clone)]
pub struct StaticItem {
    /// Whole declaration line, trimmed.
    pub decl: String,
    /// 0-based line.
    pub line: usize,
}

/// Parsed item structure of one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// All functions (including trait default methods and test fns).
    pub fns: Vec<FnItem>,
    /// All struct fields.
    pub fields: Vec<FieldItem>,
    /// All `use` paths.
    pub uses: Vec<UseItem>,
    /// All module-level statics.
    pub statics: Vec<StaticItem>,
    /// `impl Type` / `enum Name` / `struct Name` headers with their
    /// 0-based inclusive body line range (opening to closing brace).
    pub blocks: Vec<(String, (usize, usize))>,
}

impl ParsedFile {
    /// Body line ranges of what `item` names: `impl Type` (every impl
    /// block of that type), `enum Name`, `struct Name`, `Type::method` or
    /// a free `fn`.
    pub fn bodies(&self, item: &str) -> Vec<(usize, usize)> {
        let fns = self.fns.iter().filter(|f| match &f.impl_type {
            Some(t) => item.split_once("::") == Some((t, &f.name)),
            None => item == f.name,
        });
        let blocks = self.blocks.iter().filter(|b| b.0 == item).map(|b| b.1);
        blocks.chain(fns.filter_map(|f| f.body)).collect()
    }
}

enum Scope {
    Module,
    /// The impl's subject type and the line of its opening brace.
    Impl(String, usize),
    /// A struct's name and the line of its opening brace.
    Struct(String, usize),
    Fn(usize),
    /// An `enum`/`union` body: its header and opening line.
    Block(String, usize),
    Opaque,
}

enum Pending {
    None,
    Fn { name: String, line: usize },
    Struct(String),
    Impl(String),
    Block(String),
}

/// Last path segment of an `impl` header's subject type:
/// `impl<S: Send> ParallelRunner<S>` → `ParallelRunner`,
/// `impl fmt::Display for Finding` → `Finding`.
fn impl_subject(header: &str) -> String {
    let mut rest = header.trim_start();
    // Strip leading generics `<...>` (balanced).
    if rest.starts_with('<') {
        let mut depth = 0i32;
        let mut cut = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = rest[cut..].trim_start();
    }
    // `impl Trait for Type` — the subject is the `for` side.
    if let Some(pos) = rest.find(" for ") {
        rest = rest[pos + 5..].trim_start();
    }
    let rest = rest.trim_start_matches('&').trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let rest = rest.strip_prefix("dyn ").unwrap_or(rest);
    // Cut at generics / whitespace / where clause, keep last `::` segment.
    let end = rest.find(['<', ' ', '\t', '{']).unwrap_or(rest.len());
    let path = &rest[..end];
    path.rsplit("::").next().unwrap_or(path).trim().to_string()
}

/// Identifier starting at `s` (empty if the first char is not an
/// identifier start).
fn leading_ident(s: &str) -> &str {
    let end = s.find(|c: char| !c.is_alphanumeric() && c != '_').unwrap_or(s.len());
    &s[..end]
}

/// Parses the stripped code of `file` into items.
pub fn parse_file(file: &SourceFile) -> ParsedFile {
    let mut out = ParsedFile::default();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending = Pending::None;
    // Paren depth inside a pending fn signature (a `;` at depth 0 means
    // a body-less trait declaration).
    let mut sig_parens = 0i32;

    for (i, line) in file.code.iter().enumerate() {
        let item_position =
            !matches!(scopes.last(), Some(Scope::Fn(_) | Scope::Block(..) | Scope::Opaque));
        if matches!(pending, Pending::None) && item_position {
            let t = line.trim_start();
            if t.starts_with("use ") || t.starts_with("pub use ") {
                let after = &t[t.find("use ").map(|p| p + 4).unwrap_or(0)..];
                let path = after.split(';').next().unwrap_or(after).trim().to_string();
                out.uses.push(UseItem { path, line: i });
            } else if word_match(t, "fn") {
                if let Some(pos) = t.find("fn ") {
                    let name = leading_ident(t[pos + 3..].trim_start()).to_string();
                    if !name.is_empty() {
                        pending = Pending::Fn { name, line: i };
                        sig_parens = 0;
                    }
                }
            } else if word_match(t, "struct")
                && (t.starts_with("struct") || t.starts_with("pub"))
            {
                if let Some(pos) = t.find("struct ") {
                    let name = leading_ident(t[pos + 7..].trim_start()).to_string();
                    // Unit / tuple structs carry no brace-delimited fields.
                    let tuple_or_unit = t.contains(';') && !t.contains('{');
                    if !name.is_empty() && !tuple_or_unit {
                        pending = Pending::Struct(name);
                    }
                }
            } else if word_match(t, "impl") && (t.starts_with("impl") || t.starts_with("pub")) {
                if let Some(pos) = t.find("impl") {
                    pending = Pending::Impl(t[pos + 4..].to_string());
                }
            } else if word_match(t, "trait") && (t.starts_with("trait") || t.starts_with("pub")) {
                if let Some(pos) = t.find("trait ") {
                    let name = leading_ident(t[pos + 6..].trim_start()).to_string();
                    pending = Pending::Impl(name); // trait default methods index like impls
                }
            } else if (word_match(t, "enum") || word_match(t, "union"))
                && (t.starts_with("enum") || t.starts_with("union") || t.starts_with("pub"))
            {
                let kw = if word_match(t, "enum") { "enum" } else { "union" };
                let name = t.find(kw).map_or("", |p| leading_ident(t[p + kw.len()..].trim_start()));
                pending = Pending::Block(format!("{kw} {name}"));
            } else if t.starts_with("static ")
                || t.starts_with("pub static ")
                || t.starts_with("pub(crate) static ")
                || t.starts_with("static mut ")
                || t.contains("thread_local!")
            {
                out.statics.push(StaticItem { decl: t.trim_end().to_string(), line: i });
            }
        } else if let Pending::Impl(header) = &mut pending {
            // Multi-line impl header: accumulate until the brace.
            if !line.contains('{') {
                header.push(' ');
                header.push_str(line.trim());
            }
        }

        // Field lines: directly inside a struct body.
        if matches!(pending, Pending::None) {
            if let Some(Scope::Struct(owner, _)) = scopes.last() {
                let t = line.trim();
                if let Some(colon) = t.find(':') {
                    let head = t[..colon].trim();
                    let name = head
                        .strip_prefix("pub(crate)")
                        .or_else(|| head.strip_prefix("pub(super)"))
                        .or_else(|| head.strip_prefix("pub"))
                        .unwrap_or(head)
                        .trim();
                    if !name.is_empty()
                        && name.chars().all(|c| c.is_alphanumeric() || c == '_')
                        && !name.chars().next().is_some_and(|c| c.is_ascii_digit())
                    {
                        let ty = t[colon + 1..].trim().trim_end_matches(',').trim().to_string();
                        out.fields.push(FieldItem {
                            owner: owner.clone(),
                            name: name.to_string(),
                            ty,
                            line: i,
                        });
                    }
                }
            }
        }

        // Brace/paren tracking; a pending item binds to the next `{` at
        // paren depth 0.
        for c in line.chars() {
            match c {
                '(' => {
                    if matches!(pending, Pending::Fn { .. }) {
                        sig_parens += 1;
                    }
                }
                ')' => {
                    if matches!(pending, Pending::Fn { .. }) {
                        sig_parens -= 1;
                    }
                }
                // A `;` at paren depth 0 ends a body-less fn declaration
                // (trait method). Other pending kinds (struct/impl headers
                // spanning lines) are left pending — only `{` binds them.
                ';' if sig_parens <= 0 && matches!(pending, Pending::Fn { .. }) => {
                    if let Pending::Fn { name, line } =
                        std::mem::replace(&mut pending, Pending::None)
                    {
                        let impl_type = scopes.iter().rev().find_map(|s| match s {
                            Scope::Impl(t, _) => Some(t.clone()),
                            _ => None,
                        });
                        out.fns.push(FnItem { name, impl_type, line, body: None });
                    }
                }
                '{' => {
                    match std::mem::replace(&mut pending, Pending::None) {
                        Pending::Fn { name, line } => {
                            if sig_parens > 0 {
                                // `{` inside the signature (const generics);
                                // keep waiting.
                                pending = Pending::Fn { name, line };
                                scopes.push(Scope::Opaque);
                            } else {
                                let impl_type = scopes.iter().rev().find_map(|s| match s {
                                    Scope::Impl(t, _) => Some(t.clone()),
                                    _ => None,
                                });
                                let id = out.fns.len();
                                out.fns.push(FnItem {
                                    name,
                                    impl_type,
                                    line,
                                    body: Some((i, i)), // end patched on pop
                                });
                                scopes.push(Scope::Fn(id));
                            }
                        }
                        Pending::Struct(name) => scopes.push(Scope::Struct(name, i)),
                        Pending::Impl(header) => scopes.push(Scope::Impl(impl_subject(&header), i)),
                        Pending::Block(header) => scopes.push(Scope::Block(header, i)),
                        Pending::None => {
                            // `mod x {`, blocks, match arms, struct literals …
                            let t = line.trim_start();
                            if item_position && (t.starts_with("mod ") || t.starts_with("pub mod "))
                            {
                                scopes.push(Scope::Module);
                            } else {
                                scopes.push(Scope::Opaque);
                            }
                        }
                    }
                }
                '}' => match scopes.pop() {
                    Some(Scope::Fn(id)) => {
                        if let Some((start, _)) = out.fns[id].body {
                            out.fns[id].body = Some((start, i));
                        }
                    }
                    Some(Scope::Impl(t, open)) => out.blocks.push((format!("impl {t}"), (open, i))),
                    Some(Scope::Struct(name, open)) => {
                        out.blocks.push((format!("struct {name}"), (open, i)))
                    }
                    Some(Scope::Block(header, open)) => out.blocks.push((header, (open, i))),
                    _ => {}
                },
                _ => {}
            }
        }
    }
    out
}
