//! Pass 1 — lexing: comment/string stripping, test-region marking and
//! `f4tlint:` directive parsing.
//!
//! Every source file is lexed exactly **once** into a [`SourceFile`];
//! all later passes (item parsing, the symbol index, the call graph and
//! every rule) share that one token stream. Stripping preserves column
//! positions: `code[i]` is line `i` with comments and string/char
//! literal contents blanked to spaces, `comments[i]` is the comment
//! text seen on line `i`.

/// Per-file lexer output.
pub struct Stripped {
    /// Source lines with comments and literal contents blanked.
    pub code: Vec<String>,
    /// Comment text per line (directives are parsed out of this).
    pub comments: Vec<String>,
}

/// Strips comments and string/char-literal contents from `src`.
pub fn strip(src: &str) -> Stripped {
    enum St {
        Code,
        Line,
        Block(u32),
        Str,
        RawStr(u32),
    }
    let chars: Vec<char> = src.chars().collect();
    let mut st = St::Code;
    let mut code_lines = Vec::new();
    let mut comment_lines = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            code_lines.push(std::mem::take(&mut code));
            comment_lines.push(std::mem::take(&mut comment));
            if matches!(st, St::Line) {
                st = St::Code;
            }
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                let next = chars.get(i + 1).copied();
                let prev_ident = i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
                if c == '/' && next == Some('/') {
                    st = St::Line;
                    comment.push_str("//");
                    code.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::Block(1);
                    code.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    st = St::Str;
                    code.push(' ');
                    i += 1;
                } else if (c == 'r' || c == 'b') && !prev_ident {
                    // Raw / byte string prefixes: r", r#", br", b".
                    let mut j = i;
                    if chars[j] == 'b' && chars.get(j + 1) == Some(&'r') {
                        j += 1;
                    }
                    if chars[j] == 'r' || chars[j] == 'b' {
                        let raw = chars[j] == 'r';
                        let mut k = j + 1;
                        let mut hashes = 0u32;
                        if raw {
                            while chars.get(k) == Some(&'#') {
                                hashes += 1;
                                k += 1;
                            }
                        }
                        if chars.get(k) == Some(&'"') && (raw || k == i + 1) {
                            for _ in i..=k {
                                code.push(' ');
                            }
                            st = if raw { St::RawStr(hashes) } else { St::Str };
                            i = k + 1;
                            continue;
                        }
                    }
                    code.push(c);
                    i += 1;
                } else if c == '\'' && !prev_ident {
                    // Char literal vs lifetime.
                    if next == Some('\\') {
                        // Escaped char literal: blank until the closing quote.
                        code.push(' ');
                        i += 1;
                        while i < chars.len() && chars[i] != '\n' {
                            let ch = chars[i];
                            code.push(' ');
                            i += 1;
                            if ch == '\\' && i < chars.len() && chars[i] != '\n' {
                                code.push(' ');
                                i += 1;
                            } else if ch == '\'' {
                                break;
                            }
                        }
                    } else if next.is_some() && chars.get(i + 2) == Some(&'\'') {
                        code.push_str("   ");
                        i += 3;
                    } else {
                        code.push('\'');
                        i += 1;
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            St::Line => {
                comment.push(c);
                code.push(' ');
                i += 1;
            }
            St::Block(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    st = if depth == 1 { St::Code } else { St::Block(depth - 1) };
                    code.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::Block(depth + 1);
                    code.push_str("  ");
                    i += 2;
                } else {
                    comment.push(c);
                    code.push(' ');
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    code.push(' ');
                    i += 1;
                    if i < chars.len() && chars[i] != '\n' {
                        code.push(' ');
                        i += 1;
                    }
                } else {
                    if c == '"' {
                        st = St::Code;
                    }
                    code.push(' ');
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' {
                    let closed = (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'));
                    if closed {
                        for _ in 0..=hashes as usize {
                            code.push(' ');
                        }
                        i += 1 + hashes as usize;
                        st = St::Code;
                        continue;
                    }
                }
                code.push(' ');
                i += 1;
            }
        }
    }
    code_lines.push(code);
    comment_lines.push(comment);
    Stripped { code: code_lines, comments: comment_lines }
}

/// Marks lines inside `#[cfg(test)]`-gated items (brace-matched on the
/// stripped code).
pub fn test_region_flags(code: &[String]) -> Vec<bool> {
    let mut flags = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if code[i].contains("#[cfg(test)]") {
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = i;
            while j < code.len() {
                flags[j] = true;
                for ch in code[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    flags
}

/// Whole-word search: `word` in `haystack` not flanked by `[A-Za-z0-9_]`.
pub fn word_match(haystack: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0
            || !haystack[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = haystack[at + word.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

/// Trailing `[a-zA-Z0-9_]+` identifier of `s` (empty if none).
pub fn trailing_ident(s: &str) -> String {
    let tail: Vec<char> = s.chars().rev().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    tail.into_iter().rev().collect()
}

/// One `// f4tlint: allow(rule): reason` / `allow-file(rule)` directive.
#[derive(Debug, Clone)]
pub struct Directive {
    /// 0-based line the directive comment sits on.
    pub line: usize,
    /// Rule name the directive suppresses.
    pub rule: String,
    /// Whether it is an `allow-file` (whole-file) directive.
    pub file_level: bool,
}

/// All directives of one file, with use-tracking for `stale_allow`.
///
/// A line directive covers its own line; when it sits on a comment-only
/// line it extends over following comment/blank lines through the first
/// code line. `allow-file` covers the whole file. [`Directives::check`]
/// marks a directive *used* only when it actually suppresses a finding
/// — an allow that suppresses nothing is stale.
pub struct Directives {
    /// Every directive, in file order.
    pub list: Vec<Directive>,
    /// Per-line map: directive indices in force on that line.
    per_line: Vec<Vec<usize>>,
    /// Indices of `allow-file` directives.
    file_wide: Vec<usize>,
    /// `used[i]` — directive `i` suppressed at least one finding.
    pub used: Vec<bool>,
}

impl Directives {
    /// Parses directives out of the per-line comment text. Doc comments
    /// (`///`, `//!`) never carry directives — they are documentation
    /// *about* the escape hatch, not uses of it.
    pub fn parse(stripped: &Stripped) -> Directives {
        let mut list: Vec<Directive> = Vec::new();
        let mut per_line: Vec<Vec<usize>> = vec![Vec::new(); stripped.comments.len()];
        let mut file_wide = Vec::new();
        for (i, comment) in stripped.comments.iter().enumerate() {
            if comment.starts_with("///") || comment.starts_with("//!") {
                continue;
            }
            let Some(pos) = comment.find("f4tlint:") else { continue };
            let rest = comment[pos + "f4tlint:".len()..].trim_start();
            let (file_level, args) = if let Some(r) = rest.strip_prefix("allow-file(") {
                (true, r)
            } else if let Some(r) = rest.strip_prefix("allow(") {
                (false, r)
            } else {
                continue;
            };
            let Some(close) = args.find(')') else { continue };
            for rule in args[..close].split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let id = list.len();
                list.push(Directive { line: i, rule: rule.to_string(), file_level });
                if file_level {
                    file_wide.push(id);
                } else {
                    per_line[i].push(id);
                    if stripped.code[i].trim().is_empty() {
                        // Comment-only line: extend through the first code line.
                        let mut j = i + 1;
                        while j < stripped.code.len() {
                            per_line[j].push(id);
                            if !stripped.code[j].trim().is_empty() {
                                break;
                            }
                            j += 1;
                        }
                    }
                }
            }
        }
        let used = vec![false; list.len()];
        Directives { list, per_line, file_wide, used }
    }

    /// Whether a finding for `rule` on 0-based `line` is suppressed;
    /// marks the suppressing directive used. Call this only when a
    /// violation was actually detected.
    pub fn check(&mut self, rule: &str, line: usize) -> bool {
        if let Some(ids) = self.per_line.get(line) {
            // Collect first: a line can carry several directives and we
            // want exactly the matching one marked used.
            if let Some(&id) = ids.iter().find(|&&id| self.list[id].rule == rule) {
                self.used[id] = true;
                return true;
            }
        }
        if let Some(&id) = self.file_wide.iter().find(|&&id| self.list[id].rule == rule) {
            self.used[id] = true;
            return true;
        }
        false
    }
}

/// One lexed source file, shared by every later pass.
pub struct SourceFile {
    /// Repo-relative path label used in findings.
    pub label: String,
    /// Crate directory name (`"core"`, `"sim"`, …; facade/tests scan as `"f4t"`).
    pub crate_name: String,
    /// Raw source lines (string literals intact — metric-name extraction).
    pub raw: Vec<String>,
    /// Stripped code lines (comments/literals blanked).
    pub code: Vec<String>,
    /// Per-line `#[cfg(test)]` region flags.
    pub tests: Vec<bool>,
    /// `f4tlint:` directives with use-tracking.
    pub directives: Directives,
    /// Whether the whole file is test/demo code (under `tests/` or
    /// `examples/`): exempt from the determinism-contract rules.
    pub test_file: bool,
}

impl SourceFile {
    /// Lexes `src` once into the shared representation.
    pub fn new(label: &str, crate_name: &str, src: &str) -> SourceFile {
        let stripped = strip(src);
        let tests = test_region_flags(&stripped.code);
        let directives = Directives::parse(&stripped);
        let test_file = label.starts_with("tests/")
            || label.starts_with("examples/")
            || label.contains("/tests/")
            || label.contains("/examples/");
        SourceFile {
            label: label.to_string(),
            crate_name: crate_name.to_string(),
            raw: src.lines().map(str::to_string).collect(),
            code: stripped.code,
            tests,
            directives,
            test_file,
        }
    }
}
