//! Path manipulation for the virtual filesystem.
//!
//! All VFS paths are absolute, `/`-separated, UTF-8 strings. [`normalize`]
//! resolves `.` and `..` *lexically*. A path that is already absolute
//! and normal ([`is_normal`], a byte scan) is used as it is: [`normal`]
//! borrows it and allocates only for the paths that need rewriting.

use std::borrow::Cow;

/// Maximum path length, mirroring `PATH_MAX`.
pub const PATH_MAX: usize = 4096;
/// Maximum single component length, mirroring `NAME_MAX`.
pub const NAME_MAX: usize = 255;

/// Split a path into its non-trivial components (`.` and empty components
/// removed, `..` preserved for the walker).
pub fn components(path: &str) -> impl Iterator<Item = &str> {
    path.split('/').filter(|c| !c.is_empty() && *c != ".")
}

/// Lexically normalize `path` into an absolute path: collapse `//`,
/// resolve `.` and `..` (never above root).
pub fn normalize(path: &str) -> String {
    let mut stack: Vec<&str> = Vec::new();
    for c in components(path) {
        if c == ".." {
            stack.pop();
        } else {
            stack.push(c);
        }
    }
    if stack.is_empty() {
        "/".to_string()
    } else {
        let mut out = String::with_capacity(path.len());
        for c in stack {
            out.push('/');
            out.push_str(c);
        }
        out
    }
}

/// Is `path` absolute and normal — exactly when `normalize(path) ==
/// path`? A byte scan: no `//`, no `.` or `..` component, no trailing
/// `/` (except the root itself).
pub fn is_normal(path: &str) -> bool {
    match path.strip_prefix('/') {
        None => false,
        Some("") => true,
        Some(rest) => rest
            .split('/')
            .all(|c| !c.is_empty() && c != "." && c != ".."),
    }
}

/// `path` as an absolute normal path: borrowed when it already is one,
/// [`normalize`]d otherwise.
pub fn normal(path: &str) -> Cow<'_, str> {
    if is_normal(path) {
        Cow::Borrowed(path)
    } else {
        Cow::Owned(normalize(path))
    }
}

/// Join `rel` onto `base` (absolute). If `rel` is already absolute it wins.
pub fn join(base: &str, rel: &str) -> String {
    if rel.starts_with('/') {
        normalize(rel)
    } else {
        normalize(&format!("{base}/{rel}"))
    }
}

/// Split a normalized path into (parent, final component).
/// Returns `None` for the root itself.
pub fn split_parent(path: &str) -> Option<(String, &str)> {
    let norm_len = path.len();
    debug_assert!(path.starts_with('/'), "split_parent wants absolute paths");
    if norm_len <= 1 {
        return None;
    }
    let idx = path.rfind('/').expect("absolute path has a slash");
    let name = &path[idx + 1..];
    let parent = if idx == 0 {
        "/".to_string()
    } else {
        path[..idx].to_string()
    };
    Some((parent, name))
}

/// Validate a single directory-entry name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name != "."
        && name != ".."
        && name.len() <= NAME_MAX
        && !name.contains('/')
        && !name.contains('\0')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_basics() {
        assert_eq!(normalize("/"), "/");
        assert_eq!(normalize("//"), "/");
        assert_eq!(normalize("/a/b/c"), "/a/b/c");
        assert_eq!(normalize("/a//b/./c/"), "/a/b/c");
        assert_eq!(normalize("/a/b/../c"), "/a/c");
        assert_eq!(normalize("/../.."), "/");
        assert_eq!(normalize("/a/../../b"), "/b");
    }

    #[test]
    fn normal_paths_are_borrowed() {
        for p in ["/", "/a", "/a/b.c/..d", "/.x"] {
            assert!(is_normal(p), "{p}");
            assert!(matches!(normal(p), Cow::Borrowed(_)));
        }
        for p in [
            "", "a", "//", "/a/", "/a//b", "/./a", "/a/.", "/a/..", "/../a",
        ] {
            assert!(!is_normal(p), "{p}");
            assert_eq!(normal(p), normalize(p));
        }
    }

    #[test]
    fn join_basics() {
        assert_eq!(join("/usr", "bin/ls"), "/usr/bin/ls");
        assert_eq!(join("/usr", "/etc/passwd"), "/etc/passwd");
        assert_eq!(join("/usr/bin", ".."), "/usr");
        assert_eq!(join("/", "x"), "/x");
    }

    #[test]
    fn split_parent_basics() {
        assert_eq!(split_parent("/a/b"), Some(("/a".to_string(), "b")));
        assert_eq!(split_parent("/a"), Some(("/".to_string(), "a")));
        assert_eq!(split_parent("/"), None);
    }

    #[test]
    fn name_validity() {
        assert!(valid_name("etc"));
        assert!(valid_name("a.b-c_d"));
        assert!(!valid_name(""));
        assert!(!valid_name("."));
        assert!(!valid_name(".."));
        assert!(!valid_name("a/b"));
        assert!(!valid_name("a\0b"));
        assert!(!valid_name(&"x".repeat(256)));
    }

    #[test]
    fn components_filters_noise() {
        let v: Vec<&str> = components("//a/./b///c/").collect();
        assert_eq!(v, vec!["a", "b", "c"]);
        let v: Vec<&str> = components("/a/../b").collect();
        assert_eq!(v, vec!["a", "..", "b"]);
    }
}
