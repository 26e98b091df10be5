//! Absolute-path helpers shared by the file-system implementations.
//!
//! Paths in the reproduction are simple: absolute, `/`-separated, no `.` or
//! `..` components after normalization, and no trailing slash except for
//! the root itself.

use std::borrow::Cow;

use crate::error::{FsError, FsResult};

/// The longest directory-entry name, in bytes (Linux's `NAME_MAX`).
/// Creates, `mkdir` and rename targets refuse a longer final component.
pub const NAME_MAX: usize = 255;

/// Normalizes `path` into a canonical absolute path.
///
/// * collapses repeated slashes,
/// * removes `.` components,
/// * resolves `..` components (never above the root),
/// * strips any trailing slash (except for `/` itself).
///
/// One pass into one allocation: the canonical form is never longer than
/// `path`, each component it keeps being one `/name` of the input.
///
/// Returns [`FsError::InvalidArgument`] for relative or empty paths.
pub fn normalize(path: &str) -> FsResult<String> {
    if !path.starts_with('/') {
        return Err(FsError::InvalidArgument);
    }
    let mut out = String::with_capacity(path.len());
    for comp in path.split('/') {
        match comp {
            "" | "." => {}
            ".." => {
                let parent = out.rfind('/').unwrap_or(0);
                out.truncate(parent);
            }
            name => {
                out.push('/');
                out.push_str(name);
            }
        }
    }
    if out.is_empty() {
        out.push('/');
    }
    Ok(out)
}

/// `path` itself when it is already canonical — what [`normalize`] would
/// return — and otherwise its normalized copy.  The file systems take
/// paths through here: a canonical path, the usual case and always the
/// case for a path one layer hands the next, costs a scan and no
/// allocation.
pub fn normalized(path: &str) -> FsResult<Cow<'_, str>> {
    let canonical = path == "/"
        || (path.starts_with('/')
            && path[1..]
                .split('/')
                .all(|comp| !matches!(comp, "" | "." | "..")));
    if canonical {
        Ok(Cow::Borrowed(path))
    } else {
        normalize(path).map(Cow::Owned)
    }
}

/// Splits a **normalized** path into `(parent, file_name)`, both borrowed
/// from it.
///
/// The root has no parent and returns [`FsError::InvalidArgument`].
pub fn split(norm: &str) -> FsResult<(&str, &str)> {
    match norm.rfind('/') {
        Some(0) if norm.len() == 1 => Err(FsError::InvalidArgument),
        Some(0) => Ok(("/", &norm[1..])),
        Some(idx) => Ok((&norm[..idx], &norm[idx + 1..])),
        None => Err(FsError::InvalidArgument),
    }
}

/// The components of a **normalized** path, excluding the root.
pub fn components(norm: &str) -> impl Iterator<Item = &str> {
    norm.split('/').filter(|c| !c.is_empty())
}

/// Joins a directory path with an entry name.
pub fn join(dir: &str, name: &str) -> String {
    if dir == "/" {
        format!("/{name}")
    } else {
        format!("{dir}/{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_common_forms() {
        assert_eq!(normalize("/a/b/c").unwrap(), "/a/b/c");
        assert_eq!(normalize("//a///b/").unwrap(), "/a/b");
        assert_eq!(normalize("/a/./b").unwrap(), "/a/b");
        assert_eq!(normalize("/a/../b").unwrap(), "/b");
        assert_eq!(normalize("/..").unwrap(), "/");
        assert_eq!(normalize("/").unwrap(), "/");
    }

    #[test]
    fn rejects_relative_paths() {
        assert_eq!(normalize("a/b"), Err(FsError::InvalidArgument));
        assert_eq!(normalize(""), Err(FsError::InvalidArgument));
    }

    #[test]
    fn splits_into_parent_and_name() {
        assert_eq!(split("/a").unwrap(), ("/", "a"));
        assert_eq!(split("/a/b/c").unwrap(), ("/a/b", "c"));
        assert_eq!(split("/"), Err(FsError::InvalidArgument));
        assert_eq!(split(""), Err(FsError::InvalidArgument));
    }

    #[test]
    fn components_and_join_round_trip() {
        let comps: Vec<&str> = components("/x/y/z").collect();
        assert_eq!(comps, vec!["x", "y", "z"]);
        assert_eq!(join("/", "a"), "/a");
        assert_eq!(join("/a/b", "c"), "/a/b/c");
        assert_eq!(components("/").count(), 0);
    }

    /// The multi-pass `normalize` the one-pass version replaced: a `Vec` of
    /// components, a `join` and a `format!`.
    fn reference_normalize(path: &str) -> FsResult<String> {
        if !path.starts_with('/') {
            return Err(FsError::InvalidArgument);
        }
        let mut parts: Vec<&str> = Vec::new();
        for comp in path.split('/') {
            match comp {
                "" | "." => {}
                ".." => {
                    parts.pop();
                }
                other => parts.push(other),
            }
        }
        if parts.is_empty() {
            Ok("/".to_string())
        } else {
            Ok(format!("/{}", parts.join("/")))
        }
    }

    #[test]
    fn normalize_matches_the_reference_on_seeded_random_paths() {
        // Pieces that exercise every rule: `.`, `..` (also above the
        // root), empty components from `//`, trailing slashes, names that
        // merely start with dots, and a multi-byte name.
        const PIECES: [&str; 10] = [
            "",
            ".",
            "..",
            "a",
            "bc",
            "..x",
            ".d",
            "...",
            "ü",
            "long-name.dat",
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for _ in 0..20_000 {
            let len = next(9);
            let mut path = String::new();
            if next(8) != 0 {
                path.push('/');
            }
            for i in 0..len {
                if i > 0 {
                    path.push('/');
                }
                path.push_str(PIECES[next(PIECES.len())]);
            }
            assert_eq!(normalize(&path), reference_normalize(&path), "{path:?}");
            assert_eq!(
                normalized(&path).map(Cow::into_owned),
                reference_normalize(&path),
                "{path:?}"
            );
            if let Ok(norm) = normalize(&path) {
                let borrowed = matches!(normalized(&path), Ok(Cow::Borrowed(_)));
                assert_eq!(borrowed, norm == path, "{path:?} borrows iff canonical");
                assert!(norm.len() <= path.len(), "{path:?}");
                assert_eq!(normalize(&norm).as_ref(), Ok(&norm), "idempotent");
            }
        }
    }
}
