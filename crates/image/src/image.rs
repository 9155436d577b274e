//! Image data model.

use zr_digest::FieldDigest;
use zr_vfs::fs::Fs;

/// Distribution family — decides the package manager and its syscall
/// habits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Distro {
    /// Alpine: apk, musl, busybox.
    Alpine,
    /// CentOS/RHEL 7: rpm + yum, glibc.
    Centos,
    /// Debian/Ubuntu: dpkg + apt, glibc.
    Debian,
    /// Fedora: rpm + dnf, glibc.
    Fedora,
    /// Empty scratch image.
    Scratch,
}

impl Distro {
    /// os-release `ID=` value.
    pub fn id(self) -> &'static str {
        match self {
            Distro::Alpine => "alpine",
            Distro::Centos => "centos",
            Distro::Debian => "debian",
            Distro::Fedora => "fedora",
            Distro::Scratch => "scratch",
        }
    }
}

/// What a binary in the image *is* — `zr-pkg` maps these to simulated
/// program implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinKind {
    /// POSIX shell (`/bin/sh` or what it links to).
    Shell,
    /// busybox multi-call binary (statically linked).
    Busybox,
    /// Alpine's apk.
    Apk,
    /// rpm (the low-level unpacker that chowns — Figure 1b).
    Rpm,
    /// yum (depsolver wrapping rpm).
    Yum,
    /// dnf (Fedora's yum).
    Dnf,
    /// dpkg.
    Dpkg,
    /// apt (drops privileges for downloads — §5's exception).
    Apt,
    /// apt-get (same engine as apt).
    AptGet,
    /// fakeroot(1), when installed in the image.
    Fakeroot,
    /// Ubuntu's unminimize (a known failure case, §6).
    Unminimize,
    /// /usr/bin/true.
    True,
    /// id(1) — prints uid/gid; handy in RUN lines.
    Id,
    /// coreutils chown(1).
    ChownTool,
    /// mknod(1).
    MknodTool,
    /// The sl(1) train (the paper's Figure 1a payload).
    Sl,
}

/// Linkage of an image binary (decides LD_PRELOAD wrappability).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Linkage {
    /// Subject to LD_PRELOAD interposition.
    Dynamic,
    /// Immune to LD_PRELOAD (busybox-style).
    Static,
}

/// A binary shipped in an image: where it lives and what it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinarySpec {
    /// Absolute path inside the image.
    pub path: String,
    /// Behaviour key.
    pub kind: BinKind,
    /// Linkage.
    pub linkage: Linkage,
}

impl BinarySpec {
    /// Convenience constructor.
    pub fn new(path: &str, kind: BinKind, linkage: Linkage) -> BinarySpec {
        BinarySpec {
            path: path.into(),
            kind,
            linkage,
        }
    }
}

/// Image metadata (the config blob of an OCI image, reduced to what the
/// experiments need).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageMeta {
    /// Repository name ("alpine").
    pub name: String,
    /// Tag ("3.19").
    pub tag: String,
    /// Distro family.
    pub distro: Distro,
    /// libc identity (Apptainer-style bind mounts must match the host).
    pub libc: String,
    /// Default environment.
    pub env: Vec<(String, String)>,
    /// Binaries present, with behaviours and linkage.
    pub binaries: Vec<BinarySpec>,
}

impl ImageMeta {
    /// Full reference ("alpine:3.19").
    pub fn reference(&self) -> String {
        format!("{}:{}", self.name, self.tag)
    }

    /// Find a binary spec by path.
    pub fn binary_at(&self, path: &str) -> Option<&BinarySpec> {
        self.binaries.iter().find(|b| b.path == path)
    }

    /// Is fakeroot installed?
    pub fn has_fakeroot(&self) -> bool {
        self.binaries.iter().any(|b| b.kind == BinKind::Fakeroot)
    }
}

/// An image: metadata + materialized root filesystem.
#[derive(Debug, Clone)]
pub struct Image {
    /// Metadata.
    pub meta: ImageMeta,
    /// Root filesystem (cheaply cloneable snapshot).
    pub fs: Fs,
}

impl Image {
    /// A deterministic content digest over the image: metadata plus the
    /// filesystem's tree digest (every inode's canonical path, type,
    /// permissions, ownership, and payload digest, in path order — see
    /// [`Fs::tree_digest`]).
    ///
    /// Two builds that produce byte-identical trees — a serial build and
    /// a concurrent one of the same Dockerfile, say — digest equal; the
    /// scheduler's determinism tests and the paper-report gates compare
    /// exactly this. Timestamps are excluded: they encode execution
    /// order, not content.
    ///
    /// The hot-path property: file payloads contribute their blobs'
    /// *memoized* SHA-256 and the tree digest is memoized per content
    /// version, so digesting an image that shares most of its blobs
    /// with an already-digested snapshot hashes only the changed bytes
    /// (plus an O(paths) metadata walk). [`digest_uncached`]
    /// (Self::digest_uncached) recomputes the identical value from raw
    /// bytes; the `P-snap` paper-report gate pins the two equal.
    pub fn digest(&self) -> String {
        self.digest_with(self.fs.tree_digest())
    }

    /// Reference implementation of [`digest`](Self::digest):
    /// byte-identical output with every file payload re-hashed from its
    /// raw bytes and no memo consulted — the "cold full-image walk" the
    /// snapshot benchmarks and the `P-snap` gate compare against.
    pub fn digest_uncached(&self) -> String {
        self.digest_with(self.fs.tree_digest_uncached())
    }

    fn digest_with(&self, tree: String) -> String {
        let mut d = FieldDigest::new("zr-image-v2");
        d.field(self.meta.name.as_bytes())
            .field(self.meta.tag.as_bytes())
            .field(self.meta.distro.id().as_bytes())
            .field(self.meta.libc.as_bytes());
        // Each variable-length list is framed by its element count, so
        // the env/binaries boundary is unambiguous — an env pair can
        // never digest like a pair of binary paths.
        d.field(&(self.meta.env.len() as u64).to_be_bytes());
        for (k, v) in &self.meta.env {
            d.field(k.as_bytes()).field(v.as_bytes());
        }
        d.field(&(self.meta.binaries.len() as u64).to_be_bytes());
        for b in &self.meta.binaries {
            d.field(b.path.as_bytes())
                .field(format!("{:?}/{:?}", b.kind, b.linkage).as_bytes());
        }
        d.field(tree.as_bytes());
        d.finish()
    }

    /// Set every inode's owner — what unpacking a base tarball as an
    /// unprivileged user does to ownership.
    pub fn chown_all(&mut self, uid: u32, gid: u32) {
        let count = self.fs.inode_count();
        // Inode numbers are dense from 1 in a freshly materialized image.
        for ino in 1..=count as u64 {
            if self.fs.inode(ino).is_ok() {
                self.fs.set_owner(ino, uid, gid).expect("live inode");
            }
        }
    }
}

/// A parsed image reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ImageRef {
    /// Repository name.
    pub name: String,
    /// Tag (defaults to "latest").
    pub tag: String,
}

impl ImageRef {
    /// Parse `name[:tag]`.
    pub fn parse(s: &str) -> Option<ImageRef> {
        let s = s.trim();
        if s.is_empty() {
            return None;
        }
        match s.split_once(':') {
            Some((name, tag)) if !name.is_empty() && !tag.is_empty() => Some(ImageRef {
                name: name.into(),
                tag: tag.into(),
            }),
            Some(_) => None,
            None => Some(ImageRef {
                name: s.into(),
                tag: "latest".into(),
            }),
        }
    }
}

impl std::fmt::Display for ImageRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.name, self.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_ref_parsing() {
        assert_eq!(
            ImageRef::parse("alpine:3.19"),
            Some(ImageRef {
                name: "alpine".into(),
                tag: "3.19".into()
            })
        );
        assert_eq!(
            ImageRef::parse("centos"),
            Some(ImageRef {
                name: "centos".into(),
                tag: "latest".into()
            })
        );
        assert_eq!(ImageRef::parse(""), None);
        assert_eq!(ImageRef::parse("x:"), None);
        assert_eq!(ImageRef::parse(":y"), None);
        assert_eq!(ImageRef::parse("a:b").unwrap().to_string(), "a:b");
    }

    #[test]
    fn meta_helpers() {
        let meta = ImageMeta {
            name: "t".into(),
            tag: "1".into(),
            distro: Distro::Alpine,
            libc: "musl-1.2".into(),
            env: vec![],
            binaries: vec![BinarySpec::new("/sbin/apk", BinKind::Apk, Linkage::Dynamic)],
        };
        assert_eq!(meta.reference(), "t:1");
        assert!(meta.binary_at("/sbin/apk").is_some());
        assert!(meta.binary_at("/bin/sh").is_none());
        assert!(!meta.has_fakeroot());
    }

    #[test]
    fn digest_is_deterministic_and_content_sensitive() {
        let pull = |r: &str| {
            crate::registry::Registry::new()
                .pull(&ImageRef::parse(r).unwrap())
                .unwrap()
        };
        let a = pull("alpine:3.19");
        let b = pull("alpine:3.19");
        assert_eq!(a.digest(), b.digest(), "same content, same digest");
        assert_eq!(a.digest().len(), 64);
        assert_ne!(a.digest(), pull("debian:12").digest());
        assert_eq!(
            a.digest(),
            a.digest_uncached(),
            "memoized digest equals the full-rehash reference"
        );

        // Content edits move the digest; so do ownership changes.
        let mut edited = pull("alpine:3.19");
        edited
            .fs
            .write_file(
                "/etc/motd",
                0o644,
                b"hi\n".to_vec(),
                &zr_vfs::Access::root(),
            )
            .unwrap();
        assert_ne!(a.digest(), edited.digest());
        let mut chowned = pull("alpine:3.19");
        chowned.chown_all(1000, 1000);
        assert_ne!(a.digest(), chowned.digest());
    }

    #[test]
    fn chown_all_rewrites_every_inode() {
        let mut fs = Fs::new();
        fs.mkdir_p("/a/b", 0o755).unwrap();
        let mut img = Image {
            meta: ImageMeta {
                name: "x".into(),
                tag: "y".into(),
                distro: Distro::Scratch,
                libc: String::new(),
                env: vec![],
                binaries: vec![],
            },
            fs,
        };
        img.chown_all(1000, 1000);
        let st = img
            .fs
            .stat("/a/b", &zr_vfs::Access::root(), zr_vfs::FollowMode::Follow)
            .unwrap();
        assert_eq!((st.uid, st.gid), (1000, 1000));
    }
}
