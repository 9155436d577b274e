//! # zr-vfs — in-memory POSIX-like filesystem
//!
//! The filesystem substrate under the simulated kernel. It is *mechanism
//! only*: inodes carry the full metadata package managers care about
//! (uid/gid as **kernel ids**, mode with type and setuid/setgid/sticky
//! bits, xattrs, device numbers, link counts, logical timestamps), and
//! every operation takes an [`Access`] snapshot describing the caller so
//! classic owner/group/other permission checks happen during path walks.
//!
//! *Policy* — user-namespace id mapping, `CAP_CHOWN` versus superblock
//! ownership, the rules that make Figure 1b fail — lives above, in
//! `zr-kernel`. The split mirrors the kernel's own VFS/LSM layering and
//! keeps this crate independently testable.
//!
//! Errors are [`zr_syscalls::Errno`] values throughout, so syscall
//! results flow unmodified from the deepest layer to the simulated libc.
//!
//! ## Path contract
//!
//! Every path operation walks its path once, component by component
//! from `/`, nameidata-style. An absolute normal path
//! ([`path::is_normal`]: no `//`, `.`, `..` or trailing `/`) is walked
//! borrowed, as the caller passed it; every other path is normalized
//! lexically once ([`normalize`]), so `..` never climbs through a
//! symlink. Only a symlink on the way builds a new path string.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod blob;
pub mod fs;
pub mod inode;
pub mod path;

pub use access::Access;
pub use blob::Blob;
pub use fs::{FollowMode, Fs, Nondeterminism};
pub use inode::{FileKind, Ino, Inode, Metadata};
pub use path::{join, normalize, split_parent};
