//! Property tests on filesystem invariants.

use proptest::prelude::*;
use zr_vfs::access::Access;
use zr_vfs::fs::{FollowMode, Fs};
use zr_vfs::path::{is_normal, join, normalize};

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z]{1,8}"
}

fn arb_path(depth: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(arb_name(), 1..=depth).prop_map(|parts| format!("/{}", parts.join("/")))
}

proptest! {
    /// normalize is idempotent, absolute, and free of dot segments.
    #[test]
    fn normalize_properties(input in "[a-z./]{0,60}") {
        let n = normalize(&format!("/{input}"));
        prop_assert!(n.starts_with('/'));
        prop_assert_eq!(normalize(&n), n.clone());
        prop_assert!(!n.contains("//"));
        for comp in n.split('/') {
            prop_assert!(comp != "." && comp != "..");
        }
    }

    /// The byte scan that lets a path be walked borrowed holds exactly
    /// for the paths normalization leaves unchanged.
    #[test]
    fn is_normal_iff_normalize_is_identity(input in "[a./]{0,16}") {
        prop_assert_eq!(is_normal(&input), normalize(&input) == input);
    }

    /// join with an absolute rhs ignores the base.
    #[test]
    fn join_absolute_wins(base in arb_path(3), rhs in arb_path(3)) {
        prop_assert_eq!(join(&base, &rhs), normalize(&rhs));
    }

    /// Create/write/read roundtrip for arbitrary content at arbitrary
    /// depth; inode count returns to baseline after removal.
    #[test]
    fn write_read_unlink_roundtrip(
        path in arb_path(4),
        content in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut fs = Fs::new();
        let root = Access::root();
        let baseline = fs.inode_count();
        if let Some((parent, _)) = zr_vfs::path::split_parent(&path) {
            fs.mkdir_p(&parent, 0o755).expect("mkdir -p");
        }
        fs.write_file(&path, 0o644, content.clone(), &root).expect("write");
        prop_assert_eq!(fs.read_file(&path, &root).expect("read"), content);
        let st = fs.stat(&path, &root, FollowMode::Follow).expect("stat");
        prop_assert_eq!(st.nlink, 1);
        fs.unlink(&path, &root).expect("unlink");
        prop_assert!(fs.read_file(&path, &root).is_err());
        // Only the directories remain.
        prop_assert!(fs.inode_count() >= baseline);
    }

    /// Hard links share content; nlink counts stay consistent; content
    /// survives until the last link goes.
    #[test]
    fn hardlink_invariants(content in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut fs = Fs::new();
        let root = Access::root();
        fs.write_file("/a", 0o644, content.clone(), &root).unwrap();
        fs.link("/a", "/b", &root).unwrap();
        fs.link("/b", "/c", &root).unwrap();
        let st = fs.stat("/a", &root, FollowMode::Follow).unwrap();
        prop_assert_eq!(st.nlink, 3);
        fs.unlink("/a", &root).unwrap();
        fs.unlink("/b", &root).unwrap();
        prop_assert_eq!(fs.read_file("/c", &root).unwrap(), content);
        let st = fs.stat("/c", &root, FollowMode::Follow).unwrap();
        prop_assert_eq!(st.nlink, 1);
    }

    /// Renames preserve content and never corrupt the tree.
    #[test]
    fn rename_preserves_content(
        src in arb_path(3),
        dst in arb_path(3),
        content in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        prop_assume!(src != dst);
        prop_assume!(!dst.starts_with(&format!("{src}/")));
        prop_assume!(!src.starts_with(&format!("{dst}/")));
        let mut fs = Fs::new();
        let root = Access::root();
        if let Some((p, _)) = zr_vfs::path::split_parent(&src) {
            fs.mkdir_p(&p, 0o755).unwrap();
        }
        if let Some((p, _)) = zr_vfs::path::split_parent(&dst) {
            fs.mkdir_p(&p, 0o755).unwrap();
        }
        // dst's parent dir may shadow src's file path; skip those cases.
        prop_assume!(fs.resolve(&src, &root, FollowMode::Follow).is_err());
        fs.write_file(&src, 0o644, content.clone(), &root).unwrap();
        fs.rename(&src, &dst, &root).unwrap();
        prop_assert!(fs.resolve(&src, &root, FollowMode::Follow).is_err());
        prop_assert_eq!(fs.read_file(&dst, &root).unwrap(), content);
    }

    /// Permission checks are monotone in capability: anything a plain
    /// user can do, a DAC-override credential can too.
    #[test]
    fn dac_override_is_superset(
        perm in 0u32..0o777,
        file_uid in 0u32..4,
        caller_uid in 0u32..4,
    ) {
        let mut fs = Fs::new();
        let root = Access::root();
        fs.write_file("/f", perm, b"x".to_vec(), &root).unwrap();
        fs.set_owner(1 + 1, file_uid, file_uid).ok(); // best effort; ino 2 = /f
        let user = Access::user(caller_uid, caller_uid);
        let capable = Access { cap_dac_override: true, ..user.clone() };
        if fs.read_file("/f", &user).is_ok() {
            prop_assert!(fs.read_file("/f", &capable).is_ok());
        }
    }
}
