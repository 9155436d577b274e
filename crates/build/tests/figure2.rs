//! The paper's Figure 2 case, end to end through the builder layer: the
//! same CentOS 7 + openssh Dockerfile that dies on `cpio: chown` in a
//! bare Type III container (Figure 1b) completes under the
//! zero-consistency seccomp filter — with every privileged syscall faked
//! and none executed.

use zeroroot_core::Mode;
use zr_build::{BuildError, BuildOptions, Builder};
use zr_kernel::Kernel;
use zr_syscalls::Sysno;
use zr_trace::Disposition;
use zr_vfs::access::Access;
use zr_vfs::fs::FollowMode;

const FIG2: &str = "FROM centos:7\nRUN yum install -y openssh\n";

fn build(mode: Mode) -> (zr_build::BuildResult, Kernel) {
    let mut kernel = Kernel::default_kernel();
    let mut builder = Builder::new();
    let result = builder.build(&mut kernel, FIG2, &BuildOptions::new("win", mode));
    (result, kernel)
}

#[test]
fn figure_2_succeeds_under_seccomp_with_faked_syscalls() {
    let (result, kernel) = build(Mode::Seccomp);
    assert!(result.success, "{}", result.log_text());

    // The mechanism, not just the outcome: privileged calls were issued
    // and the filter faked them (ERRNO(0), nothing executed).
    let stats = kernel.trace.stats();
    assert!(stats.faked > 0, "the filter must have faked syscalls");
    assert!(
        stats.privileged > 0,
        "yum/rpm must have issued privileged calls"
    );

    // Zero consistency is visible in the artifact: the files rpm asked to
    // chown to ssh_keys (gid 998) are still honestly user-owned.
    let image = result.image.expect("successful build produces an image");
    let st = image
        .fs
        .stat(
            "/usr/libexec/openssh/ssh-keysign",
            &Access::root(),
            FollowMode::Follow,
        )
        .expect("openssh payload installed");
    assert_eq!((st.uid, st.gid), (1000, 1000), "the chown was a lie");
}

#[test]
fn figure_1b_fails_without_emulation() {
    let (result, kernel) = build(Mode::None);
    assert!(!result.success, "{}", result.log_text());
    assert!(result.image.is_none(), "failed builds produce no image");
    assert!(
        matches!(result.error, Some(BuildError::RunFailed { status: 1, .. })),
        "{:?}",
        result.error
    );
    assert!(
        result.log_text().contains("cpio: chown"),
        "{}",
        result.log_text()
    );

    // Nothing was faked — the kernel refused the chown honestly.
    let stats = kernel.trace.stats();
    assert_eq!(stats.faked, 0);
    assert!(stats.failed > 0);
}

#[test]
fn per_strategy_outcomes_match_section_6() {
    // The same Dockerfile across the comparison strategies: everything
    // with root emulation completes; the honest build does not.
    for (mode, expect) in [
        (Mode::None, false),
        (Mode::Seccomp, true),
        (Mode::SeccompXattr, true),
        (Mode::SeccompIdConsistent, true),
        (Mode::Fakeroot, true),
        (Mode::Proot, true),
        (Mode::ProotAccelerated, true),
    ] {
        let (result, _) = build(mode);
        assert_eq!(result.success, expect, "{mode:?}:\n{}", result.log_text());
    }
}

#[test]
fn run_markers_follow_the_figures() {
    let (result, _) = build(Mode::Seccomp);
    assert!(result
        .log_text()
        .contains("2. RUN.S yum install -y openssh"));
    let (result, _) = build(Mode::None);
    assert!(result
        .log_text()
        .contains("2. RUN.N yum install -y openssh"));
}

#[test]
fn hit_and_miss_markers_render_exactly() {
    // Regression pin for the cache marker format: `N* INSTR` hit vs
    // `N. INSTR` miss, rendered exactly as the paper's figures show.
    let mut kernel = Kernel::default_kernel();
    let mut builder = Builder::new();
    let opts = BuildOptions::new("win", Mode::Seccomp);

    // Cold build: FROM renders as a storage hit (`1*`, the figures'
    // rendering), the RUN as an executed miss (`2.`).
    let cold = builder.build(&mut kernel, FIG2, &opts);
    assert!(cold.success, "{}", cold.log_text());
    assert!(
        cold.log_text().contains("1* FROM centos:7"),
        "{}",
        cold.log_text()
    );
    assert!(
        cold.log_text().contains("2. RUN.S yum install -y openssh"),
        "{}",
        cold.log_text()
    );

    // Warm rebuild: everything is a hit.
    let warm = builder.build(&mut kernel, FIG2, &opts);
    assert!(warm.success, "{}", warm.log_text());
    assert!(
        warm.log_text().contains("1* FROM centos:7"),
        "{}",
        warm.log_text()
    );
    assert!(
        warm.log_text().contains("2* RUN.S yum install -y openssh"),
        "{}",
        warm.log_text()
    );
    assert_eq!((warm.cache.hits, warm.cache.misses), (2, 0));

    // --no-cache: the one honest FROM miss rendering.
    let mut no_cache = opts.clone();
    no_cache.cache = zr_build::CacheMode::Disabled;
    let forced = builder.build(&mut kernel, FIG2, &no_cache);
    assert!(forced.success, "{}", forced.log_text());
    assert!(
        forced.log_text().contains("1. FROM centos:7"),
        "{}",
        forced.log_text()
    );
    assert!(
        forced
            .log_text()
            .contains("2. RUN.S yum install -y openssh"),
        "{}",
        forced.log_text()
    );
}

#[test]
fn warm_rebuild_of_figure_2_executes_nothing() {
    // The acceptance bar for the layer cache: a warm Figure 2 rebuild
    // executes zero instructions — no spawns, no faked syscalls beyond
    // the cold build's, all hit markers.
    let mut kernel = Kernel::default_kernel();
    let mut builder = Builder::new();
    let opts = BuildOptions::new("win", Mode::Seccomp);
    let cold = builder.build(&mut kernel, FIG2, &opts);
    assert!(cold.success, "{}", cold.log_text());

    let spawns = kernel.counters.spawns;
    let faked = kernel.trace.stats().faked;
    let warm = builder.build(&mut kernel, FIG2, &opts);
    assert!(warm.success, "{}", warm.log_text());
    assert_eq!(kernel.counters.spawns, spawns, "no process ran");
    assert_eq!(kernel.trace.stats().faked, faked, "no syscall was faked");
    assert_eq!((warm.cache.hits, warm.cache.misses), (2, 0));

    // Same zero-consistency artifact out of the snapshot.
    let image = warm.image.expect("image");
    let st = image
        .fs
        .stat(
            "/usr/libexec/openssh/ssh-keysign",
            &Access::root(),
            FollowMode::Follow,
        )
        .expect("openssh payload restored");
    assert_eq!((st.uid, st.gid), (1000, 1000));
}

#[test]
fn each_run_process_carries_exactly_one_filter() {
    // ch-image runs every RUN through its own `ch-run --seccomp`: the
    // filter lives on that RUN's process, never on the container init.
    let mut kernel = Kernel::default_kernel();
    let mut builder = Builder::new();
    let df = "FROM centos:7\nRUN true\nRUN true\nRUN true\n";
    let result = builder.build(&mut kernel, df, &BuildOptions::new("t", Mode::Seccomp));
    assert!(result.success, "{}", result.log_text());
    let init = 3; // first pid after init (1) and the host user (2)
    assert!(
        kernel.process(init).seccomp.is_empty(),
        "the init is never armed"
    );
    // Each RUN still installed its filter and self-tested it (§5).
    let selftests = kernel.trace.filtered(|r| r.sysno == Sysno::KexecLoad);
    assert_eq!(selftests.len(), 3);
    assert!(selftests
        .iter()
        .all(|r| r.disposition == Disposition::FakedByFilter));

    // One filter per process: at most one evaluation per syscall. With
    // the filters stacked on the init this ratio grew with every RUN.
    let mut kernel = Kernel::default_kernel();
    let df = format!("FROM centos:7\n{}", "RUN true\n".repeat(12));
    let result = Builder::new().build(&mut kernel, &df, &BuildOptions::new("t", Mode::Seccomp));
    assert!(result.success, "{}", result.log_text());
    let c = kernel.counters;
    assert!(c.filter_evaluations > 0);
    assert!(
        c.filter_evaluations <= c.syscalls,
        "{} evaluations for {} syscalls",
        c.filter_evaluations,
        c.syscalls
    );
}

#[test]
fn strategy_state_stays_with_each_run_process() {
    // Tracer and preload state are per RUN too: after two armed RUNs
    // the container init is exactly as unarmed as it started.
    for mode in [Mode::Proot, Mode::Fakeroot] {
        let mut kernel = Kernel::default_kernel();
        let df = "FROM centos:7\nRUN true\nRUN yum install -y openssh\n";
        let result = Builder::new().build(&mut kernel, df, &BuildOptions::new("t", mode));
        assert!(result.success, "{mode:?}: {}", result.log_text());
        assert!(kernel.counters.spawns > 2, "{mode:?}: the RUNs executed");
        let init = kernel.process(3);
        assert!(!init.traced, "{mode:?}: tracer leaked onto the init");
        assert!(
            !init.preload_active,
            "{mode:?}: preload leaked onto the init"
        );
        assert!(init.seccomp.is_empty(), "{mode:?}");
    }
}

#[test]
fn faked_fchownat_renders_as_before() {
    // The trace keeps raw fields; `dump()` must still print exactly what
    // the `format!`ed note used to.
    let (result, kernel) = build(Mode::Seccomp);
    assert!(result.success, "{}", result.log_text());
    let dump = kernel.trace.dump();
    for line in [
        "fchownat(path=/etc/ssh uid=Some(0) gid=Some(0)) = FakedByFilter",
        "fchownat(path=/usr/libexec/openssh/ssh-keysign uid=Some(0) gid=Some(998)) = FakedByFilter",
    ] {
        assert!(
            dump.lines().any(|l| l.ends_with(&format!("] {line}"))),
            "no dump line ends with {line}"
        );
    }
}
