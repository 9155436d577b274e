//! Heap allocations per dispatched syscall.
//!
//! A test binary of its own: the counting allocator below sees every
//! allocation in the process, so this file holds a single test and
//! counts only across the dispatch loop. The count is deterministic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use zr_kernel::{Kernel, SysCall, SysExt};
use zr_syscalls::Arch;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a relaxed atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// 1,000 `chmod` and 1,000 `stat` calls on an absolute normal path, from
/// a process with the paper's filter installed, average at most one
/// heap allocation per call: the path is walked borrowed and moves into
/// the trace note, so what is left is the trace's own growth.
#[test]
fn chmod_and_stat_allocate_at_most_once_per_call() {
    const EACH: u32 = 1_000;
    let mut kernel = Kernel::default_kernel();
    let pid = Kernel::HOST_USER_PID;
    let filter = zr_seccomp::compile(&zr_seccomp::spec::zero_consistency(&[Arch::X8664])).unwrap();
    {
        let mut ctx = kernel.ctx(pid);
        ctx.set_no_new_privs().unwrap();
        ctx.seccomp_install(filter).unwrap();
        ctx.write_file("/tmp/f", 0o644, Vec::new()).unwrap();
    }
    let calls: Vec<SysCall> = (0..EACH)
        .flat_map(|i| {
            [
                SysCall::Chmod {
                    path: "/tmp/f".into(),
                    perm: 0o600 | (i & 0o44),
                },
                SysCall::Stat {
                    path: "/tmp/f".into(),
                },
            ]
        })
        .collect();
    let n = calls.len() as u64;
    let evaluations = kernel.counters.filter_evaluations;

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for call in calls {
        assert!(kernel.syscall(pid, call).is_ok());
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(
        kernel.counters.filter_evaluations - evaluations,
        n,
        "every call is filtered"
    );
    assert_eq!(kernel.counters.faked, 0, "chmod and stat run for real");
    eprintln!("{allocations} allocations over {n} calls");
    assert!(
        allocations <= n,
        "{allocations} allocations over {n} calls ({:.3} per call)",
        allocations as f64 / n as f64
    );
}
