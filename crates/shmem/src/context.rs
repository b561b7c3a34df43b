//! Stackful contexts: the switch primitive under the serial executor.
//!
//! A [`Context`] is a closure with a stack of its own, and a slice of them
//! is a *family*. [`resume_in`] runs one member *on the calling thread*;
//! the running member may [`hand_off`] to a sibling, suspended or never
//! started; whichever member then calls [`suspend`] or returns lands back
//! in `resume_in`, which says who it was. That is all the serial executor
//! needs to run every PE of a world on one OS thread, one switch per
//! scheduling decision (see [`crate::vclock`]), and it nests: a context may
//! itself run a family, so a world launched from inside a PE of another
//! world just works. There is no global state beyond a thread-local
//! "innermost running family", so worlds on different OS threads never
//! meet.
//!
//! Two primitives sit behind the one API
//! (`spawn`/`resume_in`/`hand_off`/`suspend`/`reap`), selected by target:
//!
//! * `switched` (x86-64 Linux): a user-space stack switch — six
//!   callee-saved registers and the stack pointer, ≈10 ns — onto a 2 MiB
//!   anonymous mapping with a `PROT_NONE` guard page below it, so an
//!   overflow faults instead of scribbling over a neighbour. Stacks are
//!   recycled: a dropped context — reaped, never started, or abandoned —
//!   hands its mapping, guard page intact, to a bounded free list of its
//!   OS thread, and `spawn` takes from that list before it maps, so a
//!   world costs the kernel nothing once its thread has run one as wide.
//!   A tenant cannot see what the last one left (`spawn` writes the first
//!   frame, and safe code reads no stack slot it has not written); the
//!   pages it touched stay resident until the mapping goes — when the
//!   list is full (`POOLED_STACKS`) or its thread exits.
//! * `parked` (every other target, and Miri): one OS thread per context,
//!   woken and answered over a pair of channels (a hand-off is relayed by
//!   the thread blocked in `resume_in`). Slow, but the same semantics, so
//!   the scheduler above cannot tell which one it runs on.
//!
//! Contract, both primitives: the entry closure must not unwind (a leak
//! aborts the process); a context must not suspend while its thread is
//! panicking (asserted — the panic count is per OS thread, so the next
//! context's first panic would be taken for a double panic). Dropping a
//! started, unfinished context abandons its frames (`switched`) or
//! unwinds them (`parked`); the scheduler never does.

/// Stack bytes per context: what `std::thread` gave each PE before.
const STACK_BYTES: usize = 2 << 20;

/// State a family and its root share, for whichever of them is running
/// (the scheduler's: every PE's stack must reach it).
pub(crate) struct Turn<T>(std::cell::RefCell<T>);

// SAFETY: the contexts of a family and their root run strictly one at a
// time, and every switch between them is a synchronization point (the same
// OS thread, or a channel hand-off between parked threads). `Turn` is only
// ever touched by the running one, so no two threads are inside the
// `RefCell` at once; `T: Send` because parked contexts are other threads.
unsafe impl<T: Send> Sync for Turn<T> {}

impl<T> Turn<T> {
    pub(crate) fn new(value: T) -> Turn<T> {
        Turn(std::cell::RefCell::new(value))
    }

    /// Run `f` on the state; panics if entered twice. Only the running
    /// member of the one family that shares it (or its root) may call.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.0.borrow_mut())
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
pub(crate) use switched::{hand_off, resume_in, suspend, Context};

#[cfg(not(all(target_arch = "x86_64", target_os = "linux", not(miri))))]
pub(crate) use parked::{hand_off, resume_in, suspend, Context};

#[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
mod switched {
    use std::cell::{Cell, RefCell};
    use std::ffi::c_void;
    use std::io;
    use std::ptr;

    use super::STACK_BYTES;

    /// The inaccessible page below each stack (x86-64 Linux base page).
    const GUARD_BYTES: usize = 4096;
    /// One mapping: the guard page, then the stack.
    const LEN: usize = GUARD_BYTES + STACK_BYTES;

    const PROT_NONE: i32 = 0;
    const PROT_READ_WRITE: i32 = 1 | 2;
    /// `MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK`: stacks
    /// are touched a few pages deep, so thousands of them must not count
    /// against the overcommit heuristic.
    const MAP_FLAGS: i32 = 0x02 | 0x20 | 0x4000 | 0x2_0000;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
        /// Push the callee-saved registers, store the stack pointer to
        /// `*save`, load `to`, pop the callee-saved registers, return —
        /// on the other stack.
        fn sws_context_switch(save: *mut usize, to: usize);
        /// First return address of a fresh context: calls `r13`.
        fn sws_context_entry();
    }

    std::arch::global_asm!(
        ".text",
        ".p2align 4",
        ".hidden sws_context_switch",
        ".globl sws_context_switch",
        ".type sws_context_switch,@function",
        "sws_context_switch:",
        "    push rbp",
        "    push rbx",
        "    push r12",
        "    push r13",
        "    push r14",
        "    push r15",
        "    mov [rdi], rsp",
        "    mov rsp, rsi",
        "    pop r15",
        "    pop r14",
        "    pop r13",
        "    pop r12",
        "    pop rbx",
        "    pop rbp",
        "    ret",
        ".p2align 4",
        ".hidden sws_context_entry",
        ".globl sws_context_entry",
        ".type sws_context_entry,@function",
        "sws_context_entry:",
        "    .cfi_startproc",
        // No caller: unwinders and backtraces stop at this frame.
        "    .cfi_undefined rip",
        "    call r13",
        "    ud2",
        "    .cfi_endproc",
    );

    /// What both sides of a switch share.
    struct Switch<'a> {
        /// Stack pointer of whichever side is *not* running: the
        /// context's while it is suspended, its resumer's while it runs.
        sp: Cell<usize>,
        /// The entry closure, until the first resume runs it.
        entry: Cell<Option<Box<dyn FnOnce() + Send + 'a>>>,
        /// The entry closure has returned.
        done: Cell<bool>,
    }

    /// One stack mapping, guard page first, unmapped when dropped.
    struct Stack(*mut c_void);

    /// Free stacks a thread keeps. 4,096 holds a world of the paper's
    /// 2,112 PEs, or of the launch test's 4,096, whole — the next one maps
    /// nothing — and caps what a thread pins of `vm.max_map_count` at 8,192
    /// mappings (a 65,536-PE world makes 131,072). A kept stack keeps
    /// resident what its deepest tenant touched: two pages after a
    /// scheduler run (32 MiB at the bound); 2 MiB, so 8 GiB in all, only
    /// if every PE of a world ran its stack to the bottom.
    const POOLED_STACKS: usize = 4096;

    /// A family being run, on the frame of the `resume_in` running it.
    struct Running<'f, 'a> {
        family: &'f [Context<'a>],
        /// The member running now; `hand_off` moves it.
        member: Cell<usize>,
    }

    thread_local! {
        /// The innermost family running on this thread (null outside
        /// any). `resume_in` sets it for the duration of the switch, so it
        /// always points at a live frame and a mutably borrowed family.
        static CURRENT: Cell<*const Running<'static, 'static>> = const { Cell::new(ptr::null()) };
        /// This thread's free stacks, last freed on top; dropped (and so
        /// unmapped) with the thread.
        static FREE: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
    }

    impl Stack {
        /// The stack freed last on this thread, else a fresh mapping.
        fn acquire() -> io::Result<Stack> {
            if let Ok(Some(stack)) = FREE.try_with(|free| free.borrow_mut().pop()) {
                return Ok(stack);
            }
            // SAFETY: a fresh anonymous private mapping at an address of
            // the kernel's choosing aliases nothing.
            let map = unsafe { mmap(ptr::null_mut(), LEN, PROT_READ_WRITE, MAP_FLAGS, -1, 0) };
            if map as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            // From here on `Drop` unmaps.
            let stack = Stack(map);
            // SAFETY: the first page of the mapping made just above.
            if unsafe { mprotect(map, GUARD_BYTES, PROT_NONE) } != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(stack)
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            // SAFETY: the mapping `acquire` made, whole; no context owns it
            // any more, so nothing executes on it.
            unsafe { munmap(self.0, LEN) };
        }
    }

    /// A closure with its own stack, run by [`Context::resume`].
    pub(crate) struct Context<'a> {
        switch: Switch<'a>,
        /// `Some` until `Drop` passes it on.
        stack: Option<Stack>,
    }

    /// What a fresh context's first switch returns into (via
    /// `sws_context_entry`): run the closure, mark the context done,
    /// leave for good. `extern "C"`, so a panic escaping `entry` aborts.
    extern "C" fn trampoline() -> ! {
        if let Some(entry) = me().entry.take() {
            entry();
        }
        // Looked up again: the root may have borrowed the family anew.
        let switch = me();
        switch.done.set(true);
        // SAFETY: `sp` holds the root's stack pointer, saved by the switch
        // out of `resume_in` and handed on since; the root is blocked in
        // that call and this stack is never switched to again.
        unsafe { sws_context_switch(switch.sp.as_ptr(), switch.sp.get()) };
        unreachable!("a finished context was resumed");
    }

    /// The innermost running family and the index of its running member.
    fn running() -> (&'static [Context<'static>], &'static Cell<usize>) {
        let current = CURRENT.get();
        assert!(!current.is_null(), "called outside any context");
        // SAFETY: non-null CURRENT points at the `Running` on the frame of
        // the `resume_in` blocked below us on this thread, which borrows
        // the family until it returns; the `'static`s are a lie that no
        // caller lets outlive its own turn.
        let current = unsafe { &*current };
        (current.family, &current.member)
    }

    /// The running member's half of the switch.
    fn me() -> &'static Switch<'static> {
        let (family, me) = running();
        &family[me.get()].switch
    }

    impl<'a> Context<'a> {
        /// A suspended context that runs `entry` once resumed. Fails when
        /// this thread has no free stack and the kernel refuses to map one
        /// (address space, or two mappings per context against
        /// `vm.max_map_count`).
        pub(crate) fn spawn(entry: impl FnOnce() + Send + 'a) -> io::Result<Context<'a>> {
            let stack = Stack::acquire()?;
            // The frame `sws_context_switch` pops on the first resume:
            // r15, r14, r13 (what the entry stub calls), r12, rbx, rbp,
            // the return address, then a zero where a caller's return
            // address would be. The top is page-aligned, so after the
            // `ret` rsp is 16-byte aligned, as at any call site.
            let stub = sws_context_entry as *const () as usize;
            let frame = [0, 0, trampoline as *const () as usize, 0, 0, 0, stub, 0, 0];
            let sp = stack.0 as usize + LEN - std::mem::size_of_val(&frame);
            // SAFETY: `sp..top` lies inside the read-write part of the
            // mapping, is 8-byte aligned, and nothing else refers to it:
            // whoever had this stack before has been dropped.
            unsafe { ptr::write(sp as *mut [usize; 9], frame) };
            Ok(Context {
                switch: Switch {
                    sp: Cell::new(sp),
                    entry: Cell::new(Some(Box::new(entry))),
                    done: Cell::new(false),
                },
                stack: Some(stack),
            })
        }

        /// Free a finished context.
        pub(crate) fn reap(self) {
            assert!(self.switch.done.get(), "reaped an unfinished context");
        }
    }

    impl Drop for Context<'_> {
        /// The context is not running (`&mut self`), so its stack is free.
        fn drop(&mut self) {
            let stack = self.stack.take();
            // `stack` moves into the closure and is unmapped with it unless
            // the list takes it: the closure never runs once the list is
            // gone with its thread, and keeps nothing once the list is full.
            let _ = FREE.try_with(move |free| {
                let mut free = free.borrow_mut();
                if free.len() < POOLED_STACKS {
                    free.extend(stack);
                }
            });
        }
    }

    /// Run `family[first]` on this thread, and whichever siblings the
    /// running member hands off to, until one suspends or returns: which
    /// one, and `true` if its entry has returned.
    pub(crate) fn resume_in(family: &mut [Context<'_>], first: usize) -> (usize, bool) {
        let switch = &family[first].switch;
        assert!(!switch.done.get(), "resumed a finished context");
        let running = Running {
            family,
            member: Cell::new(first),
        };
        let outer = CURRENT.replace(ptr::from_ref(&running).cast());
        // SAFETY: `sp` is the initial frame built by `spawn` or the stack
        // pointer the context saved when it last switched away; either
        // way a live frame `sws_context_switch` can pop, on a stack this
        // `Context` owns and that is running nowhere else (it is not
        // `Send`, and `&mut` excludes a second resume of any member).
        unsafe { sws_context_switch(switch.sp.as_ptr(), switch.sp.get()) };
        CURRENT.set(outer);
        let back = running.member.get();
        (back, family[back].switch.done.get())
    }

    /// Leave the running context as [`suspend`] does, but for its sibling
    /// `to` (suspended or never started), which inherits the root's stack
    /// pointer: whoever suspends or returns next lands in `resume_in`.
    pub(crate) fn hand_off(to: usize) {
        assert!(!std::thread::panicking(), "a context must not switch away while unwinding");
        let (family, me) = running();
        let (from, next) = (&family[me.get()].switch, &family[to].switch);
        assert!(!ptr::eq(from, next) && !next.done.get(), "handed off to a context that cannot run");
        me.set(to);
        let sp = next.sp.replace(from.sp.get());
        // SAFETY: `sp` is a live frame of `to` as in `resume_in`: this is
        // the family's only running member, so `to` is suspended or fresh.
        // Our own frame is saved where the next switch to us looks for it.
        unsafe { sws_context_switch(from.sp.as_ptr(), sp) };
    }

    /// Hand control back to the root of the innermost running family;
    /// returns when this context is next resumed or handed to.
    pub(crate) fn suspend() {
        assert!(!std::thread::panicking(), "a context must not suspend while unwinding");
        let switch = me();
        // SAFETY: `sp` holds the stack pointer `resume_in` saved when it
        // switched into this family; its frame is live until we switch back.
        unsafe { sws_context_switch(switch.sp.as_ptr(), switch.sp.get()) };
    }

    /// What recycling promises, read back from `/proc/self/maps`.
    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::runtime::{run_world, WorldConfig};

        /// Run `ctx` as a family of one; `true` once its entry has returned.
        fn resume(ctx: &mut Context<'_>) -> bool {
            resume_in(std::slice::from_mut(ctx), 0).1
        }

        /// Bounds and permissions of the mapping of this process that
        /// holds `addr`, if any does.
        fn mapping_of(addr: usize) -> Option<(usize, usize, String)> {
            let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
            maps.lines().find_map(|line| {
                let mut cols = line.split_whitespace();
                let (lo, hi) = cols.next()?.split_once('-')?;
                let lo = usize::from_str_radix(lo, 16).ok()?;
                let hi = usize::from_str_radix(hi, 16).ok()?;
                (lo..hi).contains(&addr).then(|| (lo, hi, cols.next().unwrap().to_string()))
            })
        }

        fn mapping_count() -> usize {
            std::fs::read_to_string("/proc/self/maps").unwrap().lines().count()
        }

        /// Bases of the calling thread's free stacks, in address order.
        fn free_bases() -> Vec<usize> {
            let mut bases: Vec<_> = FREE.with_borrow(|f| f.iter().map(|s| s.0 as usize).collect());
            bases.sort_unstable();
            bases
        }

        fn base_of(ctx: &Context<'_>) -> usize {
            ctx.stack.as_ref().unwrap().0 as usize
        }

        /// A 2 MiB read-write mapping with an inaccessible page below it.
        fn assert_guarded_stack_at(base: usize) {
            let (lo, hi, perms) = mapping_of(base + GUARD_BYTES).expect("stack is mapped");
            assert_eq!((lo, hi, perms.as_str()), (base + GUARD_BYTES, base + LEN, "rw-p"));
            let (_, hi, perms) = mapping_of(base).expect("guard page is mapped");
            assert_eq!((hi, perms.as_str()), (base + GUARD_BYTES, "---p"));
        }

        fn barrier_world(n_pes: usize) {
            let out = run_world(WorldConfig::virtual_time(n_pes, 64), |ctx| {
                ctx.barrier_all();
                ctx.my_pe()
            });
            assert_eq!(out.unwrap().results.len(), n_pes);
        }

        /// Run `body` as the only test of a process of its own — this test
        /// binary, re-executed for `test` alone — because what it reads is
        /// process-wide and sibling tests map stacks on their own threads.
        fn alone(test: &str, body: impl FnOnce()) {
            const KEY: &str = "SWS_CONTEXT_TEST_ALONE";
            if std::env::var_os(KEY).is_some() {
                return body();
            }
            let module = module_path!().split_once("::").unwrap().1;
            let out = std::process::Command::new(std::env::current_exe().unwrap())
                .args([&format!("{module}::{test}"), "--exact", "--test-threads=1"])
                .env(KEY, "1")
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success() && stdout.contains("1 passed"),
                "{stdout}{}",
                String::from_utf8_lossy(&out.stderr)
            );
        }

        // The two tests below read exact mapping bounds, which a sibling
        // test's mapping placed right above a stack would merge into.
        #[test]
        fn a_reaped_stack_is_the_next_spawns_stack_guard_page_and_all() {
            alone("a_reaped_stack_is_the_next_spawns_stack_guard_page_and_all", || {
                let mut first = Context::spawn(|| ()).unwrap();
                let base = base_of(&first);
                assert_guarded_stack_at(base);
                assert!(resume(&mut first));
                first.reap();
                let mut local_at = 0;
                let mut second = Context::spawn(|| {
                    let local = std::hint::black_box(7u8);
                    local_at = ptr::from_ref(&local) as usize;
                })
                .unwrap();
                assert_eq!(base_of(&second), base, "the stack freed last is taken first");
                assert!(resume(&mut second));
                second.reap();
                assert!((base + GUARD_BYTES..base + LEN).contains(&local_at));
                assert_guarded_stack_at(base);
            });
        }

        #[test]
        fn an_abandoned_context_returns_its_stack_and_the_next_tenant_runs_on_it() {
            alone("an_abandoned_context_returns_its_stack_and_the_next_tenant_runs_on_it", || {
                let mut left = Context::spawn(|| {
                    let junk = std::hint::black_box([0xAAu8; 8192]);
                    suspend();
                    std::hint::black_box(&junk);
                })
                .unwrap();
                let base = base_of(&left);
                assert!(!resume(&mut left));
                drop(left); // mid-run: its frames stay where they are
                assert!(free_bases().contains(&base));
                let mut sums = Vec::new();
                let mut next = Context::spawn(|| {
                    for round in 1..=3u64 {
                        // Its own locals are what it wrote, whatever lay there.
                        let mine = std::hint::black_box([round; 1024]);
                        suspend();
                        sums.push(mine.iter().sum::<u64>());
                    }
                })
                .unwrap();
                assert_eq!(base_of(&next), base);
                while !resume(&mut next) {}
                next.reap();
                assert_eq!(sums, [1024, 2048, 3072]);
                assert_guarded_stack_at(base);
            });
        }

        #[test]
        fn ten_thousand_worlds_leave_the_mapping_count_where_ten_did() {
            alone("ten_thousand_worlds_leave_the_mapping_count_where_ten_did", || {
                (0..10).for_each(|_| barrier_world(2));
                let (stacks, mapped) = (free_bases(), mapping_count());
                assert_eq!(stacks.len(), 2);
                (10..10_000).for_each(|_| barrier_world(2));
                assert_eq!(free_bases(), stacks, "the same two stacks all along");
                // The allocator may have grown its arena by a mapping or two.
                let now = mapping_count();
                assert!(now <= mapped + 4, "{mapped} mappings after 10 worlds, {now} now");
            });
        }

        #[test]
        fn a_world_wider_than_the_bound_leaves_exactly_the_bound() {
            // On a thread of its own: an empty list before, none after.
            let held = std::thread::spawn(|| {
                barrier_world(POOLED_STACKS + 3);
                free_bases().len()
            });
            assert_eq!(held.join().unwrap(), POOLED_STACKS);
        }

        #[test]
        fn a_thread_that_ran_a_world_and_exited_leaves_no_stack_mapped() {
            alone("a_thread_that_ran_a_world_and_exited_leaves_no_stack_mapped", || {
                let before = mapping_count();
                let ran = std::thread::spawn(|| {
                    barrier_world(64);
                    free_bases()
                });
                let stacks = ran.join().unwrap();
                assert_eq!(stacks.len(), 64);
                for base in stacks {
                    let still = [base, base + GUARD_BYTES].map(mapping_of);
                    assert_eq!(still, [None, None], "stack at {base:#x} outlived its thread");
                }
                // What may stay is the thread's own stack and malloc arena.
                let now = mapping_count();
                assert!(now <= before + 6, "{before} mappings before the thread, {now} after");
            });
        }
    }
}

#[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux", not(miri)))))]
mod parked {
    use std::cell::RefCell;
    use std::io;
    use std::marker::PhantomData;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::thread::{Builder, JoinHandle};

    use super::STACK_BYTES;

    /// The context thread's ends of the two channels: `go` yields once
    /// per resume and fails once the `Context` is dropped; `back` says why
    /// the context stopped running.
    struct Inside {
        go: Receiver<()>,
        back: Sender<Back>,
    }

    /// What a context thread tells the root thread it waits for.
    enum Back {
        Suspended,
        Returned,
        /// Wake this sibling in my place ([`hand_off`]).
        HandOff(usize),
    }

    /// Payload that unwinds a thread whose `Context` was dropped while
    /// it was suspended.
    struct Abandoned;

    thread_local! {
        /// Set on a thread that *is* a context.
        static CURRENT: RefCell<Option<Inside>> = const { RefCell::new(None) };
    }

    /// A closure on a parked OS thread, run by [`Context::resume`].
    pub(crate) struct Context<'a> {
        go: Sender<()>,
        back: Receiver<Back>,
        thread: Option<JoinHandle<()>>,
        done: bool,
        _entry: PhantomData<Box<dyn FnOnce() + Send + 'a>>,
    }

    impl<'a> Context<'a> {
        /// A suspended context that runs `entry` once resumed.
        pub(crate) fn spawn(entry: impl FnOnce() + Send + 'a) -> io::Result<Context<'a>> {
            let (go, go_rx) = channel();
            let (back_tx, back) = channel();
            let body = move || {
                if go_rx.recv().is_err() {
                    return; // dropped before its first resume
                }
                let inside = Inside {
                    go: go_rx,
                    back: back_tx.clone(),
                };
                CURRENT.set(Some(inside));
                match catch_unwind(AssertUnwindSafe(entry)) {
                    // Same contract as the switched primitive: an entry
                    // that unwinds would leave its resumer waiting.
                    Err(payload) if !payload.is::<Abandoned>() => std::process::abort(),
                    _ => drop(back_tx.send(Back::Returned)),
                }
            };
            // SAFETY: the thread borrows for `'a` at most, and `Drop`
            // joins it (unwinding it first if unfinished) before the
            // `Context<'a>` — and so `'a` — can end.
            let thread = unsafe { Builder::new().stack_size(STACK_BYTES).spawn_unchecked(body) }?;
            Ok(Context {
                go,
                back,
                thread: Some(thread),
                done: false,
                _entry: PhantomData,
            })
        }

        /// Free a finished context.
        pub(crate) fn reap(self) {
            assert!(self.done, "reaped an unfinished context");
        }
    }

    impl Drop for Context<'_> {
        fn drop(&mut self) {
            // Hang up: a thread still waiting for a resume unwinds.
            self.go = channel().0;
            if let Some(thread) = self.thread.take() {
                let _ = thread.join();
            }
        }
    }

    /// Run `family[first]`, and whichever siblings the running member
    /// hands off to (relayed here), until one suspends or returns: which
    /// one, and `true` if its entry has returned.
    pub(crate) fn resume_in(family: &mut [Context<'_>], first: usize) -> (usize, bool) {
        let mut member = first;
        loop {
            let ctx = &mut family[member];
            assert!(!ctx.done, "resumed a finished context");
            // Neither end can be gone: the thread outlives its entry.
            let _ = ctx.go.send(());
            match ctx.back.recv().unwrap_or(Back::Returned) {
                Back::HandOff(to) => member = to,
                Back::Suspended => return (member, false),
                Back::Returned => {
                    ctx.done = true;
                    return (member, true);
                }
            }
        }
    }

    /// Stop running and say `why`; returns when next resumed or handed to.
    fn switch_away(why: Back) {
        assert!(!std::thread::panicking(), "a context must not switch away while unwinding");
        CURRENT.with_borrow(|inside| {
            let Some(inside) = inside else {
                panic!("called outside any context");
            };
            let _ = inside.back.send(why);
            if inside.go.recv().is_err() {
                resume_unwind(Box::new(Abandoned));
            }
        });
    }

    /// Hand control back to the root of this thread's context's family.
    pub(crate) fn suspend() {
        switch_away(Back::Suspended);
    }

    /// As [`suspend`], but sibling `to` runs next and the root stays put.
    pub(crate) fn hand_off(to: usize) {
        switch_away(Back::HandOff(to));
    }
}

#[cfg(test)]
mod tests {
    /// The same suite over each primitive this target has.
    macro_rules! context_suite {
        ($name:ident, $imp:ident) => {
            mod $name {
                use super::super::$imp::{hand_off, resume_in, suspend, Context};
                use crate::lock::Mutex;
                use std::sync::atomic::{AtomicUsize, Ordering};

                /// A family of one: `true` once the entry has returned.
                trait Alone {
                    fn resume(&mut self) -> bool;
                }

                impl Alone for Context<'_> {
                    fn resume(&mut self) -> bool {
                        resume_in(std::slice::from_mut(self), 0).1
                    }
                }

                #[test]
                fn ping_pong_alternates_in_order() {
                    let log = Mutex::new(Vec::new());
                    let mut ctx = Context::spawn(|| {
                        for i in 0..3 {
                            log.lock().push(format!("ctx {i}"));
                            suspend();
                        }
                        log.lock().push("ctx end".into());
                    })
                    .unwrap();
                    for i in 0..3 {
                        log.lock().push(format!("root {i}"));
                        assert!(!ctx.resume());
                    }
                    assert!(ctx.resume(), "entry returned on the fourth resume");
                    ctx.reap();
                    assert_eq!(
                        *log.lock(),
                        ["root 0", "ctx 0", "root 1", "ctx 1", "root 2", "ctx 2", "ctx end"]
                    );
                }

                #[test]
                fn contexts_interleave_and_nest() {
                    // Two contexts round-robin; each runs an inner
                    // context to completion between its own suspends.
                    let order = Mutex::new(Vec::new());
                    let body = |id: usize| {
                        let order = &order;
                        move || {
                            for step in 0..2 {
                                let mut inner = Context::spawn(|| {
                                    order.lock().push((id, step, "inner"));
                                    suspend();
                                })
                                .unwrap();
                                assert!(!inner.resume());
                                assert!(inner.resume());
                                inner.reap();
                                order.lock().push((id, step, "outer"));
                                suspend();
                            }
                        }
                    };
                    let mut ctxs = [
                        Context::spawn(body(0)).unwrap(),
                        Context::spawn(body(1)).unwrap(),
                    ];
                    for _ in 0..2 {
                        for c in &mut ctxs {
                            assert!(!c.resume());
                        }
                    }
                    for c in &mut ctxs {
                        assert!(c.resume());
                    }
                    let want: Vec<_> = (0..2)
                        .flat_map(|step| {
                            (0..2).flat_map(move |id| [(id, step, "inner"), (id, step, "outer")])
                        })
                        .collect();
                    assert_eq!(*order.lock(), want);
                }

                #[test]
                fn three_siblings_pass_control_round_robin_without_the_root() {
                    let root_turns = AtomicUsize::new(0);
                    let log = Mutex::new(Vec::new());
                    let body = |id: usize| {
                        let (root_turns, log) = (&root_turns, &log);
                        move || {
                            for round in 0..3 {
                                log.lock().push((id, round, root_turns.load(Ordering::Acquire)));
                                hand_off((id + 1) % 3);
                            }
                        }
                    };
                    let mut family = [0, 1, 2].map(|id| Context::spawn(body(id)).unwrap());
                    // Nine hand-offs later member 0 falls off its loop; the
                    // other two still sit in their last hand-off.
                    for (turn, want) in [(0, true), (1, true), (2, true)].into_iter().enumerate() {
                        assert_eq!(resume_in(&mut family, turn), want);
                        root_turns.fetch_add(1, Ordering::AcqRel);
                    }
                    family.into_iter().for_each(Context::reap);
                    let want: Vec<_> = (0..3).flat_map(|round| (0..3).map(move |id| (id, round, 0))).collect();
                    assert_eq!(*log.lock(), want, "the root ran between two hand-offs");
                }

                #[test]
                fn hand_off_starts_a_context_that_never_ran() {
                    let log = Mutex::new(Vec::new());
                    let mut family = [
                        Context::spawn(|| {
                            log.lock().push("a hands off");
                            hand_off(1);
                            log.lock().push("a again");
                        })
                        .unwrap(),
                        Context::spawn(|| {
                            log.lock().push("b starts");
                            suspend();
                            log.lock().push("b ends");
                        })
                        .unwrap(),
                    ];
                    assert_eq!(resume_in(&mut family, 0), (1, false), "b suspended to a's resumer");
                    assert_eq!(resume_in(&mut family, 0), (0, true));
                    assert_eq!(resume_in(&mut family, 1), (1, true));
                    family.into_iter().for_each(Context::reap);
                    assert_eq!(*log.lock(), ["a hands off", "b starts", "a again", "b ends"]);
                }

                #[test]
                fn a_context_that_returns_after_a_hand_off_lands_in_the_root_which_learns_who() {
                    let mut family = [
                        Context::spawn(|| hand_off(2)).unwrap(),
                        Context::spawn(|| unreachable!("nobody names member 1")).unwrap(),
                        Context::spawn(|| ()).unwrap(),
                    ];
                    assert_eq!(resume_in(&mut family, 0), (2, true), "2 came back, not 0");
                    assert_eq!(resume_in(&mut family, 0), (0, true));
                    let [a, never_ran, c] = family;
                    a.reap();
                    c.reap();
                    drop(never_ran);
                }

                #[test]
                fn a_family_launched_from_inside_a_handed_to_context_is_its_own() {
                    let log = Mutex::new(Vec::new());
                    let inner = |id: usize| {
                        let log = &log;
                        move || {
                            log.lock().push(("inner", id));
                            if id == 0 {
                                hand_off(1); // the inner family's member 1
                            }
                        }
                    };
                    let mut family = [
                        Context::spawn(|| {
                            hand_off(1);
                            log.lock().push(("outer", 0));
                        })
                        .unwrap(),
                        Context::spawn(|| {
                            let mut nested = [0, 1].map(|id| Context::spawn(inner(id)).unwrap());
                            assert_eq!(resume_in(&mut nested, 0), (1, true));
                            assert_eq!(resume_in(&mut nested, 0), (0, true));
                            nested.into_iter().for_each(Context::reap);
                            log.lock().push(("outer", 1));
                            hand_off(0); // the outer family's again
                        })
                        .unwrap(),
                    ];
                    assert_eq!(resume_in(&mut family, 0), (0, true));
                    assert_eq!(resume_in(&mut family, 1), (1, true));
                    family.into_iter().for_each(Context::reap);
                    assert_eq!(*log.lock(), [("inner", 0), ("inner", 1), ("outer", 1), ("outer", 0)]);
                }

                #[test]
                fn a_caught_panic_does_not_leak_into_the_next_context() {
                    let mut first = Context::spawn(|| {
                        let caught = std::panic::catch_unwind(|| panic!("inside a context"));
                        assert!(caught.is_err());
                        suspend();
                    })
                    .unwrap();
                    let mut second = Context::spawn(|| {
                        assert!(!std::thread::panicking());
                        let caught = std::panic::catch_unwind(|| panic!("and in the next"));
                        assert!(caught.is_err());
                    })
                    .unwrap();
                    assert!(!first.resume());
                    assert!(second.resume());
                    assert!(first.resume());
                    first.reap();
                    second.reap();
                }

                #[test]
                fn an_unstarted_context_drops_its_closure() {
                    struct Bump<'a>(&'a AtomicUsize);
                    impl Drop for Bump<'_> {
                        fn drop(&mut self) {
                            self.0.fetch_add(1, Ordering::AcqRel);
                        }
                    }
                    let drops = AtomicUsize::new(0);
                    let guard = Bump(&drops);
                    let ctx = Context::spawn(move || drop(guard)).unwrap();
                    assert_eq!(drops.load(Ordering::Acquire), 0);
                    drop(ctx);
                    assert_eq!(drops.load(Ordering::Acquire), 1);
                }

                #[test]
                fn deep_recursion_fits_the_stack() {
                    fn depth(n: u32) -> u32 {
                        let pad = std::hint::black_box([n; 64]);
                        if n == 0 {
                            pad[0]
                        } else {
                            depth(n - 1) + std::hint::black_box(pad[63]).min(1)
                        }
                    }
                    let mut got = 0;
                    let mut ctx = Context::spawn(|| got = depth(1_000)).unwrap();
                    assert!(ctx.resume());
                    ctx.reap();
                    assert_eq!(got, 1_000);
                }
            }
        };
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
    context_suite!(switched, switched);
    context_suite!(parked, parked);
}
