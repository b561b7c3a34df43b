//! Stackful contexts: the switch primitive under the serial executor.
//!
//! A [`Context`] is a closure with a stack of its own. [`Context::resume`]
//! runs it *on the calling thread* until it calls [`suspend`] or returns;
//! `suspend` hands control back to whoever resumed it. That is all the
//! root loop needs to run every PE of a world on one OS thread, in virtual
//! time or under an explored schedule (see [`crate::vclock`]), and it nests: a context may itself
//! resume others, so a world launched from inside a PE of another world
//! just works. There is no global state beyond a thread-local "innermost
//! running context", so worlds on different OS threads never meet.
//!
//! Two primitives sit behind the one four-function API
//! (`spawn`/`resume`/`suspend`/`reap`), selected by target:
//!
//! * `switched` (x86-64 Linux): a user-space stack switch — six
//!   callee-saved registers and the stack pointer, ≈10 ns — onto a 2 MiB
//!   anonymous mapping with a `PROT_NONE` guard page below it, so an
//!   overflow faults instead of scribbling over a neighbour.
//! * `parked` (every other target, and Miri): one OS thread per context,
//!   woken and answered over a pair of channels. Slow, but the same
//!   semantics, so the scheduler above cannot tell which one it runs on.
//!
//! Contract, both primitives: the entry closure must not unwind (a leak
//! aborts the process); a context must not suspend while its thread is
//! panicking (asserted — the panic count is per OS thread, so the next
//! context's first panic would be taken for a double panic). Dropping a
//! started, unfinished context abandons its frames (`switched`) or
//! unwinds them (`parked`); the scheduler never does.

/// Stack bytes per context: what `std::thread` gave each PE before.
const STACK_BYTES: usize = 2 << 20;

#[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
pub(crate) use switched::{suspend, Context};

#[cfg(not(all(target_arch = "x86_64", target_os = "linux", not(miri))))]
pub(crate) use parked::{suspend, Context};

#[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
mod switched {
    use std::cell::Cell;
    use std::ffi::c_void;
    use std::io;
    use std::ptr;

    use super::STACK_BYTES;

    /// The inaccessible page below each stack (x86-64 Linux base page).
    const GUARD_BYTES: usize = 4096;

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

    thread_local! {
        /// The innermost context running on this thread (null outside
        /// any). `resume` sets it for the duration of the switch, so it
        /// always points into a `Context` that is mutably borrowed.
        static CURRENT: Cell<*const Switch<'static>> = const { Cell::new(ptr::null()) };
    }

    /// A closure with its own stack, run by [`Context::resume`].
    pub(crate) struct Context<'a> {
        switch: Switch<'a>,
        /// Base of the mapping (guard page first).
        map: *mut c_void,
    }

    /// What a fresh context's first switch returns into (via
    /// `sws_context_entry`): run the closure, mark the context done,
    /// leave for good. `extern "C"`, so a panic escaping `entry` aborts.
    extern "C" fn trampoline() -> ! {
        // SAFETY: this code only ever runs inside `Context::resume`,
        // which points CURRENT at its own live, borrowed `Switch`; the
        // `'static` is a lie that ends before that borrow does.
        let switch = unsafe { &*CURRENT.get() };
        if let Some(entry) = switch.entry.take() {
            entry();
        }
        switch.done.set(true);
        // SAFETY: `sp` holds the resumer's stack pointer, saved by the
        // switch that brought us here; the resumer is blocked in that
        // call and this stack is never switched to again.
        unsafe { sws_context_switch(switch.sp.as_ptr(), switch.sp.get()) };
        unreachable!("a finished context was resumed");
    }

    impl<'a> Context<'a> {
        /// A suspended context that runs `entry` once resumed. Fails when
        /// the kernel refuses the stack mapping (address space, or two
        /// mappings per context against `vm.max_map_count`).
        pub(crate) fn spawn(entry: impl FnOnce() + Send + 'a) -> io::Result<Context<'a>> {
            let len = GUARD_BYTES + STACK_BYTES;
            // SAFETY: a fresh anonymous private mapping at an address of
            // the kernel's choosing aliases nothing.
            let map = unsafe { mmap(ptr::null_mut(), len, PROT_READ_WRITE, MAP_FLAGS, -1, 0) };
            if map as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            // From here on `Drop` unmaps.
            let mut ctx = Context {
                switch: Switch {
                    sp: Cell::new(0),
                    entry: Cell::new(Some(Box::new(entry))),
                    done: Cell::new(false),
                },
                map,
            };
            // SAFETY: the first page of the mapping made just above.
            if unsafe { mprotect(map, GUARD_BYTES, PROT_NONE) } != 0 {
                return Err(io::Error::last_os_error());
            }
            // The frame `sws_context_switch` pops on the first resume:
            // r15, r14, r13 (what the entry stub calls), r12, rbx, rbp,
            // the return address, then a zero where a caller's return
            // address would be. The top is page-aligned, so after the
            // `ret` rsp is 16-byte aligned, as at any call site.
            let stub = sws_context_entry as *const () as usize;
            let frame = [0, 0, trampoline as *const () as usize, 0, 0, 0, stub, 0, 0];
            let sp = map as usize + len - std::mem::size_of_val(&frame);
            // SAFETY: `sp..top` lies inside the read-write part of the
            // mapping, is 8-byte aligned, and nothing else refers to it.
            unsafe { ptr::write(sp as *mut [usize; 9], frame) };
            *ctx.switch.sp.get_mut() = sp;
            Ok(ctx)
        }

        /// Run the context on this thread until it suspends or its entry
        /// returns; `true` once it has returned.
        pub(crate) fn resume(&mut self) -> bool {
            assert!(!self.switch.done.get(), "resumed a finished context");
            let outer = CURRENT.replace(ptr::from_ref(&self.switch).cast());
            // SAFETY: `sp` is the initial frame built by `spawn` or the
            // stack pointer the context's last `suspend` saved; either
            // way a live frame `sws_context_switch` can pop, on a stack
            // this `Context` owns and that is running nowhere else (it
            // is not `Send`, and `&mut self` excludes a second resume).
            unsafe { sws_context_switch(self.switch.sp.as_ptr(), self.switch.sp.get()) };
            CURRENT.set(outer);
            self.switch.done.get()
        }

        /// Free a finished context.
        pub(crate) fn reap(self) {
            assert!(self.switch.done.get(), "reaped an unfinished context");
        }
    }

    impl Drop for Context<'_> {
        fn drop(&mut self) {
            // SAFETY: the mapping `spawn` made, whole; the context is
            // not running (`&mut self`), so nothing executes on it.
            unsafe { munmap(self.map, GUARD_BYTES + STACK_BYTES) };
        }
    }

    /// Hand control back to the resumer of the innermost running
    /// context; returns when that context is next resumed.
    pub(crate) fn suspend() {
        assert!(
            !std::thread::panicking(),
            "a context must not suspend while unwinding"
        );
        let switch = CURRENT.get();
        assert!(!switch.is_null(), "suspend called outside any context");
        // SAFETY: non-null CURRENT points at the `Switch` of the
        // `Context` whose `resume` is blocked below us on this thread.
        let switch = unsafe { &*switch };
        // SAFETY: `sp` holds the stack pointer that `resume` saved when
        // it switched here; its frame is live until we switch back.
        unsafe { sws_context_switch(switch.sp.as_ptr(), switch.sp.get()) };
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
    /// per resume and fails once the `Context` is dropped; `back` hands
    /// control back — `true` when the entry has returned.
    struct Inside {
        go: Receiver<()>,
        back: Sender<bool>,
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
        back: Receiver<bool>,
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
                    _ => drop(back_tx.send(true)),
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

        /// Run the context until it suspends or its entry returns;
        /// `true` once it has returned.
        pub(crate) fn resume(&mut self) -> bool {
            assert!(!self.done, "resumed a finished context");
            // Neither end can be gone: the thread outlives its entry.
            let _ = self.go.send(());
            self.done = self.back.recv().unwrap_or(true);
            self.done
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

    /// Hand control back to the resumer of the context this thread is;
    /// returns when it is next resumed.
    pub(crate) fn suspend() {
        assert!(
            !std::thread::panicking(),
            "a context must not suspend while unwinding"
        );
        CURRENT.with_borrow(|inside| {
            let Some(inside) = inside else {
                panic!("suspend called outside any context");
            };
            let _ = inside.back.send(false);
            if inside.go.recv().is_err() {
                resume_unwind(Box::new(Abandoned));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    /// The same suite over each primitive this target has.
    macro_rules! context_suite {
        ($name:ident, $imp:ident) => {
            mod $name {
                use super::super::$imp::{suspend, Context};
                use crate::lock::Mutex;
                use std::sync::atomic::{AtomicUsize, Ordering};

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
