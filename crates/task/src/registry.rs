//! The task registry: function ids → handlers.
//!
//! Every PE holds an identical registry (built before the pool runs), so a
//! task descriptor stolen from any peer can be executed locally — the
//! "portable task descriptor" of paper §2.1. The registry is generic over
//! the execution context `C`; the scheduler instantiates `C` with its
//! worker handle so handlers can spawn subtasks and charge compute time.

use crate::descriptor::TaskDescriptor;

type Handler<C> = Box<dyn Fn(&mut C, &[u8]) + Send + Sync>;

/// Maps function ids to task handlers.
pub struct TaskRegistry<C> {
    handlers: Vec<Option<Handler<C>>>,
}

impl<C> TaskRegistry<C> {
    /// An empty registry.
    pub fn new() -> TaskRegistry<C> {
        TaskRegistry {
            handlers: Vec::new(),
        }
    }

    /// Register `handler` under `fn_id`.
    ///
    /// # Panics
    /// Panics if `fn_id` is already taken — a double registration is a
    /// program bug that would make execution PE-dependent.
    pub fn register<F>(&mut self, fn_id: u16, handler: F)
    where
        F: Fn(&mut C, &[u8]) + Send + Sync + 'static,
    {
        let idx = fn_id as usize;
        if idx >= self.handlers.len() {
            self.handlers.resize_with(idx + 1, || None);
        }
        assert!(
            self.handlers[idx].is_none(),
            "task function id {fn_id} registered twice"
        );
        self.handlers[idx] = Some(Box::new(handler));
    }

    /// Number of registered handlers.
    pub fn len(&self) -> usize {
        self.handlers.iter().filter(|h| h.is_some()).count()
    }

    /// Whether no handlers are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Execute `task` against `ctx`.
    ///
    /// # Panics
    /// Panics if the task names an unregistered function id (a corrupt or
    /// foreign record).
    pub fn execute(&self, ctx: &mut C, task: &TaskDescriptor) {
        self.dispatch(ctx, task.fn_id(), task.payload());
    }

    /// [`TaskRegistry::execute`] on a task's parts — the form the
    /// scheduler uses on a decoded record.
    pub fn dispatch(&self, ctx: &mut C, fn_id: u16, payload: &[u8]) {
        let h = self
            .handlers
            .get(fn_id as usize)
            .and_then(|h| h.as_ref())
            .unwrap_or_else(|| panic!("no handler registered for task fn_id {fn_id}"));
        h(ctx, payload);
    }
}

impl<C> Default for TaskRegistry<C> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatches_to_the_right_handler() {
        let mut reg: TaskRegistry<Vec<u32>> = TaskRegistry::new();
        reg.register(0, |log, p| log.push(1000 + p[0] as u32));
        reg.register(5, |log, p| log.push(5000 + p[0] as u32));
        assert_eq!(reg.len(), 2);

        let mut log = Vec::new();
        reg.execute(&mut log, &TaskDescriptor::new(5, &[7]));
        reg.execute(&mut log, &TaskDescriptor::new(0, &[2]));
        assert_eq!(log, vec![5007, 1002]);
    }

    #[test]
    fn handlers_can_recurse_through_context() {
        // A handler that "spawns" by pushing descriptors into the context.
        struct Ctx {
            pending: Vec<TaskDescriptor>,
            executed: usize,
        }
        let mut reg: TaskRegistry<Ctx> = TaskRegistry::new();
        reg.register(1, |ctx, p| {
            ctx.executed += 1;
            let n = p[0];
            if n > 0 {
                ctx.pending.push(TaskDescriptor::new(1, &[n - 1]));
            }
        });
        let mut ctx = Ctx {
            pending: vec![TaskDescriptor::new(1, &[4])],
            executed: 0,
        };
        while let Some(t) = ctx.pending.pop() {
            reg.execute(&mut ctx, &t);
        }
        assert_eq!(ctx.executed, 5);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_registration_rejected() {
        let mut reg: TaskRegistry<()> = TaskRegistry::new();
        reg.register(3, |_, _| {});
        reg.register(3, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "no handler registered")]
    fn unknown_fn_id_rejected() {
        let reg: TaskRegistry<()> = TaskRegistry::new();
        reg.execute(&mut (), &TaskDescriptor::new(9, &[]));
    }

    #[test]
    fn empty_registry_reports_empty() {
        let reg: TaskRegistry<()> = TaskRegistry::new();
        assert!(reg.is_empty());
        assert_eq!(reg.len(), 0);
    }
}
