//! Typed message endpoints over the event queue.
//!
//! Components of the simulated machine do not call into each other
//! directly; they hand messages to a [`Port`], which stamps the message
//! into the shared calendar [`EventQueue`](crate::EventQueue) at the
//! requested cycle. A port is a *pure wrapper*: it injects exactly one
//! event per send, at exactly the requested time, so two models that
//! differ only in whether they go through ports are cycle-identical —
//! including the FIFO tie-break among events scheduled for the same
//! cycle, which follows the order of `send` calls.

use crate::{Cycle, EventQueue};

/// A typed endpoint that delivers messages of type `M` as events of the
/// queue's type `E`.
///
/// The wrapping function is a plain `fn` pointer so ports are `Copy`,
/// const-constructible, and free of per-send allocation; a port is one
/// static description of "how an `M` enters the event system".
///
/// # Example
///
/// ```
/// use ccn_sim::{EventQueue, Port};
///
/// #[derive(Debug, PartialEq)]
/// enum Event {
///     Tick(u32),
/// }
///
/// const TICKS: Port<u32, Event> = Port::new("clock.tick", Event::Tick);
///
/// let mut queue = EventQueue::new();
/// TICKS.send(&mut queue, 5, 42);
/// assert_eq!(queue.pop(), Some((5, Event::Tick(42))));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Port<M, E> {
    name: &'static str,
    wrap: fn(M) -> E,
}

impl<M, E> Port<M, E> {
    /// Creates a port that wraps messages with `wrap`.
    pub const fn new(name: &'static str, wrap: fn(M) -> E) -> Self {
        Port { name, wrap }
    }

    /// The port's diagnostic name (e.g. `"node.cc.work"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Delivers `message` at cycle `at` by scheduling its wrapped event
    /// into `queue`.
    #[inline]
    pub fn send(&self, queue: &mut EventQueue<E>, at: Cycle, message: M) {
        queue.schedule(at, (self.wrap)(message));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Eq)]
    enum Ev {
        A(u64),
        B(u64),
    }

    const A: Port<u64, Ev> = Port::new("a", Ev::A);
    const B: Port<u64, Ev> = Port::new("b", Ev::B);

    #[test]
    fn sends_preserve_fifo_order_at_equal_times() {
        let mut q = EventQueue::new();
        A.send(&mut q, 10, 1);
        B.send(&mut q, 10, 2);
        A.send(&mut q, 10, 3);
        assert_eq!(q.pop(), Some((10, Ev::A(1))));
        assert_eq!(q.pop(), Some((10, Ev::B(2))));
        assert_eq!(q.pop(), Some((10, Ev::A(3))));
    }

    #[test]
    fn port_is_copy_and_named() {
        let a2 = A;
        assert_eq!(a2.name(), "a");
        let mut q = EventQueue::new();
        a2.send(&mut q, 0, 7);
        assert_eq!(q.len(), 1);
    }
}
