//! Stopping a job at its next round: a deadline and a cancel token,
//! checked on the thread that runs the job.
//!
//! The solvers advance in synchronous rounds, and every round loop counts
//! its rounds through [`crate::counters::Counters::add_rounds`]. That call
//! is where a job stops: [`run_stoppable`] installs a stop for the calling
//! thread, [`check`] (called from `add_rounds` and from the edge-list
//! reader's chunk flush) unwinds with a typed payload once the deadline has
//! passed or the token has fired, and [`run_stoppable`] catches that payload
//! and reports why the job stopped. One raise site, one catch site.
//!
//! The stop belongs to the job's own thread. Pool workers never see it, so
//! they never raise; when the job's thread raises inside a piece it runs
//! itself, the pool re-throws the payload on that same thread once the
//! other pieces have drained. Outside a runner, [`check`] does nothing.

use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cancellation flag shared between whoever runs a job and whoever may
/// abort it. Cancelling stops the job at its next round check (see the
/// module docs); nothing the job computed is committed.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trip the token. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Why [`run_stoppable`] did not return its closure's value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stopped {
    /// The deadline passed.
    TimedOut,
    /// The cancel token fired.
    Cancelled,
    /// The job panicked: `solver panicked: ` and the panic message.
    Failed(String),
}

/// The stop installed on one thread.
struct Stop {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
}

impl Stop {
    /// Why the job should stop now, if it should.
    fn due(&self) -> Option<Stopped> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            Some(Stopped::Cancelled)
        } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(Stopped::TimedOut)
        } else {
            None
        }
    }
}

/// The unwind payload [`check`] raises. Private, so no other panic can be
/// mistaken for a stop.
struct Halt(Stopped);

thread_local! {
    static CURRENT: RefCell<Option<Stop>> = const { RefCell::new(None) };
}

/// Stop the calling job here if its deadline has passed or its token has
/// fired. Does nothing outside [`run_stoppable`], and so nothing on pool
/// workers.
///
/// The unwind goes through [`resume_unwind`], which skips the panic hook,
/// so a stop prints nothing.
#[inline]
pub fn check() {
    if let Some(why) = CURRENT.with(|c| c.borrow().as_ref().and_then(Stop::due)) {
        resume_unwind(Box::new(Halt(why)));
    }
}

/// Run `f` on the calling thread under a stop: `deadline` and `cancel`
/// are checked once before `f` starts and then at every [`check`] inside
/// it. Returns `f`'s value, or why it stopped. Any other panic in `f` is
/// caught and returned as [`Stopped::Failed`].
pub fn run_stoppable<R>(
    deadline: Option<Instant>,
    cancel: Option<&CancelToken>,
    f: impl FnOnce() -> R,
) -> Result<R, Stopped> {
    let stop = Stop {
        deadline,
        cancel: cancel.cloned(),
    };
    if let Some(why) = stop.due() {
        return Err(why);
    }
    /// Puts back the enclosing runner's stop, on return and on unwind.
    struct Restore(Option<Stop>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(CURRENT.with(|c| c.replace(Some(stop))));
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| match payload.downcast::<Halt>() {
        Ok(halt) => halt.0,
        Err(payload) => Stopped::Failed(format!("solver panicked: {}", panic_message(&*payload))),
    })
}

/// The text of a panic payload (`panic!` with a literal or a format).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;
    use std::time::Duration;

    #[test]
    fn check_outside_a_runner_is_a_no_op() {
        check();
        Counters::new().add_rounds(1);
    }

    #[test]
    fn expired_deadline_or_fired_token_stops_before_any_work() {
        let ran = std::cell::Cell::new(false);
        let now = Some(Instant::now());
        assert_eq!(
            run_stoppable(now, None, || ran.set(true)),
            Err(Stopped::TimedOut)
        );
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            run_stoppable(None, Some(&token), || ran.set(true)),
            Err(Stopped::Cancelled)
        );
        assert!(!ran.get());
    }

    #[test]
    fn a_round_check_stops_the_job_and_the_outer_stop_comes_back() {
        let (outer, inner) = (CancelToken::new(), CancelToken::new());
        let c = Counters::new();
        let stopped = run_stoppable(None, Some(&outer), || {
            let r = run_stoppable(None, Some(&inner), || {
                c.add_rounds(1);
                inner.cancel();
                c.add_rounds(1);
                unreachable!("the second round must not start");
            });
            assert_eq!(r, Err(Stopped::Cancelled));
            c.add_rounds(1);
            outer.cancel();
            c.add_rounds(1);
            unreachable!("the outer stop must be back");
        });
        assert_eq!(stopped, Err(Stopped::Cancelled));
        assert_eq!(c.rounds(), 2, "a stopped round is not counted");
        // No runner is left: checks on this thread are inert again.
        c.add_rounds(1);
        let late = Some(Instant::now() + Duration::from_millis(20));
        let timed_out = run_stoppable(late, None, || loop {
            c.add_rounds(1);
            std::thread::sleep(Duration::from_millis(1));
        });
        assert_eq!(timed_out, Err(Stopped::TimedOut));
    }

    #[test]
    fn other_panics_are_reported_with_their_message() {
        let r: Result<(), _> = run_stoppable(None, None, || panic!("boom {}", 7));
        assert_eq!(r, Err(Stopped::Failed("solver panicked: boom 7".into())));
        assert_eq!(run_stoppable(None, None, || 5), Ok(5));
    }

    #[test]
    fn a_stop_raised_inside_a_pool_piece_reaches_the_runner() {
        use rayon::prelude::*;
        // Pieces on the pool worker count their rounds; the first piece
        // the job's own thread runs raises, and the pool re-throws that
        // typed payload on it.
        let token = CancelToken::new();
        let c = Counters::new();
        let r = crate::exec::with_threads(2, || {
            run_stoppable(None, Some(&token), || {
                token.cancel();
                (0..1u64 << 16)
                    .into_par_iter()
                    .for_each(|_| c.add_rounds(1));
            })
        });
        assert_eq!(r, Err(Stopped::Cancelled));
    }
}
