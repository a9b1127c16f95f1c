//! Timers on virtual time: [`sleep`], [`sleep_until`], [`timeout`].

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Duration;

use crate::executor::{now, with_current};
use crate::time::SimTime;

/// Future returned by [`sleep`] / [`sleep_until`].
pub struct Sleep {
    deadline: SimTime,
    registered: bool,
}

impl Sleep {
    /// The instant at which this sleep completes.
    pub fn deadline(&self) -> SimTime {
        self.deadline
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        with_current(|handle| {
            if self.registered {
                // Even an already-expired sleep yields to the scheduler once:
                // a zero-duration sleep is the deterministic yield point, and
                // every other task ready at this instant runs before we
                // resume. The wheel entry armed on the first poll targets the
                // owning task and fires exactly at the (clamped) deadline, so
                // re-polls before then (spurious wakes, race siblings) arm
                // nothing — the old executor pushed a duplicate heap entry
                // per re-poll, whose only effect was a deduped no-op wake,
                // and whose cost compounded exponentially under `join_all`.
                return if handle.now() >= self.deadline {
                    Poll::Ready(())
                } else {
                    Poll::Pending
                };
            }
            handle.register_timer(self.deadline);
            self.registered = true;
            Poll::Pending
        })
    }
}

/// Sleeps for `d` of virtual time. A zero-duration sleep still yields to the
/// scheduler once, making it a deterministic yield point.
pub fn sleep(d: Duration) -> Sleep {
    let deadline = now() + d;
    Sleep {
        deadline,
        registered: false,
    }
}

/// Sleeps until the given instant (completing immediately if it has passed).
pub fn sleep_until(deadline: SimTime) -> Sleep {
    Sleep {
        deadline,
        registered: false,
    }
}

/// Error returned by [`timeout`] when the inner future did not complete in
/// time.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Elapsed;

impl std::fmt::Display for Elapsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadline elapsed")
    }
}
impl std::error::Error for Elapsed {}

/// Awaits `fut` for at most `d` of virtual time. On timeout the inner future
/// is dropped (cancelling whatever it owned) and `Err(Elapsed)` is returned.
///
/// The deadline is `now() + d` at the moment `timeout` is *called* (not
/// first polled), matching the historical eager-`sleep` construction.
pub fn timeout<F: Future>(d: Duration, fut: F) -> impl Future<Output = Result<F::Output, Elapsed>> {
    timeout_at(now() + d, fut)
}

/// Awaits `fut` until the given instant; see [`timeout`].
///
/// The inner future is pinned on the stack of this combinator's own
/// state machine — no heap allocation per call. The inner future is
/// polled before the deadline on every wake, so an exact tie resolves
/// to the inner result.
pub async fn timeout_at<F: Future>(deadline: SimTime, fut: F) -> Result<F::Output, Elapsed> {
    let mut fut = std::pin::pin!(fut);
    let mut sleep = sleep_until(deadline);
    std::future::poll_fn(move |cx| {
        if let Poll::Ready(v) = fut.as_mut().poll(cx) {
            return Poll::Ready(Ok(v));
        }
        match Pin::new(&mut sleep).poll(cx) {
            Poll::Ready(()) => Poll::Ready(Err(Elapsed)),
            Poll::Pending => Poll::Pending,
        }
    })
    .await
}

/// Yields to the scheduler once, letting every other ready task run before
/// this one resumes (at the same virtual instant).
pub async fn yield_now() {
    struct YieldNow(bool);
    impl Future for YieldNow {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.0 {
                Poll::Ready(())
            } else {
                self.0 = true;
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
    }
    YieldNow(false).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{spawn, Sim};

    #[test]
    fn sleep_zero_yields_once() {
        let mut sim = Sim::new(1);
        let order = sim.block_on(async {
            let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let l = log.clone();
            let h = spawn(async move {
                l.borrow_mut().push("spawned");
            });
            log.borrow_mut().push("before-yield");
            sleep(Duration::ZERO).await;
            log.borrow_mut().push("after-yield");
            h.await.unwrap();
            let entries = log.borrow().clone();
            entries
        });
        assert_eq!(order, vec!["before-yield", "spawned", "after-yield"]);
    }

    #[test]
    fn timeout_expires() {
        let mut sim = Sim::new(1);
        let r = sim.block_on(async {
            timeout(Duration::from_millis(50), sleep(Duration::from_millis(100))).await
        });
        assert_eq!(r, Err(Elapsed));
        assert_eq!(sim.now(), SimTime::from_millis(50));
    }

    #[test]
    fn timeout_passes_through() {
        let mut sim = Sim::new(1);
        let r = sim.block_on(async {
            timeout(Duration::from_millis(100), async {
                sleep(Duration::from_millis(10)).await;
                5
            })
            .await
        });
        assert_eq!(r, Ok(5));
        assert_eq!(sim.now(), SimTime::from_millis(10));
    }

    #[test]
    fn timeout_at_absolute_deadline() {
        let mut sim = Sim::new(1);
        let r = sim.block_on(async {
            sleep(Duration::from_millis(30)).await;
            timeout_at(SimTime::from_millis(40), sleep(Duration::from_secs(1))).await
        });
        assert_eq!(r, Err(Elapsed));
        assert_eq!(sim.now(), SimTime::from_millis(40));
    }

    #[test]
    fn sleep_until_past_instant_is_immediate() {
        let mut sim = Sim::new(1);
        sim.block_on(async {
            sleep(Duration::from_millis(10)).await;
            let before = now();
            sleep_until(SimTime::from_millis(5)).await;
            assert_eq!(now(), before);
        });
    }

    #[test]
    fn nested_timeouts() {
        let mut sim = Sim::new(1);
        let r = sim.block_on(async {
            timeout(Duration::from_millis(200), async {
                timeout(Duration::from_millis(50), sleep(Duration::from_millis(500))).await
            })
            .await
        });
        assert_eq!(r, Ok(Err(Elapsed)));
        assert_eq!(sim.now(), SimTime::from_millis(50));
    }

    #[test]
    fn yield_now_is_same_instant() {
        let mut sim = Sim::new(1);
        sim.block_on(async {
            let t0 = now();
            yield_now().await;
            assert_eq!(now(), t0);
        });
    }
}
