//! Flat combining (Hendler, Incze, Shavit, Tzafrir, SPAA 2010): the one
//! leader/follower mechanism of the workspace. The version manager's
//! grant queue and the record log's group commit are its two clients.
//!
//! # One policy
//!
//! * **A round.** The first caller of [`Combiner::submit`] to find the
//!   combiner idle *leads*. It lingers for the combiner's `linger`, so
//!   concurrent callers can join, takes every request queued meanwhile
//!   and calls its own `serve` once on the [`Round`]: its own request
//!   first, the followers' after it in queue order. `serve` returns one
//!   output per request, in the same shape.
//! * **Bounded work.** After its round the leader hands each follower
//!   its output, then hands the lead to the oldest caller still queued,
//!   or, under the queue lock, leaves the combiner idle once nobody is.
//!   A caller therefore serves at most one round, the one holding its
//!   own request, and no queued caller is stranded.
//! * **Woken once.** A parked caller is woken only for its own output,
//!   or to lead the next round (whose first request is its own).
//!
//! The uncontended path takes no slot and allocates nothing: a leader
//! of one parks nowhere, and a fresh combiner is an empty queue.
//!
//! The queue mutex and each parked caller's slot are combining
//! plumbing: held for a push, a take or a fill, never across `serve`.
//! Like the record log's commit mutex they are outside the lockmeter;
//! a client charges the work its `serve` does (the version manager
//! charges one `VersionAssign` acquisition per round).

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// One round's requests, or their outputs: the leader's own first,
/// then its followers' in queue order.
#[derive(Debug)]
pub struct Round<T> {
    /// The leader's.
    pub own: T,
    /// The followers', oldest first.
    pub rest: Vec<T>,
}

impl<T> Round<T> {
    /// Requests in the round, the leader's included (at least 1).
    pub fn size(&self) -> usize {
        1 + self.rest.len()
    }

    /// The round with `f` applied to each item, the leader's first.
    pub fn map<U>(self, mut f: impl FnMut(T) -> U) -> Round<U> {
        let own = f(self.own);
        Round {
            own,
            rest: self.rest.into_iter().map(f).collect(),
        }
    }
}

/// Combines concurrent requests into rounds, each served by one leader
/// (see the module docs for the policy).
pub struct Combiner<Req, Out> {
    linger: Duration,
    queue: Mutex<Queue<Req, Out>>,
}

struct Queue<Req, Out> {
    /// A leader is lingering or serving; arrivals park.
    leading: bool,
    parked: VecDeque<(Req, Arc<Slot<Req, Out>>)>,
}

/// Why a parked caller was woken.
enum Wake<Req, Out> {
    /// Its output, from the round that held its request.
    Done(Out),
    /// The lead of the next round, with its request back.
    Lead(Req),
}

/// A parked caller's wake-up slot.
struct Slot<Req, Out> {
    wake: Mutex<Option<Wake<Req, Out>>>,
    woken: Condvar,
}

impl<Req, Out> Slot<Req, Out> {
    fn wait(&self) -> Wake<Req, Out> {
        let mut wake = self.wake.lock();
        loop {
            if let Some(w) = wake.take() {
                return w;
            }
            self.woken.wait(&mut wake);
        }
    }

    fn fill(&self, w: Wake<Req, Out>) {
        *self.wake.lock() = Some(w);
        self.woken.notify_one();
    }
}

impl<Req, Out> Combiner<Req, Out> {
    /// An idle combiner whose leaders linger `linger` before serving.
    pub fn new(linger: Duration) -> Self {
        Self {
            linger,
            queue: Mutex::new(Queue {
                leading: false,
                parked: VecDeque::new(),
            }),
        }
    }

    /// Have `req` served and return its output: as the leader of a
    /// round, through `serve`, or as a follower, through the `serve` of
    /// the leader whose round took it. `serve` must return a round of
    /// the same size as the one it is given.
    pub fn submit(&self, req: Req, serve: impl FnOnce(Round<Req>) -> Round<Out>) -> Out {
        let mut q = self.queue.lock();
        let own = if q.leading {
            let slot = Arc::new(Slot {
                wake: Mutex::new(None),
                woken: Condvar::new(),
            });
            q.parked.push_back((req, Arc::clone(&slot)));
            drop(q);
            match slot.wait() {
                Wake::Done(out) => return out,
                Wake::Lead(req) => req,
            }
        } else {
            q.leading = true;
            drop(q);
            req
        };
        self.lead(own, serve)
    }

    /// One round: linger, take the queue, serve, wake each follower
    /// with its output, then hand the lead on or go idle.
    fn lead(&self, own: Req, serve: impl FnOnce(Round<Req>) -> Round<Out>) -> Out {
        if !self.linger.is_zero() {
            std::thread::sleep(self.linger);
        }
        let parked = std::mem::take(&mut self.queue.lock().parked);
        let (rest, slots): (Vec<Req>, Vec<_>) = parked.into_iter().unzip();
        let out = serve(Round { own, rest });
        debug_assert_eq!(out.rest.len(), slots.len(), "one output per request");
        for (slot, o) in slots.iter().zip(out.rest) {
            slot.fill(Wake::Done(o));
        }
        let mut q = self.queue.lock();
        let next = q.parked.pop_front();
        q.leading = next.is_some();
        drop(q);
        if let Some((req, slot)) = next {
            slot.fill(Wake::Lead(req));
        }
        out.own
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Barrier;
    use std::time::Instant;

    /// Callers parked behind the current leader.
    fn parked<Req, Out>(c: &Combiner<Req, Out>) -> usize {
        c.queue.lock().parked.len()
    }

    /// Run `body` on its own thread and fail if it does not finish in
    /// time: a lost wake-up fails the test instead of hanging it.
    fn watchdog<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        let run = std::thread::spawn(move || {
            let _ = tx.send(body());
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(out) => out,
            // The body panicked: report its panic, not a hang.
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(run.join().expect_err("the body sent nothing"))
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("combiner test did not finish in 60 s: a caller was never woken")
            }
        }
    }

    #[test]
    fn every_caller_gets_its_own_output() {
        const THREADS: usize = 8;
        const SUBMITS: usize = 500;
        let served = watchdog(|| {
            let c = Combiner::<usize, usize>::new(Duration::ZERO);
            let served = Mutex::new(0usize);
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let (c, served) = (&c, &served);
                    s.spawn(move || {
                        for i in 0..SUBMITS {
                            let req = t * SUBMITS + i;
                            let out = c.submit(req, |round| {
                                *served.lock() += round.size();
                                round.map(|r| r + 1)
                            });
                            assert_eq!(out, req + 1, "caller {t} got another's output");
                        }
                    });
                }
            });
            served.into_inner()
        });
        assert_eq!(
            served,
            THREADS * SUBMITS,
            "every request served exactly once"
        );
    }

    #[test]
    fn a_request_queued_during_a_round_is_handed_the_lead() {
        let (first, second) = watchdog(|| {
            let c = Combiner::<&'static str, (&'static str, usize)>::new(Duration::ZERO);
            let in_serve = Barrier::new(2);
            std::thread::scope(|s| {
                let leader = s.spawn(|| {
                    c.submit("first", |round| {
                        in_serve.wait();
                        // Hold the round until the second request queued.
                        while parked(&c) == 0 {
                            std::thread::yield_now();
                        }
                        let size = round.size();
                        round.map(|r| (r, size))
                    })
                });
                in_serve.wait();
                let follower = s.spawn(|| c.submit("second", |round| round.map(|r| (r, 0))));
                (leader.join().unwrap(), follower.join().unwrap())
            })
        });
        // The leader served a round of its own request only and
        // returned; the second caller led the next round itself (its
        // serve tags outputs with 0, the first leader's with the size).
        assert_eq!(first, ("first", 1));
        assert_eq!(second, ("second", 0));
    }

    #[test]
    fn a_linger_gathers_a_barrier_released_storm_into_one_round() {
        const CALLERS: usize = 16;
        let rounds = watchdog(|| {
            let c = Combiner::<usize, usize>::new(Duration::from_millis(25));
            let rounds = Mutex::new(Vec::new());
            let barrier = Barrier::new(CALLERS);
            std::thread::scope(|s| {
                for t in 0..CALLERS {
                    let (c, rounds, barrier) = (&c, &rounds, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        let out = c.submit(t, |round| {
                            rounds.lock().push(round.size());
                            round.map(|r| r * 2)
                        });
                        assert_eq!(out, t * 2);
                    });
                }
            });
            rounds.into_inner()
        });
        assert_eq!(rounds, vec![CALLERS], "one leader served the whole storm");
    }

    #[test]
    fn a_failed_round_fails_every_follower_in_it() {
        const CALLERS: usize = 8;
        let (rounds, outs) = watchdog(|| {
            let c = Combiner::<usize, Result<(), usize>>::new(Duration::from_millis(25));
            let rounds: Mutex<Vec<Vec<usize>>> = Mutex::new(Vec::new());
            let barrier = Barrier::new(CALLERS);
            let outs: Vec<(usize, Result<(), usize>)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..CALLERS)
                    .map(|t| {
                        let (c, rounds, barrier) = (&c, &rounds, &barrier);
                        s.spawn(move || {
                            barrier.wait();
                            let out = c.submit(t, |round| {
                                let mut rounds = rounds.lock();
                                let mut members = round.rest.clone();
                                members.push(round.own);
                                rounds.push(members);
                                // The round failed as a whole: its index
                                // is the error every member sees.
                                let failed = Err(rounds.len() - 1);
                                round.map(|_| failed)
                            });
                            (t, out)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            (rounds.into_inner(), outs)
        });
        for (t, out) in outs {
            let round = out.expect_err("every round failed");
            assert!(
                rounds[round].contains(&t),
                "caller {t} got round {round}'s error"
            );
        }
        assert!(
            rounds.iter().any(|r| r.len() > 1),
            "a follower rode a failed round: {rounds:?}"
        );
    }

    #[test]
    fn a_leader_of_one_lingers_then_leaves_the_combiner_idle() {
        let (out, lingered, again) = watchdog(|| {
            let c = Combiner::<u8, u8>::new(Duration::from_millis(5));
            let t0 = Instant::now();
            let out = c.submit(7, |round| round.map(|r| r + 1));
            let lingered = t0.elapsed();
            (out, lingered, c.submit(1, |round| round.map(|r| r + 1)))
        });
        assert_eq!(out, 8);
        assert!(lingered >= Duration::from_millis(5), "{lingered:?}");
        assert_eq!(again, 2, "the next caller leads an idle combiner");
    }
}
