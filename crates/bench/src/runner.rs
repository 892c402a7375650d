//! Structured-concurrency sweep runner.

use std::sync::Mutex;

/// Runs `f` over every item on `threads` scoped worker threads, returning
/// outputs in input order.
///
/// The workers never outlive the call (std scoped threads), and each takes
/// the next item from one shared queue when it is free, so an expensive
/// parameter point cannot stall the items behind it.
pub fn run_parallel<I, O, F>(items: Vec<I>, threads: usize, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let next = queue.lock().expect("queue poisoned").next();
                        let Some((idx, item)) = next else { break };
                        done.push((idx, f(item)));
                    }
                    done
                })
            })
            .collect();
        for worker in workers {
            for (idx, out) in worker.join().expect("sweep worker panicked") {
                slots[idx] = Some(out);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index produced exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order() {
        let out = run_parallel((0..100).collect(), 8, |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = run_parallel((0..50).collect(), 4, |x: usize| {
            counter.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(out.len(), 50);
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn empty_and_single_thread() {
        let out: Vec<i32> = run_parallel(Vec::<i32>::new(), 4, |x| x);
        assert!(out.is_empty());
        let out = run_parallel(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn more_threads_than_items() {
        let out = run_parallel(vec![10, 20], 64, |x| x / 10);
        assert_eq!(out, vec![1, 2]);
    }
}
