//! The correctness check: every distinct query text is compared, in order,
//! with the `Mode::Interpreter` result, computed outside the timed path.
//! Texts whose interpreter run takes seconds (the Q2 variants at scale
//! 0.5) are compared with a stored digest of the interpreter's output
//! instead (`digests.txt`, rebuilt by `--write-digests`), never with the
//! join-graph path itself.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use xqjg_xml::Pre;

use crate::gen::GenQuery;
use crate::util::{fnv1a, nproc};

/// Most threads the oracle check runs on.
const ORACLE_THREADS: usize = 2;

/// Stored interpreter digests: `<items digest>\t<item count>\t<query text>`.
const DIGESTS: &str = include_str!("../digests.txt");

/// Digest of a result sequence (order-sensitive).
pub fn items_digest(items: &[Pre]) -> u64 {
    fnv1a(items.iter().flat_map(|p| p.0.to_le_bytes()))
}

/// The stored `(digest, count)` of the interpreter's result for `text`.
pub fn stored_digest(text: &str) -> Option<(u64, usize)> {
    DIGESTS.lines().find_map(|line| {
        let mut parts = line.splitn(3, '\t');
        let digest = parts.next()?;
        let count = parts.next()?;
        (parts.next()? == text).then(|| {
            (
                u64::from_str_radix(digest, 16).expect("hex digest in digests.txt"),
                count.parse().expect("item count in digests.txt"),
            )
        })
    })
}

/// One line of `digests.txt`.
pub fn digest_line(text: &str, items: &[Pre]) -> String {
    format!("{:016x}\t{}\t{text}", items_digest(items), items.len())
}

/// How a text's results compared with the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Same items in the same order.
    Match,
    /// Same items, other order, on a query with a comma sequence under
    /// `return` (the relational path concatenates the branches).
    SequenceOrder,
    /// Anything else: missing or extra items, a wrong order elsewhere, or
    /// executions of one text that disagree with each other.
    Wrong,
}

struct Entry {
    query: GenQuery,
    items: Vec<Pre>,
    executions: usize,
    unstable: bool,
}

/// Results of the timed phase, one entry per distinct text.
#[derive(Default)]
pub struct Checker {
    entries: HashMap<String, Entry>,
}

/// Totals of a check.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Distinct texts checked.
    pub texts: usize,
    /// Executions whose text matched the oracle.
    pub matched: u64,
    /// Executions with the documented comma-sequence order difference.
    pub sequence_order: u64,
    /// Executions with any other difference.
    pub wrong: u64,
    /// Distinct texts checked against a stored digest.
    pub digest_checked: usize,
}

impl Checker {
    /// Record one successful execution.
    pub fn record(&mut self, q: &GenQuery, items: &[Pre]) {
        match self.entries.get_mut(&q.text) {
            Some(e) => {
                e.executions += 1;
                e.unstable |= e.items != items;
            }
            None => {
                self.entries.insert(
                    q.text.clone(),
                    Entry {
                        query: q.clone(),
                        items: items.to_vec(),
                        executions: 1,
                        unstable: false,
                    },
                );
            }
        }
    }

    /// Every recorded text, sorted.
    pub fn texts(&self) -> Vec<String> {
        let mut texts: Vec<String> = self.entries.keys().cloned().collect();
        texts.sort();
        texts
    }

    /// Compare every recorded text with the oracle.  `slow(q)` says which
    /// texts use the stored digest; `interp(q)` runs the interpreter.  The
    /// check runs after the timed phase, on up to `ORACLE_THREADS` threads
    /// (the interpreter reads the documents through shared references).
    pub fn check(
        &self,
        slow: impl Fn(&GenQuery) -> bool + Sync,
        interp: impl Fn(&GenQuery) -> Option<Vec<Pre>> + Sync,
    ) -> (Tally, Vec<String>) {
        let mut texts: Vec<&String> = self.entries.keys().collect();
        texts.sort();
        let verdict = |text: &String| {
            let e = &self.entries[text];
            if e.unstable {
                Verdict::Wrong
            } else if slow(&e.query) {
                match stored_digest(text) {
                    Some((digest, count))
                        if digest == items_digest(&e.items) && count == e.items.len() =>
                    {
                        Verdict::Match
                    }
                    _ => Verdict::Wrong,
                }
            } else {
                match interp(&e.query) {
                    Some(expected) => compare(&e.query, &expected, &e.items),
                    None => Verdict::Wrong,
                }
            }
        };
        // Texts are handed out one at a time: interpreter costs differ by
        // orders of magnitude between shapes.
        let next = AtomicUsize::new(0);
        let threads = nproc().clamp(1, ORACLE_THREADS);
        let mut verdicts: Vec<(usize, Verdict)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(text) = texts.get(i) else { break };
                            done.push((i, verdict(text)));
                        }
                        done
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("oracle thread panicked"))
                .collect()
        });
        verdicts.sort_by_key(|&(i, _)| i);

        let mut tally = Tally::default();
        let mut problems = Vec::new();
        for (i, verdict) in verdicts {
            let text = texts[i];
            let e = &self.entries[text];
            tally.texts += 1;
            tally.digest_checked += (!e.unstable && slow(&e.query)) as usize;
            let n = e.executions as u64;
            match verdict {
                Verdict::Match => tally.matched += n,
                Verdict::SequenceOrder => tally.sequence_order += n,
                Verdict::Wrong => {
                    tally.wrong += n;
                    problems.push(format!("{:?} [{}] {}", verdict, e.query.tag, text));
                }
            }
        }
        (tally, problems)
    }
}

/// Compare one result with the oracle's, in order.
pub fn compare(q: &GenQuery, expected: &[Pre], got: &[Pre]) -> Verdict {
    if expected == got {
        return Verdict::Match;
    }
    let mut a = expected.to_vec();
    let mut b = got.to_vec();
    a.sort_unstable();
    b.sort_unstable();
    if a == b && q.sequence_return() {
        Verdict::SequenceOrder
    } else {
        Verdict::Wrong
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{q2_variant, Dataset, ServeStream, SERVE_Q2_PRICES};

    #[test]
    fn every_serve_q2_text_has_a_stored_digest() {
        for price in SERVE_Q2_PRICES {
            assert!(stored_digest(&q2_variant(price)).is_some(), "price {price}");
        }
        for q in ServeStream::new(1, 0).take(200) {
            if q.tag == "Q2" {
                assert_eq!(q.dataset, Dataset::Xmark);
                assert!(stored_digest(&q.text).is_some(), "{}", q.text);
            }
        }
    }

    #[test]
    fn order_only_differences_count_only_for_comma_sequences() {
        let seq = GenQuery {
            text: "for $x in //a return ($x/b, $x/c)".to_string(),
            tag: "seq",
            dataset: Dataset::Xmark,
        };
        let path = GenQuery {
            text: "//a/b".to_string(),
            tag: "Q1",
            dataset: Dataset::Xmark,
        };
        let (a, b) = (vec![Pre(1), Pre(2)], vec![Pre(2), Pre(1)]);
        assert_eq!(compare(&seq, &a, &a), Verdict::Match);
        assert_eq!(compare(&seq, &a, &b), Verdict::SequenceOrder);
        assert_eq!(compare(&path, &a, &b), Verdict::Wrong);
        assert_eq!(compare(&seq, &a, &[Pre(1)]), Verdict::Wrong);
    }
}
