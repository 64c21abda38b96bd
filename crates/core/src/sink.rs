//! Answer sinks: where an execution delivers its answer, one tuple at a time.
//!
//! The engines produce an answer tuple by tuple, in lexicographic order
//! ([`crate::enumerate`]). What happens to each tuple is the caller's
//! choice, made by the [`AnswerSink`] it passes to
//! [`CompiledQuery::execute_into`](crate::CompiledQuery::execute_into):
//!
//! * **collect** — keep the answer as an [`Answer`] (the public API, the
//!   oracles, and the batch layer, where one answer feeds several requests);
//! * **fingerprint** — fold each tuple into [`answer_fingerprint`]'s hash as
//!   it arrives, so a caller that only needs the hash (the serving runner,
//!   the TCP front end) allocates nothing per tuple;
//! * **count** — keep only the number of answers.

use cqt_trees::NodeId;

use crate::engine::Answer;

/// The shape of an answer, fixed by the head arity: it decides how a tuple
/// is stored and how it is mixed into a fingerprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    Boolean,
    Nodes,
    Tuples,
}

impl Shape {
    fn of_arity(arity: usize) -> Self {
        match arity {
            0 => Shape::Boolean,
            1 => Shape::Nodes,
            _ => Shape::Tuples,
        }
    }
}

/// The mixing of [`answer_fingerprint`], defined once: whole answers and
/// fingerprint sinks fold through it.
#[derive(Clone, Copy, Debug)]
struct Fold(u64);

impl Fold {
    fn new(key: u64) -> Self {
        Fold(key.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xcafe_f00d)
    }

    #[inline]
    fn mix(&mut self, value: u64) {
        self.0 ^= value;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }

    #[inline]
    fn node(&mut self, node: NodeId) {
        self.mix(node.index() as u64 + 1);
    }

    /// A k-ary tuple: its nodes, then a separator.
    #[inline]
    fn tuple(&mut self, tuple: &[NodeId]) {
        for &node in tuple {
            self.node(node);
        }
        self.mix(u64::MAX);
    }

    /// One answer tuple of an answer of `shape`.
    #[inline]
    fn push(&mut self, shape: Shape, tuple: &[NodeId]) {
        match shape {
            // A Boolean answer mixes once, when it is read.
            Shape::Boolean => {}
            Shape::Nodes => self.node(tuple[0]),
            Shape::Tuples => self.tuple(tuple),
        }
    }

    /// The fingerprint of an answer of `shape` with `answers` tuples folded
    /// in: a Boolean answer mixes once, when it is read.
    fn value(mut self, shape: Shape, answers: u64) -> u64 {
        if shape == Shape::Boolean {
            self.mix(u64::from(answers > 0));
        }
        self.0
    }
}

#[derive(Clone, Debug)]
enum Kind {
    Collect(Answer),
    /// One fold per key; `more` stays empty (unallocated) for one key.
    Fingerprint {
        first: Fold,
        more: Vec<Fold>,
        shape: Shape,
    },
    Count,
}

/// Receives an answer tuple by tuple: one empty tuple for a satisfied
/// Boolean query, one node per tuple for a monadic query.
#[derive(Clone, Debug)]
pub struct AnswerSink {
    kind: Kind,
    answers: u64,
}

impl AnswerSink {
    /// A sink that keeps the answer of a query with head arity `arity`.
    pub fn collect(arity: usize) -> Self {
        let empty = match Shape::of_arity(arity) {
            Shape::Boolean => Answer::Boolean(false),
            Shape::Nodes => Answer::Nodes(Vec::new()),
            Shape::Tuples => Answer::Tuples(Vec::new()),
        };
        Self::with(Kind::Collect(empty))
    }

    /// A sink that folds the answer of a query with head arity `arity` into
    /// [`answer_fingerprint`]`(key, answer)`, without storing it.
    pub fn fingerprint(key: u64, arity: usize) -> Self {
        Self::fingerprints([key], arity)
    }

    /// A sink that folds one answer under each of `keys` at once, for an
    /// answer that several requests share; it allocates only for a second
    /// key.
    ///
    /// # Panics
    /// Panics if `keys` is empty.
    pub fn fingerprints(keys: impl IntoIterator<Item = u64>, arity: usize) -> Self {
        let mut folds = keys.into_iter().map(Fold::new);
        Self::with(Kind::Fingerprint {
            first: folds.next().expect("at least one key"),
            more: folds.collect(),
            shape: Shape::of_arity(arity),
        })
    }

    /// A sink that only counts answers.
    pub fn count() -> Self {
        Self::with(Kind::Count)
    }

    fn with(kind: Kind) -> Self {
        AnswerSink { kind, answers: 0 }
    }

    /// Receives one answer tuple. Tuples arrive in lexicographic order and
    /// without duplicates; the fingerprint depends on that order.
    #[inline]
    pub fn push(&mut self, tuple: &[NodeId]) {
        self.answers += 1;
        match &mut self.kind {
            Kind::Collect(Answer::Boolean(found)) => *found = true,
            Kind::Collect(Answer::Nodes(nodes)) => nodes.push(tuple[0]),
            Kind::Collect(Answer::Tuples(tuples)) => tuples.push(tuple.to_vec()),
            Kind::Fingerprint { first, more, shape } => {
                first.push(*shape, tuple);
                for fold in more {
                    fold.push(*shape, tuple);
                }
            }
            Kind::Count => {}
        }
    }

    /// Receives a whole answer of the sink's shape. A collecting sink that
    /// has received nothing yet takes the answer over without copying it.
    pub fn push_answer(&mut self, answer: Answer) {
        match &mut self.kind {
            Kind::Collect(kept) if self.answers == 0 => {
                self.answers = answer.len() as u64;
                *kept = answer;
            }
            _ => self.push_each(&answer),
        }
    }

    fn push_each(&mut self, answer: &Answer) {
        match answer {
            Answer::Boolean(found) => {
                if *found {
                    self.push(&[]);
                }
            }
            Answer::Nodes(nodes) => {
                for &node in nodes {
                    self.push(&[node]);
                }
            }
            Answer::Tuples(tuples) => {
                for tuple in tuples {
                    self.push(tuple);
                }
            }
        }
    }

    /// The number of answer tuples received (1 or 0 for a Boolean query).
    pub fn answers(&self) -> u64 {
        self.answers
    }

    /// The fingerprint of everything received under the (first) key, or
    /// `None` if this is not a fingerprint sink. Equals
    /// [`answer_fingerprint`] of the collected answer.
    pub fn fingerprint_value(&self) -> Option<u64> {
        self.fingerprint_values().next()
    }

    /// The fingerprint of everything received under each key, in key
    /// order; nothing if this is not a fingerprint sink.
    pub fn fingerprint_values(&self) -> impl Iterator<Item = u64> + '_ {
        let (first, more, shape) = match &self.kind {
            Kind::Fingerprint { first, more, shape } => (Some(first), more.as_slice(), *shape),
            _ => (None, &[][..], Shape::Boolean),
        };
        first
            .into_iter()
            .chain(more)
            .map(move |fold| fold.value(shape, self.answers))
    }

    /// The collected answer, or `None` if this is not a collecting sink.
    pub fn answer(&self) -> Option<&Answer> {
        match &self.kind {
            Kind::Collect(answer) => Some(answer),
            _ => None,
        }
    }

    /// The collected answer, moved out, or `None` if this is not a
    /// collecting sink.
    pub fn into_answer(self) -> Option<Answer> {
        match self.kind {
            Kind::Collect(answer) => Some(answer),
            _ => None,
        }
    }
}

/// An order-dependent fingerprint of one answer, mixed with a caller `key`.
/// A fingerprint [`AnswerSink`] folds the same value tuple by tuple.
pub fn answer_fingerprint(key: u64, answer: &Answer) -> u64 {
    let mut fold = Fold::new(key);
    match answer {
        Answer::Boolean(found) => return fold.value(Shape::Boolean, u64::from(*found)),
        Answer::Nodes(nodes) => nodes.iter().for_each(|&node| fold.node(node)),
        Answer::Tuples(tuples) => tuples.iter().for_each(|tuple| fold.tuple(tuple)),
    }
    fold.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(indices: &[usize]) -> Vec<NodeId> {
        indices.iter().map(|&i| NodeId::from_index(i)).collect()
    }

    /// The mixing written out by hand: the value every fingerprint, whole
    /// or tuple by tuple, must reproduce bit for bit.
    fn reference(key: u64, answer: &Answer) -> u64 {
        let mut h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xcafe_f00d;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        match answer {
            Answer::Boolean(b) => mix(u64::from(*b)),
            Answer::Nodes(nodes) => nodes.iter().for_each(|n| mix(n.index() as u64 + 1)),
            Answer::Tuples(tuples) => {
                for tuple in tuples {
                    tuple.iter().for_each(|n| mix(n.index() as u64 + 1));
                    mix(u64::MAX);
                }
            }
        }
        h
    }

    #[test]
    fn every_kind_agrees_with_the_collected_answer() {
        let answers = [
            (0, Answer::Boolean(false)),
            (0, Answer::Boolean(true)),
            (1, Answer::Nodes(Vec::new())),
            (1, Answer::Nodes(nodes(&[0, 3, 7]))),
            (2, Answer::Tuples(Vec::new())),
            (
                3,
                Answer::Tuples(vec![nodes(&[0, 1, 1]), nodes(&[2, 0, 5])]),
            ),
        ];
        for (arity, answer) in answers {
            for key in [0, 1, 1_000_003, u64::MAX] {
                let expected = reference(key, &answer);
                assert_eq!(answer_fingerprint(key, &answer), expected, "{answer:?}");
                let mut by_tuple = AnswerSink::fingerprint(key, arity);
                let mut whole = AnswerSink::fingerprint(key, arity);
                let (mut collect, mut count) = (AnswerSink::collect(arity), AnswerSink::count());
                let mut moved = AnswerSink::collect(arity);
                by_tuple.push_each(&answer);
                whole.push_answer(answer.clone());
                collect.push_each(&answer);
                count.push_each(&answer);
                moved.push_answer(answer.clone());
                assert_eq!(by_tuple.fingerprint_value(), Some(expected));
                assert_eq!(whole.fingerprint_value(), Some(expected));
                assert_eq!(count.answers(), answer.len() as u64);
                assert_eq!(moved.answers(), answer.len() as u64);
                assert_eq!(count.fingerprint_value(), None);
                assert_eq!(collect.answer(), Some(&answer));
                assert_eq!(moved.into_answer(), Some(answer.clone()));
                let keys = [key, key ^ 1, key.wrapping_add(7)];
                let mut shared = AnswerSink::fingerprints(keys, arity);
                shared.push_each(&answer);
                let each: Vec<u64> = keys.iter().map(|&k| reference(k, &answer)).collect();
                assert_eq!(shared.fingerprint_values().collect::<Vec<_>>(), each);
                assert_eq!(count.fingerprint_values().count(), 0);
            }
        }
    }
}
