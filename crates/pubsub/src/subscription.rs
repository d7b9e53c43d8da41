//! Subscription sets and topic matching.
//!
//! A process subscribes to a set of topics; it must receive every event whose
//! topic is covered by (equal to or a subtopic of) one of its subscriptions.
//! [`SubscriptionSet`] implements that matching plus the *shared interest* test
//! used by the neighborhood-detection phase: two processes only keep each other
//! in their neighborhood tables if their subscriptions are related.

use crate::topic::Topic;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// The set of topics a process has subscribed to.
///
/// The topic set is shared behind an [`Arc`] with copy-on-write mutation:
/// cloning a set — which every heartbeat and every neighborhood-table upsert
/// does — is a reference-count bump, while `subscribe`/`unsubscribe`/`clear`
/// copy the underlying tree only if it is currently shared. Equality and
/// iteration order see through the `Arc`, so the sharing is unobservable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubscriptionSet {
    topics: Arc<BTreeSet<Topic>>,
}

impl SubscriptionSet {
    /// Creates an empty subscription set.
    pub fn new() -> Self {
        SubscriptionSet::default()
    }

    /// Creates a set holding a single topic.
    pub fn single(topic: Topic) -> Self {
        let mut s = SubscriptionSet::new();
        s.subscribe(topic);
        s
    }

    /// Adds a subscription. Returns `true` if it was not already present.
    pub fn subscribe(&mut self, topic: Topic) -> bool {
        Arc::make_mut(&mut self.topics).insert(topic)
    }

    /// Removes a subscription. Returns `true` if it was present.
    pub fn unsubscribe(&mut self, topic: &Topic) -> bool {
        Arc::make_mut(&mut self.topics).remove(topic)
    }

    /// Removes every subscription, leaving the set as freshly constructed.
    /// Used by the protocols' in-place `reset` when a simulation world is
    /// recycled across seeds.
    pub fn clear(&mut self) {
        Arc::make_mut(&mut self.topics).clear();
    }

    /// `true` when the process has no subscriptions left (at which point the
    /// paper stops its heartbeat and garbage-collection tasks).
    pub fn is_empty(&self) -> bool {
        self.topics.is_empty()
    }

    /// Number of subscribed topics.
    pub fn len(&self) -> usize {
        self.topics.len()
    }

    /// Iterates over the subscribed topics in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Topic> {
        self.topics.iter()
    }

    /// `true` if an event published on `topic` must be delivered to this
    /// process, i.e. one of its subscriptions covers `topic`.
    ///
    /// ```
    /// # use pubsub::{SubscriptionSet, Topic};
    /// let mut subs = SubscriptionSet::new();
    /// subs.subscribe(".grenoble.conferences".parse().unwrap());
    /// assert!(subs.matches(&".grenoble.conferences.middleware".parse().unwrap()));
    /// assert!(!subs.matches(&".grenoble.restaurants".parse().unwrap()));
    /// ```
    pub fn matches(&self, topic: &Topic) -> bool {
        self.topics.iter().any(|sub| sub.covers(topic))
    }

    /// `true` if this process and one with subscriptions `other` share any
    /// interest: some topic of one is related (ancestor or descendant) to some
    /// topic of the other. Neighbors without shared interest are not worth
    /// keeping in the neighborhood table.
    pub fn shares_interest_with(&self, other: &SubscriptionSet) -> bool {
        self.topics
            .iter()
            .any(|a| other.topics.iter().any(|b| a.related(b)))
    }

    /// The topics of `self` that are of interest to a process with
    /// subscriptions `other`: an event on such a topic could be useful to it.
    /// A topic `t` qualifies if it is related to one of `other`'s topics.
    pub fn topics_of_interest_to<'a>(
        &'a self,
        other: &'a SubscriptionSet,
    ) -> impl Iterator<Item = &'a Topic> + 'a {
        self.topics
            .iter()
            .filter(move |t| other.topics.iter().any(|o| t.related(o)))
    }

    /// Estimated wire size of the subscription list inside a heartbeat, in
    /// bytes: the textual length of every topic. Used only for bandwidth
    /// accounting.
    pub fn wire_size_bytes(&self) -> usize {
        self.topics.iter().map(|t| t.to_string().len()).sum()
    }
}

impl fmt::Display for SubscriptionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.topics.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Topic> for SubscriptionSet {
    fn from_iter<I: IntoIterator<Item = Topic>>(iter: I) -> Self {
        SubscriptionSet {
            topics: Arc::new(iter.into_iter().collect()),
        }
    }
}

impl Extend<Topic> for SubscriptionSet {
    fn extend<I: IntoIterator<Item = Topic>>(&mut self, iter: I) {
        Arc::make_mut(&mut self.topics).extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Topic {
        s.parse().unwrap()
    }

    #[test]
    fn subscribe_unsubscribe_lifecycle() {
        let mut subs = SubscriptionSet::new();
        assert!(subs.is_empty());
        assert!(subs.subscribe(t(".a")));
        assert!(
            !subs.subscribe(t(".a")),
            "duplicate subscription reports false"
        );
        assert_eq!(subs.len(), 1);
        assert!(subs.unsubscribe(&t(".a")));
        assert!(!subs.unsubscribe(&t(".a")));
        assert!(subs.is_empty());
    }

    #[test]
    fn clear_empties_the_set() {
        let mut subs: SubscriptionSet = [t(".a"), t(".b.c")].into_iter().collect();
        subs.clear();
        assert!(subs.is_empty());
        assert_eq!(subs, SubscriptionSet::new());
        assert!(subs.subscribe(t(".a")), "a cleared set is freshly usable");
    }

    #[test]
    fn matches_subtopics_but_not_ancestors() {
        let subs = SubscriptionSet::single(t(".T0.T1"));
        assert!(subs.matches(&t(".T0.T1")));
        assert!(subs.matches(&t(".T0.T1.T2")));
        assert!(
            !subs.matches(&t(".T0")),
            "events on an ancestor topic are parasite events"
        );
        assert!(!subs.matches(&t(".T0.T4")));
        assert!(!SubscriptionSet::new().matches(&t(".T0")));
    }

    #[test]
    fn root_subscription_matches_everything() {
        let subs = SubscriptionSet::single(Topic::root());
        assert!(subs.matches(&t(".anything.at.all")));
    }

    #[test]
    fn shared_interest_mirrors_the_paper_example() {
        // p1 subscribed to T0.T1, p2 to T0.T1.T2, p3 to T0: all three pairs share interest.
        let p1 = SubscriptionSet::single(t(".T0.T1"));
        let p2 = SubscriptionSet::single(t(".T0.T1.T2"));
        let p3 = SubscriptionSet::single(t(".T0"));
        assert!(p1.shares_interest_with(&p2));
        assert!(p2.shares_interest_with(&p1));
        assert!(p1.shares_interest_with(&p3));
        assert!(p2.shares_interest_with(&p3));
        // Disjoint branches share nothing.
        let other = SubscriptionSet::single(t(".music.jazz"));
        assert!(!p1.shares_interest_with(&other));
        assert!(!SubscriptionSet::new().shares_interest_with(&p1));
    }

    #[test]
    fn topics_of_interest_filters_unrelated() {
        let mine: SubscriptionSet = [t(".T0.T1"), t(".music")].into_iter().collect();
        let theirs = SubscriptionSet::single(t(".T0"));
        let interesting: Vec<_> = mine.topics_of_interest_to(&theirs).cloned().collect();
        assert_eq!(interesting, vec![t(".T0.T1")]);
    }

    #[test]
    fn display_and_wire_size() {
        let subs: SubscriptionSet = [t(".a"), t(".b.c")].into_iter().collect();
        let shown = subs.to_string();
        assert!(shown.contains(".a") && shown.contains(".b.c"));
        assert_eq!(subs.wire_size_bytes(), 2 + 4);
        assert_eq!(SubscriptionSet::new().wire_size_bytes(), 0);
    }

    #[test]
    fn from_iterator_deduplicates() {
        let subs: SubscriptionSet = [t(".a"), t(".a"), t(".b")].into_iter().collect();
        assert_eq!(subs.len(), 2);
        let mut extended = subs.clone();
        extended.extend([t(".b"), t(".c")]);
        assert_eq!(extended.len(), 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn topic_strategy() -> impl Strategy<Value = Topic> {
        proptest::collection::vec("[a-z]{1,3}", 0..4).prop_map_invertible(
            |segs| {
                let mut topic = Topic::root();
                for s in &segs {
                    topic = topic.child(s);
                }
                topic
            },
            |topic| topic.segments().to_vec(),
        )
    }

    proptest! {
        /// An event matches iff at least one subscription covers its topic —
        /// and subscribing to the event's own topic always matches.
        #[test]
        fn matches_consistent_with_covers(topics in proptest::collection::vec(topic_strategy(), 0..6),
                                          event_topic in topic_strategy()) {
            let subs: SubscriptionSet = topics.iter().cloned().collect();
            let expected = topics.iter().any(|t| t.covers(&event_topic));
            prop_assert_eq!(subs.matches(&event_topic), expected);

            let mut with_exact = subs.clone();
            with_exact.subscribe(event_topic.clone());
            prop_assert!(with_exact.matches(&event_topic));
        }

        /// Shared interest is symmetric.
        #[test]
        fn shared_interest_symmetric(a in proptest::collection::vec(topic_strategy(), 0..5),
                                     b in proptest::collection::vec(topic_strategy(), 0..5)) {
            let sa: SubscriptionSet = a.into_iter().collect();
            let sb: SubscriptionSet = b.into_iter().collect();
            prop_assert_eq!(sa.shares_interest_with(&sb), sb.shares_interest_with(&sa));
        }
    }
}
