//! A map organized along the topic hierarchy.
//!
//! The paper's event table (its Figure 3) stores events "according to the topic
//! hierarchy (from the partial topic tree information the process has)".
//! [`TopicTree`] is that structure: a tree of topic segments whose nodes carry
//! the values attached to the corresponding topic, with efficient subtree
//! queries ("all events under `.T0.T1`").

use crate::topic::Topic;
use std::collections::BTreeMap;

/// A tree keyed by [`Topic`], each node holding a list of `T` values.
#[derive(Debug, Clone, PartialEq)]
pub struct TopicTree<T> {
    root: Node<T>,
    len: usize,
}

#[derive(Debug, Clone, PartialEq)]
struct Node<T> {
    values: Vec<T>,
    children: BTreeMap<String, Node<T>>,
}

impl<T> Default for Node<T> {
    fn default() -> Self {
        Node {
            values: Vec::new(),
            children: BTreeMap::new(),
        }
    }
}

impl<T> Default for TopicTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TopicTree<T> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        TopicTree {
            root: Node::default(),
            len: 0,
        }
    }

    /// Total number of stored values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a value under `topic`.
    pub fn insert(&mut self, topic: &Topic, value: T) {
        let mut node = &mut self.root;
        for segment in topic.segments() {
            node = node.children.entry(segment.clone()).or_default();
        }
        node.values.push(value);
        self.len += 1;
    }

    fn node(&self, topic: &Topic) -> Option<&Node<T>> {
        let mut node = &self.root;
        for segment in topic.segments() {
            node = node.children.get(segment)?;
        }
        Some(node)
    }

    /// The values stored exactly at `topic` (not its subtopics).
    pub fn at(&self, topic: &Topic) -> &[T] {
        self.node(topic).map(|n| n.values.as_slice()).unwrap_or(&[])
    }

    /// Iterates over every `(topic, value)` pair in the subtree rooted at
    /// `topic` — i.e. everything a subscriber of `topic` cares about.
    pub fn subtree(&self, topic: &Topic) -> Vec<(Topic, &T)> {
        let mut out = Vec::new();
        if let Some(node) = self.node(topic) {
            collect(node, topic.clone(), &mut out);
        }
        out
    }

    /// Iterates over every `(topic, value)` pair in the whole tree.
    pub fn iter(&self) -> Vec<(Topic, &T)> {
        self.subtree(&Topic::root())
    }

    /// Removes every value for which `predicate` returns `false`, pruning empty
    /// branches. Returns the number of removed values.
    pub fn retain<F: FnMut(&Topic, &T) -> bool>(&mut self, mut predicate: F) -> usize {
        let before = self.len;
        let mut removed = 0;
        prune(&mut self.root, Topic::root(), &mut predicate, &mut removed);
        self.len = before - removed;
        removed
    }
}

fn collect<'a, T>(node: &'a Node<T>, topic: Topic, out: &mut Vec<(Topic, &'a T)>) {
    for value in &node.values {
        out.push((topic.clone(), value));
    }
    for (segment, child) in &node.children {
        collect(child, topic.child(segment), out);
    }
}

fn prune<T, F: FnMut(&Topic, &T) -> bool>(
    node: &mut Node<T>,
    topic: Topic,
    predicate: &mut F,
    removed: &mut usize,
) {
    let before = node.values.len();
    node.values.retain(|v| predicate(&topic, v));
    *removed += before - node.values.len();
    for (segment, child) in node.children.iter_mut() {
        prune(child, topic.child(segment), predicate, removed);
    }
    node.children
        .retain(|_, child| !child.values.is_empty() || !child.children.is_empty());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Topic {
        s.parse().unwrap()
    }

    #[test]
    fn insert_and_query_exact_topic() {
        let mut tree = TopicTree::new();
        tree.insert(&t(".T0.T1"), 1);
        tree.insert(&t(".T0.T1"), 2);
        tree.insert(&t(".T0.T4"), 3);
        assert_eq!(tree.len(), 3);
        assert_eq!(tree.at(&t(".T0.T1")), &[1, 2]);
        assert_eq!(tree.at(&t(".T0.T4")), &[3]);
        assert_eq!(tree.at(&t(".unknown")), &[] as &[i32]);
        assert!(tree.at(&Topic::root()).is_empty());
    }

    #[test]
    fn subtree_gathers_descendants_only() {
        let mut tree = TopicTree::new();
        tree.insert(&t(".T0"), "a");
        tree.insert(&t(".T0.T1"), "b");
        tree.insert(&t(".T0.T1.T2"), "c");
        tree.insert(&t(".T3"), "d");
        let under_t0_t1: Vec<_> = tree
            .subtree(&t(".T0.T1"))
            .into_iter()
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(under_t0_t1, vec!["b", "c"]);
        let under_root: Vec<_> = tree.iter().into_iter().map(|(_, v)| *v).collect();
        assert_eq!(under_root.len(), 4);
        assert!(tree.subtree(&t(".missing")).is_empty());
    }

    #[test]
    fn subtree_reports_full_topics() {
        let mut tree = TopicTree::new();
        tree.insert(&t(".a.b.c"), 7);
        let items = tree.subtree(&t(".a"));
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].0, t(".a.b.c"));
    }

    #[test]
    fn retain_removes_and_prunes() {
        let mut tree = TopicTree::new();
        tree.insert(&t(".a.b"), 1);
        tree.insert(&t(".a.b"), 2);
        tree.insert(&t(".a.c"), 3);
        let removed = tree.retain(|_, v| *v != 2);
        assert_eq!(removed, 1);
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.at(&t(".a.b")), &[1]);

        // Removing everything under .a.c prunes the branch entirely.
        tree.retain(|topic, _| !t(".a.c").covers(topic));
        assert_eq!(tree.len(), 1);
        assert!(tree.subtree(&t(".a.c")).is_empty());
    }

    #[test]
    fn empty_tree_behaviour() {
        let tree: TopicTree<u8> = TopicTree::new();
        assert!(tree.is_empty());
        assert!(tree.iter().is_empty());
        assert_eq!(tree.len(), 0);
    }

    #[test]
    fn values_at_root() {
        let mut tree = TopicTree::new();
        tree.insert(&Topic::root(), 42);
        assert_eq!(tree.at(&Topic::root()), &[42]);
        assert_eq!(tree.iter().len(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn topic_strategy() -> impl Strategy<Value = Topic> {
        // Invertible so failing cases shrink through the segment vector
        // instead of only re-sampling whole topics.
        proptest::collection::vec("[a-c]{1,2}", 0..4).prop_map_invertible(
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
        /// The subtree under a query topic contains exactly the values whose
        /// topic is covered by the query.
        #[test]
        fn subtree_equals_covers_filter(entries in proptest::collection::vec((topic_strategy(), 0u32..100), 0..40),
                                        query in topic_strategy()) {
            let mut tree = TopicTree::new();
            for (topic, value) in &entries {
                tree.insert(topic, *value);
            }
            prop_assert_eq!(tree.len(), entries.len());
            let mut expected: Vec<u32> = entries
                .iter()
                .filter(|(topic, _)| query.covers(topic))
                .map(|(_, v)| *v)
                .collect();
            let mut got: Vec<u32> = tree.subtree(&query).into_iter().map(|(_, v)| *v).collect();
            expected.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, expected);
        }

        /// retain keeps exactly the values the predicate accepts.
        #[test]
        fn retain_matches_filter(entries in proptest::collection::vec((topic_strategy(), 0u32..100), 0..40),
                                 threshold in 0u32..100) {
            let mut tree = TopicTree::new();
            for (topic, value) in &entries {
                tree.insert(topic, *value);
            }
            tree.retain(|_, v| *v < threshold);
            let expected = entries.iter().filter(|(_, v)| *v < threshold).count();
            prop_assert_eq!(tree.len(), expected);
            prop_assert!(tree.iter().iter().all(|(_, v)| **v < threshold));
        }
    }
}
