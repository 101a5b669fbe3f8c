//! What a `pred` returns: distributions built when a program reads them.
//!
//! A `pred` runs every input token through the model, but a program reads
//! few of the distributions that come back — a prefill reads the one after
//! its last token. The surrogate's distribution is a pure function of the
//! context fingerprint, so a reply carries the fingerprint after each
//! input token and the model that shares them, and builds a [`Dist`] only
//! where it is read.

use std::borrow::Cow;
use std::sync::Arc;

use crate::dist::Dist;
use crate::fingerprint::CtxFingerprint;
use crate::surrogate::{Surrogate, ENTRIES};

/// The reply to one `pred`: element `i` is the next-token distribution
/// after input token `i`, built when read.
#[derive(Debug, Clone)]
pub struct Preds {
    model: Arc<Surrogate>,
    fps: Vec<CtxFingerprint>,
}

impl Preds {
    /// A reply whose element `i` is `model`'s distribution at `fps[i]`.
    pub fn new(model: Arc<Surrogate>, fps: Vec<CtxFingerprint>) -> Self {
        Preds { model, fps }
    }

    /// Number of distributions: one per input token.
    pub fn len(&self) -> usize {
        self.fps.len()
    }

    /// `true` for a reply to no tokens.
    pub fn is_empty(&self) -> bool {
        self.fps.is_empty()
    }

    /// Builds the distribution after input token `i`.
    pub fn get(&self, i: usize) -> Option<Dist> {
        self.fps.get(i).map(|&fp| self.model.next_dist(fp))
    }

    /// Builds the distribution after the last input token.
    pub fn last(&self) -> Option<Dist> {
        self.fps.last().map(|&fp| self.model.next_dist(fp))
    }

    /// Builds each distribution in turn, as the iterator is advanced.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Dist> + '_ {
        self.fps.iter().map(|&fp| self.model.next_dist(fp))
    }

    /// The context fingerprint after each input token.
    pub fn fingerprints(&self) -> &[CtxFingerprint] {
        &self.fps
    }

    /// Each element as a [`DistRef`] that builds when read.
    pub fn into_refs(self) -> impl Iterator<Item = DistRef> {
        let model = self.model;
        self.fps
            .into_iter()
            .map(move |fp| DistRef(Repr::At(Arc::clone(&model), fp)))
    }
}

/// One distribution as a program holds it: already built, or a point of a
/// `pred` reply that the model builds each time it is read.
#[derive(Debug, Clone)]
pub struct DistRef(Repr);

#[derive(Debug, Clone)]
enum Repr {
    Built(Box<Dist>),
    At(Arc<Surrogate>, CtxFingerprint),
}

impl DistRef {
    /// The distribution, built now if it is a point of a reply.
    pub fn get(&self) -> Cow<'_, Dist> {
        match &self.0 {
            Repr::Built(d) => Cow::Borrowed(d),
            Repr::At(model, fp) => Cow::Owned(model.next_dist(*fp)),
        }
    }

    /// `get().entries().len()` without building: every distribution the
    /// surrogate builds has the same number of entries.
    pub fn entries_len(&self) -> usize {
        match &self.0 {
            Repr::Built(d) => d.entries().len(),
            Repr::At(..) => ENTRIES,
        }
    }
}

impl From<Dist> for DistRef {
    fn from(d: Dist) -> Self {
        DistRef(Repr::Built(Box::new(d)))
    }
}

/// Equal when the distributions are: one model at one fingerprint is
/// equal without building either.
impl PartialEq for DistRef {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Repr::At(a, x), Repr::At(b, y)) if Arc::ptr_eq(a, b) && x == y => true,
            _ => self.get() == other.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelConfig;
    use symphony_telemetry::Counter;

    fn counted() -> (Arc<Surrogate>, Counter) {
        let built = Counter::new();
        let model = Surrogate::new(ModelConfig::tiny(), 7).counting_into(built.clone());
        (Arc::new(model), built)
    }

    fn chain(model: &Surrogate, n: u32) -> Vec<CtxFingerprint> {
        let f = model.fingerprinter();
        let mut fp = f.origin();
        (0..n)
            .map(|i| {
                fp = f.advance(fp, i + 3, i);
                fp
            })
            .collect()
    }

    #[test]
    fn a_reply_builds_only_what_is_read() {
        let (model, built) = counted();
        let fps = chain(&model, 1_000);
        let preds = Preds::new(Arc::clone(&model), fps.clone());
        assert_eq!(preds.len(), 1_000);
        assert_eq!(built.get(), 0);
        let last = preds.last().unwrap();
        assert_eq!(preds.get(1_000), None);
        assert_eq!(built.get(), 1);
        assert_eq!(last, model.next_dist(fps[999]));
    }

    #[test]
    fn refs_build_when_read_and_count_entries_without_building() {
        let (model, built) = counted();
        let fps = chain(&model, 8);
        let refs: Vec<DistRef> = Preds::new(Arc::clone(&model), fps.clone())
            .into_refs()
            .collect();
        assert_eq!(built.get(), 0);
        assert!(refs.iter().all(|r| r.entries_len() == ENTRIES));
        assert_eq!(refs[3], refs[3].clone());
        assert_eq!(built.get(), 0, "one model at one fingerprint");
        assert_eq!(*refs[3].get(), model.next_dist(fps[3]));
        let built_ref = DistRef::from(model.next_dist(fps[3]));
        assert_eq!(refs[3], built_ref);
        assert_ne!(refs[2], built_ref);
    }
}
