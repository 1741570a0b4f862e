//! Interned names and the id-keyed tables the message path reads.
//!
//! Every instance and connector name the runtime meets is interned once
//! into a dense [`NameId`]. The interner is append-only: an id is never
//! reassigned, so a component removed and later re-added under the same
//! name gets its old id back, and with it its flow sequence numbers.
//!
//! Envelopes, bindings, flow sequence counters and the per-delivery
//! lookups (instance, connector, negotiation actuation) all go by id.
//! Where iteration order is observable — `observe`, the fingerprints,
//! the heal and negotiation scans — tables iterate in the interner's
//! name order.

use super::*;
use crate::message::Name;
use std::sync::Arc;

/// A dense id for an interned instance or connector name.
pub(super) type NameId = u32;

/// The id [`EXTERNAL`] always interns to.
pub(super) const EXTERNAL_ID: NameId = 0;

/// Id-indexed vectors start with room for this many ids, so setting up a
/// small system allocates each of them once.
const MIN_SLOTS: usize = 8;

/// The element of `slots` at `id`, growing the vector to hold it.
fn slot<T: Default>(slots: &mut Vec<T>, id: NameId) -> &mut T {
    let i = id as usize;
    if slots.len() <= i {
        slots.reserve((i + 1).max(MIN_SLOTS) - slots.len());
        slots.resize_with(i + 1, T::default);
    }
    &mut slots[i]
}

/// Append-only name interner: `name ↔ id`, ids dense from 0.
#[derive(Debug, Clone)]
pub(super) struct Interner {
    ids: BTreeMap<Name, NameId>,
    names: Vec<Name>,
}

impl Default for Interner {
    fn default() -> Self {
        let external = Name::from_static(EXTERNAL);
        let mut names = Vec::with_capacity(MIN_SLOTS);
        names.push(external.clone());
        Interner {
            ids: BTreeMap::from([(external, EXTERNAL_ID)]),
            names,
        }
    }
}

impl Interner {
    /// The id of `name`, interning it on first sight.
    pub(super) fn intern(&mut self, name: &str) -> NameId {
        if let Some(id) = self.get(name) {
            return id;
        }
        let id = NameId::try_from(self.names.len()).expect("fewer than 2^32 names");
        let name = Name::from(Arc::<str>::from(name));
        self.ids.insert(name.clone(), id);
        self.names.push(name);
        id
    }

    /// The id of `name`, if it was ever interned.
    pub(super) fn get(&self, name: &str) -> Option<NameId> {
        self.ids.get(name).copied()
    }

    /// The shared name behind `id`.
    pub(super) fn name(&self, id: NameId) -> &Name {
        &self.names[id as usize]
    }

    /// Every interned name with its id, in name order.
    fn iter(&self) -> impl Iterator<Item = (&Name, NameId)> {
        self.ids.iter().map(|(name, &id)| (name, id))
    }
}

/// Values keyed by interned id. Name-keyed reads go through the
/// [`Interner`], and so does every iteration except
/// [`NameTable::values_mut`]: it follows the interner's name order,
/// exactly like the `BTreeMap<String, V>` this replaces.
#[derive(Debug, Clone)]
pub(super) struct NameTable<V> {
    slots: Vec<Option<V>>,
}

impl<V> Default for NameTable<V> {
    fn default() -> Self {
        NameTable { slots: Vec::new() }
    }
}

impl<V> NameTable<V> {
    /// The live entry with id `id`.
    pub(super) fn at(&self, id: NameId) -> Option<&V> {
        self.slots.get(id as usize).and_then(Option::as_ref)
    }

    /// The live entry with id `id`, mutably.
    pub(super) fn at_mut(&mut self, id: NameId) -> Option<&mut V> {
        self.slots.get_mut(id as usize).and_then(Option::as_mut)
    }

    /// The id of the live entry named `name`.
    pub(super) fn id_of(&self, names: &Interner, name: &str) -> Option<NameId> {
        names.get(name).filter(|&id| self.at(id).is_some())
    }

    pub(super) fn get(&self, names: &Interner, name: &str) -> Option<&V> {
        names.get(name).and_then(|id| self.at(id))
    }

    pub(super) fn get_mut(&mut self, names: &Interner, name: &str) -> Option<&mut V> {
        names.get(name).and_then(|id| self.at_mut(id))
    }

    pub(super) fn contains_key(&self, names: &Interner, name: &str) -> bool {
        self.get(names, name).is_some()
    }

    /// Inserts under `name` (interned into `names`), returning the
    /// displaced value.
    pub(super) fn insert(&mut self, names: &mut Interner, name: &str, value: V) -> Option<V> {
        self.insert_at(names.intern(name), value)
    }

    /// Inserts under the already-interned `id`.
    pub(super) fn insert_at(&mut self, id: NameId, value: V) -> Option<V> {
        slot(&mut self.slots, id).replace(value)
    }

    pub(super) fn remove(&mut self, names: &Interner, name: &str) -> Option<V> {
        let id = names.get(name)?;
        self.slots.get_mut(id as usize)?.take()
    }

    pub(super) fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Live `(name, value)` pairs in name order.
    pub(super) fn iter<'a>(
        &'a self,
        names: &'a Interner,
    ) -> impl Iterator<Item = (&'a Name, &'a V)> {
        names
            .iter()
            .filter_map(|(name, id)| self.at(id).map(|v| (name, v)))
    }

    /// Live names in name order.
    pub(super) fn keys<'a>(&'a self, names: &'a Interner) -> impl Iterator<Item = &'a Name> {
        self.iter(names).map(|(name, _)| name)
    }

    /// Live values in name order.
    pub(super) fn values<'a>(&'a self, names: &'a Interner) -> impl Iterator<Item = &'a V> {
        self.iter(names).map(|(_, v)| v)
    }

    /// Live values in id order: only for updates that do not depend on
    /// the order they are applied in.
    pub(super) fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().filter_map(Option::as_mut)
    }
}

impl<V> NameTable<V>
where
    V: Default,
{
    /// The entry with id `id`, inserting a default one if absent.
    pub(super) fn at_or_default(&mut self, id: NameId) -> &mut V {
        slot(&mut self.slots, id).get_or_insert_with(V::default)
    }

    /// The entry named `name`, inserting a default one if absent.
    pub(super) fn entry_or_default(&mut self, names: &mut Interner, name: &str) -> &mut V {
        self.at_or_default(names.intern(name))
    }
}

/// A live binding: its declaration, one kernel channel per target, and
/// the interned ids the message path routes by.
#[derive(Debug, Clone)]
pub(super) struct BindingRt {
    pub(super) decl: BindingDecl,
    pub(super) channels: Vec<ChannelId>,
    /// The source instance.
    pub(super) from: NameId,
    /// The mediating connector.
    pub(super) via: NameId,
    /// The target instances, parallel to `decl.to` and `channels`.
    pub(super) targets: Vec<NameId>,
}

/// Live bindings, grouped by source instance id for the send path. Each
/// source's bindings are kept sorted by port, so iterating sources in the
/// interner's name order visits bindings in `(instance, port)` order.
#[derive(Debug, Clone, Default)]
pub(super) struct Bindings {
    by_source: Vec<Vec<BindingRt>>,
}

impl Bindings {
    /// The binding rooted at `from`'s port `port`.
    pub(super) fn find(&self, from: NameId, port: &str) -> Option<&BindingRt> {
        self.by_source
            .get(from as usize)?
            .iter()
            .find(|b| b.decl.from.1 == port)
    }

    pub(super) fn contains_key(&self, names: &Interner, from: &(String, String)) -> bool {
        names
            .get(&from.0)
            .is_some_and(|id| self.find(id, &from.1).is_some())
    }

    /// Inserts `binding` under its source, replacing any binding on the
    /// same port.
    pub(super) fn insert(&mut self, binding: BindingRt) {
        let list = slot(&mut self.by_source, binding.from);
        match list.binary_search_by(|b| b.decl.from.1.cmp(&binding.decl.from.1)) {
            Ok(i) => list[i] = binding,
            Err(i) => list.insert(i, binding),
        }
    }

    pub(super) fn remove(
        &mut self,
        names: &Interner,
        from: &(String, String),
    ) -> Option<BindingRt> {
        let list = self.by_source.get_mut(names.get(&from.0)? as usize)?;
        let pos = list.iter().position(|b| b.decl.from.1 == from.1)?;
        Some(list.remove(pos))
    }

    /// Live bindings in source `(instance, port)` order.
    pub(super) fn values<'a>(&'a self, names: &'a Interner) -> impl Iterator<Item = &'a BindingRt> {
        names
            .iter()
            .filter_map(|(_, id)| self.by_source.get(id as usize))
            .flatten()
    }
}
