//! Slab arenas: freelist-recycled object pools for the simulation hot path.
//!
//! A discrete-event run at fleet scale churns through hundreds of millions
//! of events and packets. Allocating each one on the heap would put the
//! allocator on the hot path, and copying each by value through every queue
//! would put `memcpy` there; instead, the network engine keeps two slabs —
//! one of pending events, one of packets in the fabric — and moves only
//! 4-byte [`SlotId`]s through its future-event list, port queues, in-flight
//! slots and `Arrive` events. A packet is parked once when it enters the
//! fabric and taken out once when it leaves it. Each slab's backing vector
//! grows to the high-water mark of *outstanding* objects (a few thousand
//! even for multi-thousand-host fabrics) and is then recycled forever via an
//! intrusive freelist — steady-state scheduling performs zero heap
//! allocation.
//!
//! Determinism: slot assignment is a pure function of the insert/remove
//! sequence (LIFO freelist), so two runs dispatching the same events assign
//! identical ids. Nothing downstream may depend on id *values* anyway —
//! they are handles, not ordering keys.

/// Handle to an object resident in a [`Slab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(u32);

impl SlotId {
    /// The raw slot index (stable until the slot is removed).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

enum Slot<T> {
    /// Slot holds a live object.
    Full(T),
    /// Slot is free; value is the next free slot (`u32::MAX` = end of list).
    Free(u32),
}

/// A freelist-recycled arena: O(1) insert and remove, stable ids, zero
/// steady-state allocation once warm.
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// Head of the intrusive freelist (`u32::MAX` = empty).
    free_head: u32,
    len: usize,
}

const NIL: u32 = u32::MAX;

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab {
            // alloc: the arena's own backing store; grows amortized, and
            // slot recycling keeps it from growing at steady state.
            slots: Vec::new(),
            free_head: NIL,
            len: 0,
        }
    }

    /// An empty slab with room for `cap` objects before the first growth.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            free_head: NIL,
            len: 0,
        }
    }

    /// Live objects resident in the slab.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab holds no live objects.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of slots ever allocated (backing-store size).
    pub fn capacity_slots(&self) -> usize {
        self.slots.len()
    }

    /// Park `value` and return its handle. Recycles a freed slot when one
    /// exists; grows the backing vector only at the high-water mark.
    pub fn insert(&mut self, value: T) -> SlotId {
        self.len += 1;
        if self.free_head != NIL {
            let idx = self.free_head;
            match self.slots[idx as usize] {
                Slot::Free(next) => self.free_head = next,
                Slot::Full(_) => unreachable!("freelist points at a live slot"),
            }
            self.slots[idx as usize] = Slot::Full(value);
            SlotId(idx)
        } else {
            let idx = self.slots.len();
            assert!(idx < NIL as usize, "slab overflow: 2^32-1 live objects");
            self.slots.push(Slot::Full(value));
            SlotId(idx as u32)
        }
    }

    /// Take the object out of `id`'s slot and put the slot on the freelist.
    ///
    /// Panics if the slot is already free — a double-remove is always an
    /// engine bug and silently returning garbage would corrupt the run.
    pub fn remove(&mut self, id: SlotId) -> T {
        let slot = std::mem::replace(&mut self.slots[id.index()], Slot::Free(self.free_head));
        match slot {
            Slot::Full(value) => {
                self.free_head = id.0;
                self.len -= 1;
                value
            }
            Slot::Free(next) => {
                // Restore the freelist before panicking so a caught panic
                // (tests) leaves the slab coherent.
                self.slots[id.index()] = Slot::Free(next);
                panic!("slab: remove of free slot {}", id.0);
            }
        }
    }

    /// Borrow the object in `id`'s slot.
    pub fn get(&self, id: SlotId) -> Option<&T> {
        match self.slots.get(id.index()) {
            Some(Slot::Full(v)) => Some(v),
            _ => None,
        }
    }

    /// Mutably borrow the object in `id`'s slot.
    pub fn get_mut(&mut self, id: SlotId) -> Option<&mut T> {
        match self.slots.get_mut(id.index()) {
            Some(Slot::Full(v)) => Some(v),
            _ => None,
        }
    }

    /// The live objects, in slot order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|slot| match slot {
            Slot::Full(v) => Some(v),
            Slot::Free(_) => None,
        })
    }
}

/// `slab[id]` borrows a live object; indexing a free slot panics, like
/// [`Slab::remove`] does, because a stale handle is always an engine bug.
impl<T> std::ops::Index<SlotId> for Slab<T> {
    type Output = T;

    #[inline]
    fn index(&self, id: SlotId) -> &T {
        match &self.slots[id.index()] {
            Slot::Full(v) => v,
            Slot::Free(_) => panic!("slab: index of free slot {}", id.0),
        }
    }
}

impl<T> std::ops::IndexMut<SlotId> for Slab<T> {
    #[inline]
    fn index_mut(&mut self, id: SlotId) -> &mut T {
        match &mut self.slots[id.index()] {
            Slot::Full(v) => v,
            Slot::Free(_) => panic!("slab: index of free slot {}", id.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.remove(a), "a");
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.remove(b), "b");
        assert!(slab.is_empty());
    }

    #[test]
    fn slots_are_recycled_lifo_and_deterministic() {
        let mut slab = Slab::new();
        let ids: Vec<SlotId> = (0..4).map(|i| slab.insert(i)).collect();
        slab.remove(ids[1]);
        slab.remove(ids[3]);
        // LIFO: slot 3 first, then slot 1, then growth.
        assert_eq!(slab.insert(10), ids[3]);
        assert_eq!(slab.insert(11), ids[1]);
        assert_eq!(slab.insert(12).index(), 4);
        assert_eq!(slab.capacity_slots(), 5);
    }

    #[test]
    fn steady_state_never_grows() {
        let mut slab = Slab::new();
        // Warm to a working set of 8.
        let mut live: Vec<SlotId> = (0..8).map(|i| slab.insert(i)).collect();
        let cap = slab.capacity_slots();
        for round in 0..1000u64 {
            let id = live.remove((round % 7) as usize);
            slab.remove(id);
            live.push(slab.insert(round));
        }
        assert_eq!(slab.capacity_slots(), cap, "steady state must not grow");
        assert_eq!(slab.len(), 8);
    }

    #[test]
    fn index_and_values_see_live_slots_only() {
        let mut slab = Slab::new();
        let ids: Vec<SlotId> = (0..3).map(|i| slab.insert(i * 10)).collect();
        slab[ids[2]] += 1;
        assert_eq!(slab[ids[2]], 21);
        slab.remove(ids[1]);
        assert_eq!(slab.values().copied().collect::<Vec<_>>(), [0, 21]);
    }

    #[test]
    #[should_panic(expected = "index of free slot")]
    fn index_of_free_slot_panics() {
        let mut slab = Slab::new();
        let id = slab.insert(1u8);
        slab.remove(id);
        let _ = slab[id];
    }

    #[test]
    #[should_panic(expected = "remove of free slot")]
    fn double_remove_panics() {
        let mut slab = Slab::new();
        let id = slab.insert(1u8);
        slab.remove(id);
        slab.remove(id);
    }
}
