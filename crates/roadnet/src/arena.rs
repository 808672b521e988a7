//! A slab/CSR arena for the per-edge lists on the hot tick path.
//!
//! The monitors keep several *per-edge* tables (resident objects, influence
//! lists, replica buckets). The obvious `Vec<Vec<T>>` layout costs one heap
//! allocation per non-empty edge, scatters the lists across the heap, and
//! re-allocates whenever a list outgrows its capacity — on every tick, in
//! the middle of the expansion loops.
//!
//! [`SpanArena`] flattens all lists of one table into a **single backing
//! buffer**: each slot (edge) owns a contiguous *span* `(offset, len,
//! capacity)`. Spans grow in power-of-two size classes; outgrown spans are
//! recycled through per-class **free lists**, so in steady state a tick
//! performs **zero heap allocation** — growth carves from the buffer's
//! existing capacity or reuses a freed span. The only true allocations are
//! backing-buffer reallocation (amortised doubling, counted in
//! [`SpanArena::alloc_events`]) and the rare free-list bookkeeping growth.
//!
//! Spans also give capacity back: a list that drains to a quarter of its
//! span moves (in order) into the class that holds twice its length, and an
//! emptied list releases its span. So the carved buffer follows the lists
//! that are populated *now* — under a moving hotspot the spans the hotspot
//! leaves behind serve the next one instead of fresh buffer being carved.
//!
//! The element type must be `Copy`: span growth moves elements with a
//! `memcpy`-style `copy_within`, and carving materialises the span's spare
//! capacity by replicating a witness value (only the first `len` elements
//! of a span are ever observable).

/// One slot's view into the backing buffer.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    off: u32,
    len: u32,
    cap: u32,
}

/// Smallest span capacity carved for a slot's first element.
const MIN_CAP: u32 = 4;

/// A flat arena of per-slot lists with free-list span reuse.
#[derive(Clone, Debug)]
pub struct SpanArena<T: Copy> {
    buf: Vec<T>,
    spans: Vec<Span>,
    /// Freed spans by power-of-two capacity class: `free[c]` holds offsets
    /// of spans with capacity `MIN_CAP << c`.
    free: Vec<Vec<u32>>,
    /// Times the backing buffer had to reallocate (capacity growth). Zero
    /// across a tick means the tick did no list-driven heap allocation.
    allocs: u64,
}

impl<T: Copy> Default for SpanArena<T> {
    fn default() -> Self {
        Self::new(0)
    }
}

impl<T: Copy> SpanArena<T> {
    /// An arena with `num_slots` empty lists.
    ///
    /// Construction pre-reserves one `MIN_CAP`-sized span of backing
    /// capacity per slot, so first-touch carves during operation extend the
    /// buffer *within* existing capacity instead of reallocating mid-tick.
    /// This is a one-time construction cost, not an alloc event.
    pub fn new(num_slots: usize) -> Self {
        Self {
            buf: Vec::with_capacity(num_slots.saturating_mul(MIN_CAP as usize)),
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            spans: vec![Span::default(); num_slots],
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            free: Vec::new(),
            allocs: 0,
        }
    }

    /// Number of slots.
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.spans.len()
    }

    /// The elements of `slot`.
    #[inline]
    pub fn get(&self, slot: usize) -> &[T] {
        let s = self.spans[slot];
        &self.buf[s.off as usize..(s.off + s.len) as usize]
    }

    /// The elements of `slot`, mutably.
    #[inline]
    pub fn get_mut(&mut self, slot: usize) -> &mut [T] {
        let s = self.spans[slot];
        &mut self.buf[s.off as usize..(s.off + s.len) as usize]
    }

    /// Number of elements in `slot`.
    #[inline]
    pub fn len_of(&self, slot: usize) -> usize {
        self.spans[slot].len as usize
    }

    /// Free-list class of a span capacity (capacities are `MIN_CAP << c`).
    #[inline]
    fn class_of(cap: u32) -> usize {
        debug_assert!(cap.is_power_of_two() && cap >= MIN_CAP);
        (cap / MIN_CAP).trailing_zeros() as usize
    }

    /// Carves or recycles a span of exactly `cap` (a power of two ≥
    /// [`MIN_CAP`]), materialising fresh buffer space with `witness`.
    ///
    /// When the buffer must grow it reserves ~4× the current capacity, which
    /// pushes further reallocations out of the steady state: spans that
    /// drain go back to their free lists, so the carved length follows the
    /// live lists rather than every list that ever existed.
    fn acquire(&mut self, cap: u32, witness: T) -> u32 {
        let class = Self::class_of(cap);
        if let Some(off) = self.free.get_mut(class).and_then(Vec::pop) {
            return off;
        }
        let off = self.buf.len();
        let need = off + cap as usize;
        if need > self.buf.capacity() {
            self.allocs += 1;
            let target = need.max(self.buf.capacity().saturating_mul(4));
            self.buf.reserve_exact(target - off);
        }
        self.buf.resize(need, witness);
        u32::try_from(off).expect("arena buffer exceeds u32 offsets")
    }

    /// Appends `value` to `slot`, growing its span as needed. Returns the
    /// element's index within the slot.
    pub fn push(&mut self, slot: usize, value: T) -> usize {
        let s = self.spans[slot];
        if s.len < s.cap {
            self.buf[(s.off + s.len) as usize] = value;
            self.spans[slot].len += 1;
            return s.len as usize;
        }
        // Outgrown: acquire the next size class, move, free the old span.
        let new_cap = (s.cap * 2).max(MIN_CAP);
        let new_off = self.acquire(new_cap, value);
        self.buf
            .copy_within(s.off as usize..(s.off + s.len) as usize, new_off as usize);
        self.buf[(new_off + s.len) as usize] = value;
        if s.cap >= MIN_CAP {
            self.release(s.off, s.cap);
        }
        self.spans[slot] = Span {
            off: new_off,
            len: s.len + 1,
            cap: new_cap,
        };
        s.len as usize
    }

    /// Removes and returns the element at `idx` of `slot`, moving the
    /// slot's last element into its place (`Vec::swap_remove` semantics —
    /// the caller can read the moved element at `idx` afterwards to fix up
    /// positional back-references).
    ///
    /// A list left at a quarter of its span or less moves into the class
    /// that holds twice its length, elements in the same order (so indices
    /// within the slot stay valid); an emptied list frees its span.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds for the slot.
    pub fn swap_remove(&mut self, slot: usize, idx: usize) -> T {
        let s = self.spans[slot];
        assert!((idx as u32) < s.len, "swap_remove index out of bounds");
        let last = (s.off + s.len - 1) as usize;
        let at = s.off as usize + idx;
        let out = self.buf[at];
        self.buf[at] = self.buf[last];
        let len = s.len - 1;
        if len == 0 {
            self.release(s.off, s.cap);
            self.spans[slot] = Span::default();
        } else if len * 4 <= s.cap && s.cap > MIN_CAP {
            let cap = (2 * len).next_power_of_two().max(MIN_CAP);
            let off = self.acquire(cap, out);
            self.buf
                .copy_within(s.off as usize..(s.off + len) as usize, off as usize);
            self.release(s.off, s.cap);
            self.spans[slot] = Span { off, len, cap };
        } else {
            self.spans[slot].len = len;
        }
        out
    }

    /// Puts the span at `off` of capacity `cap` on its class's free list.
    fn release(&mut self, off: u32, cap: u32) {
        let class = Self::class_of(cap);
        if self.free.len() <= class {
            // lint: allow(hot-path-alloc): one list per size class (at most 30, u32 capacities), created the first time a span of that class is freed
            self.free.resize_with(class + 1, Vec::new);
        }
        self.free[class].push(off);
    }

    /// Backing-buffer reallocation count (see the module docs). A tick-path
    /// steady state holds this constant.
    #[inline]
    pub fn alloc_events(&self) -> u64 {
        self.allocs
    }

    /// Returns the alloc-event count accumulated since the last take and
    /// resets it (monitors fold this into their per-tick counters).
    pub fn take_alloc_events(&mut self) -> u64 {
        std::mem::take(&mut self.allocs)
    }

    /// Approximate resident bytes: carved spans (the buffer's used length),
    /// the span table, and the free lists. Deliberately excludes the
    /// untouched part of the construction-time reservation — that is
    /// workload-independent scratch headroom, and including it would let a
    /// fixed constant dominate the state-size comparisons the benchmarks
    /// report.
    pub fn memory_bytes(&self) -> usize {
        self.buf.len() * std::mem::size_of::<T>()
            + self.spans.capacity() * std::mem::size_of::<Span>()
            + self
                .free
                .iter()
                .map(|f| f.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()
    }
}

/// A slab of fixed-size slots with free-list recycling — the pooled-record
/// sibling of [`SpanArena`]'s pooled lists.
///
/// Callers that keep many small linked structures alive at once (e.g. the
/// monitor-wide pool of expansion-tree nodes) allocate each record as one
/// slot and wire the structures together with `u32` slot indices. Freeing
/// pushes the index onto a free list whose capacity is kept at least as
/// large as the slab, so in steady state both `alloc` and `free` are
/// pointer-free array operations with **zero heap allocation** — the only
/// true allocations are slab capacity growth (amortised doubling, counted
/// in [`SlotPool::take_alloc_events`]).
///
/// Freed slots keep their previous contents until reallocated; a caller
/// tearing down a linked structure may therefore keep *reading* nodes it
/// has already freed for the duration of the walk (nothing allocates in
/// between), which is what makes stackless post-order teardown possible.
#[derive(Clone, Debug)]
pub struct SlotPool<T> {
    slab: Vec<T>,
    /// Indices of freed slots, reused LIFO.
    free: Vec<u32>,
    /// Slab capacity growth events (see the type docs).
    allocs: u64,
    /// Slots served from the free list instead of fresh slab space.
    recycled: u64,
}

impl<T> Default for SlotPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SlotPool<T> {
    /// An empty pool (allocates nothing until the first [`Self::alloc`]).
    pub fn new() -> Self {
        Self {
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            slab: Vec::new(),
            // lint: allow(hot-path-alloc): allocation at construction/install time; steady-state ticks only reuse this capacity (runtime gate pins alloc_events at 0)
            free: Vec::new(),
            allocs: 0,
            recycled: 0,
        }
    }

    /// Total slots ever carved (live + free).
    #[inline]
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// Whether the pool has never carved a slot.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Currently live (allocated, not freed) slots.
    #[inline]
    pub fn live(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Allocates a slot holding `value`, recycling a freed slot when one
    /// exists. O(1); allocation-free except on slab capacity growth.
    pub fn alloc(&mut self, value: T) -> u32 {
        if let Some(i) = self.free.pop() {
            self.recycled += 1;
            self.slab[i as usize] = value;
            return i;
        }
        if self.slab.len() == self.slab.capacity() {
            self.allocs += 1;
            // 4x growth, like the span arena: the aggressive factor pushes
            // further reallocations out of the steady state (freed slots
            // are reused first, so the slab follows the live nodes).
            let target = (self.slab.capacity() * 4).max(64);
            self.slab.reserve_exact(target - self.slab.len());
            // The free list can never hold more entries than the slab has
            // slots; growing it in lock-step here means `free` never
            // reallocates on its own.
            if self.free.capacity() < self.slab.capacity() {
                let need = self.slab.capacity() - self.free.len();
                self.free.reserve_exact(need);
            }
        }
        let i = u32::try_from(self.slab.len()).expect("slot pool exceeds u32 indices");
        self.slab.push(value);
        i
    }

    /// Pre-provisions slab (and free-list) capacity for at least
    /// `total_slots` slots **without** counting an alloc event: this is
    /// deliberate warm-up at construction time (e.g. a monitor built with
    /// a tree-pool sizing hint), not adaptive growth on the tick path, so
    /// it must not trip the zero-alloc steady-state accounting.
    pub fn reserve(&mut self, total_slots: usize) {
        if self.slab.capacity() < total_slots {
            self.slab.reserve_exact(total_slots - self.slab.len());
        }
        if self.free.capacity() < self.slab.capacity() {
            let need = self.slab.capacity() - self.free.len();
            self.free.reserve_exact(need);
        }
    }

    /// Returns `slot` to the free list. The slot's contents stay readable
    /// until it is re-allocated. O(1), never allocates.
    ///
    /// # Panics
    /// Panics (debug builds) on an out-of-range or already-free slot.
    pub fn free(&mut self, slot: u32) {
        debug_assert!((slot as usize) < self.slab.len(), "free of uncarved slot");
        debug_assert!(!self.free.contains(&slot), "double free of slot {slot}");
        self.free.push(slot);
    }

    /// Slab capacity growth events since the last take.
    pub fn take_alloc_events(&mut self) -> u64 {
        std::mem::take(&mut self.allocs)
    }

    /// Free-list reuses since the last take.
    pub fn take_recycled(&mut self) -> u64 {
        std::mem::take(&mut self.recycled)
    }

    /// Approximate resident bytes (slab + free list).
    pub fn memory_bytes(&self) -> usize {
        self.slab.capacity() * std::mem::size_of::<T>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }
}

impl<T> std::ops::Index<u32> for SlotPool<T> {
    type Output = T;

    #[inline]
    fn index(&self, slot: u32) -> &T {
        &self.slab[slot as usize]
    }
}

impl<T> std::ops::IndexMut<u32> for SlotPool<T> {
    #[inline]
    fn index_mut(&mut self, slot: u32) -> &mut T {
        &mut self.slab[slot as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut a: SpanArena<u32> = SpanArena::new(3);
        assert_eq!(a.num_slots(), 3);
        for i in 0..10 {
            a.push(1, i);
        }
        a.push(0, 99);
        assert_eq!(a.get(1), (0..10).collect::<Vec<_>>().as_slice());
        assert_eq!(a.get(0), &[99]);
        assert!(a.get(2).is_empty());
        assert_eq!(a.len_of(1), 10);
    }

    #[test]
    fn swap_remove_moves_last() {
        let mut a: SpanArena<u32> = SpanArena::new(1);
        for i in 0..5 {
            a.push(0, i);
        }
        assert_eq!(a.swap_remove(0, 1), 1);
        assert_eq!(a.get(0), &[0, 4, 2, 3]);
        assert_eq!(a.swap_remove(0, 3), 3);
        assert_eq!(a.get(0), &[0, 4, 2]);
    }

    #[test]
    fn freed_spans_are_recycled() {
        let mut a: SpanArena<u64> = SpanArena::new(2);
        // Grow slot 0 through several classes, freeing 4- and 8-spans.
        for i in 0..9 {
            a.push(0, i);
        }
        let bytes_before = a.buf.len();
        // Slot 1 should reuse the freed 4-span (and then the freed 8-span)
        // without extending the buffer.
        for i in 0..8 {
            a.push(1, i);
        }
        assert_eq!(a.buf.len(), bytes_before, "freed spans must be reused");
        assert_eq!(a.get(1), (0..8).collect::<Vec<_>>().as_slice());
        assert_eq!(a.get(0), (0..9).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn alloc_events_go_quiet_in_steady_state() {
        let mut a: SpanArena<u32> = SpanArena::new(8);
        for round in 0..4u32 {
            for s in 0..8 {
                for i in 0..16 {
                    a.push(s, round * 100 + i);
                }
            }
            for s in 0..8 {
                while a.len_of(s) > 0 {
                    a.swap_remove(s, 0);
                }
            }
        }
        a.take_alloc_events();
        // Same churn again: all spans and capacity already exist.
        for s in 0..8 {
            for i in 0..16 {
                a.push(s, i);
            }
        }
        assert_eq!(a.alloc_events(), 0, "steady-state churn must not allocate");
    }

    #[test]
    fn shrinking_keeps_order_and_emptied_spans_are_reused() {
        let mut a: SpanArena<u32> = SpanArena::new(2);
        for i in 0..64 {
            a.push(0, i);
        }
        let mut model: Vec<u32> = (0..64).collect();
        // Drain from the middle through the 64 → 32 → 16 → 8 → 4 moves.
        while model.len() > 1 {
            let idx = model.len() / 3;
            assert_eq!(a.swap_remove(0, idx), model.swap_remove(idx));
            assert_eq!(a.get(0), model.as_slice());
        }
        let carved = a.buf.len();
        a.swap_remove(0, 0);
        assert!(a.get(0).is_empty());
        // Slot 1 grows through the spans slot 0 gave back.
        for i in 0..64 {
            a.push(1, i);
        }
        assert_eq!(a.buf.len(), carved, "drained spans must be reused");
        assert_eq!(a.get(1), (0..64).collect::<Vec<_>>().as_slice());
    }

    /// A hotspot drifting over the slots: each list fills to 64 while a
    /// window moving one slot per round passes over it, and drains behind
    /// it. The carved buffer follows the lists live at once, not every
    /// list the window has ever touched.
    #[test]
    fn drifting_window_carves_for_the_live_lists_only() {
        const ROUNDS: usize = 1_000;
        const WIDTH: usize = 8;
        const STEP: u32 = 16;
        let mut a: SpanArena<u32> = SpanArena::new(ROUNDS);
        let mut peak_live = 0;
        for round in 0..ROUNDS + WIDTH {
            let window = round.saturating_sub(WIDTH - 1)..(round + 1).min(ROUNDS);
            for slot in window.clone() {
                if round - slot < WIDTH / 2 {
                    for i in 0..STEP {
                        a.push(slot, i);
                    }
                } else {
                    for i in 0..STEP as usize {
                        a.swap_remove(slot, (round + i) % a.len_of(slot));
                    }
                }
            }
            let live: usize = window.map(|s| a.len_of(s)).sum();
            peak_live = peak_live.max(live);
        }
        assert_eq!(peak_live, 64 * WIDTH / 2);
        assert!((0..ROUNDS).all(|s| a.len_of(s) == 0));
        let bound = 4 * peak_live + MIN_CAP as usize * ROUNDS;
        assert!(
            a.buf.len() <= bound,
            "carved {} slots for a peak of {peak_live} live elements",
            a.buf.len()
        );
    }

    #[test]
    fn get_mut_allows_in_place_edits() {
        let mut a: SpanArena<i32> = SpanArena::new(1);
        a.push(0, 1);
        a.push(0, 2);
        a.get_mut(0)[1] = 7;
        assert_eq!(a.get(0), &[1, 7]);
    }

    #[test]
    fn memory_is_accounted() {
        let mut a: SpanArena<u64> = SpanArena::new(4);
        a.push(2, 5);
        assert!(a.memory_bytes() > 0);
    }

    #[test]
    fn slot_pool_allocates_and_recycles() {
        let mut p: SlotPool<u64> = SlotPool::new();
        let a = p.alloc(10);
        let b = p.alloc(20);
        assert_eq!(p[a], 10);
        assert_eq!(p[b], 20);
        assert_eq!(p.live(), 2);
        p.free(a);
        assert_eq!(p.live(), 1);
        // Freed contents stay readable until reallocated.
        assert_eq!(p[a], 10);
        let c = p.alloc(30);
        assert_eq!(c, a, "free list is LIFO");
        assert_eq!(p[c], 30);
        assert_eq!(p.take_recycled(), 1);
        p[b] = 21;
        assert_eq!(p[b], 21);
        assert!(p.memory_bytes() > 0);
    }

    #[test]
    fn slot_pool_steady_state_is_allocation_free() {
        let mut p: SlotPool<u32> = SlotPool::new();
        let mut slots = Vec::new();
        for i in 0..100 {
            slots.push(p.alloc(i));
        }
        p.take_alloc_events();
        // Churn entirely within the carved capacity: no further allocs.
        for _ in 0..50 {
            for &s in &slots {
                p.free(s);
            }
            slots.clear();
            for i in 0..100 {
                slots.push(p.alloc(i));
            }
        }
        assert_eq!(
            p.take_alloc_events(),
            0,
            "steady-state slot churn must not grow the slab"
        );
        assert_eq!(p.live(), 100);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn slot_pool_double_free_is_caught() {
        let mut p: SlotPool<u8> = SlotPool::new();
        let a = p.alloc(1);
        p.free(a);
        p.free(a);
    }
}
