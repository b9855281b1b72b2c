//! [`Bytes`], the payload type every frame travels in, and [`FramePool`],
//! which lets a writer reuse a frame's storage once every receiver has
//! dropped it.

use std::collections::VecDeque;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex, PoisonError};

/// Bytes in front of a frame's content: its length, then the serial number
/// a [`FramePool`] handed it out under, each a little-endian `u32`. A
/// pooled frame's storage may be longer than the frame it holds.
const HEADER: usize = 8;

/// An immutable byte string whose clones share one allocation, so a frame
/// addressed to many receivers is written once. Equality compares content.
/// A frame holds at most `u32::MAX` bytes.
#[derive(Clone)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    /// A frame holding a copy of `data`.
    ///
    /// # Panics
    ///
    /// If `data` is longer than `u32::MAX` bytes.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self::with_room(data, data.len(), 0)
    }

    /// A frame holding a copy of `data` in storage for `room` bytes,
    /// stamped with `serial`.
    fn with_room(data: &[u8], room: usize, serial: u32) -> Self {
        let mut frame = Self(std::iter::repeat_n(0, HEADER + room.max(data.len())).collect());
        assert!(
            frame.refill(data, serial),
            "a frame holds at most u32::MAX bytes"
        );
        frame
    }

    /// Bytes the storage can hold.
    fn room(&self) -> usize {
        self.0.len().saturating_sub(HEADER)
    }

    /// The serial number stamped on the frame when it was last filled.
    fn serial(&self) -> u32 {
        self.0
            .get(4..HEADER)
            .and_then(|b| b.try_into().ok())
            .map_or(0, u32::from_le_bytes)
    }

    /// Whether no other handle shares the storage.
    fn is_free(&self) -> bool {
        Arc::strong_count(&self.0) == 1
    }

    /// Overwrites the frame with `data`, stamped with `serial`, when its
    /// storage is long enough and no other handle shares it; returns
    /// whether it did.
    fn refill(&mut self, data: &[u8], serial: u32) -> bool {
        let Ok(len) = u32::try_from(data.len()) else {
            return false;
        };
        let storage = Arc::get_mut(&mut self.0);
        let Some((head, body)) = storage.and_then(|b| b.split_at_mut_checked(HEADER)) else {
            return false;
        };
        let Some(body) = body.get_mut(..data.len()) else {
            return false;
        };
        let (len_at, serial_at) = head.split_at_mut(4);
        len_at.copy_from_slice(&len.to_le_bytes());
        serial_at.copy_from_slice(&serial.to_le_bytes());
        body.copy_from_slice(data);
        true
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Self::copy_from_slice(&data)
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        let (head, body) = self.0.split_at_checked(HEADER).unwrap_or_default();
        let len = head
            .get(..4)
            .and_then(|b| b.try_into().ok())
            .map_or(0, u32::from_le_bytes);
        body.get(..len as usize).unwrap_or_default()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"{}\"", self.escape_ascii())
    }
}

/// How far back a [`FramePool`]'s stock looks, in frames handed out: a
/// frame still held this many frames after its own is taken to be kept (by
/// a history, a recorder, a test) and left to whoever keeps it, and free
/// frames no hand-out needed over this many frames are given back.
const HORIZON: u32 = 1 << 16;

/// Size classes of pooled storage: 16-byte steps up to 128 bytes, then
/// eight steps per doubling, so storage is at most an eighth longer than
/// the frame it was made for.
fn class_of(len: usize) -> usize {
    if len <= 128 {
        return len.div_ceil(16).saturating_sub(1);
    }
    let p = (len - 1).ilog2() as usize;
    let step = 1 << (p - 3);
    8 + (p - 7) * 8 + (len - (1 << p)).div_ceil(step) - 1
}

/// Bytes of storage of size class `class`.
fn class_room(class: usize) -> usize {
    if class < 8 {
        return (class + 1) * 16;
    }
    let p = 7 + (class - 8) / 8;
    (1 << p) + ((class - 8) % 8 + 1) * (1 << (p - 3))
}

/// The frames a [`FramePool`] shares among its writers.
#[derive(Debug, Default)]
struct Stock {
    /// Frames handed out, oldest first.
    out: VecDeque<Bytes>,
    /// Frames no receiver holds any more, by size class.
    free: Vec<Class>,
    /// Frames handed out so far; each carries the count at its hand-out.
    serial: u32,
    /// Frames handed out since the last look at every frame in `out`.
    since_sweep: usize,
}

/// The free frames of one size class, most recently freed last.
#[derive(Debug, Default)]
struct Class {
    frames: Vec<Bytes>,
    /// The fewest frames the class held since the last trim: that many
    /// were not needed all that time.
    low: usize,
}

impl Class {
    /// Takes the most recently freed frame.
    fn pop(&mut self) -> Option<Bytes> {
        let frame = self.frames.pop()?;
        self.low = self.low.min(self.frames.len());
        Some(frame)
    }
}

impl Stock {
    fn copy(&mut self, data: &[u8]) -> Bytes {
        self.reclaim(2);
        let class = class_of(data.len());
        self.serial = self.serial.wrapping_add(1);
        if self.serial.is_multiple_of(HORIZON) {
            self.trim();
        }
        self.since_sweep += 1;
        let mut reused = self.take(class);
        if reused.is_none() && self.since_sweep * 4 >= self.out.len() {
            // Before making a frame, look at every frame still out: their
            // receivers may have dropped some since the two-at-a-time look
            // passed them. Done at most once per quarter of `out` handed
            // out, so a copy costs at most four looks on average.
            self.since_sweep = 0;
            self.reclaim(self.out.len());
            reused = self.take(class);
        }
        let serial = self.serial;
        let frame = reused
            .and_then(|mut frame| frame.refill(data, serial).then_some(frame))
            .unwrap_or_else(|| Bytes::with_room(data, class_room(class), serial));
        self.out.push_back(frame.clone());
        frame
    }

    /// A free frame of size class `class` or the next, so long enough for
    /// a frame of that class.
    fn take(&mut self, class: usize) -> Option<Bytes> {
        (class..class + 2).find_map(|c| self.free.get_mut(c)?.pop())
    }

    /// Gives back the free frames no hand-out needed since the last trim,
    /// the least recently freed: a stock shrinks to its working set
    /// [`HORIZON`] frames after the traffic does.
    fn trim(&mut self) {
        for class in &mut self.free {
            class.frames.drain(..class.low.min(class.frames.len()));
            class.low = class.frames.len();
        }
    }

    /// Looks at the `n` oldest frames handed out: one no receiver holds
    /// goes back to its class, one still held goes to the back of the
    /// queue — unless it has been held for [`HORIZON`] frames, when the
    /// stock lets its keeper have it.
    fn reclaim(&mut self, n: usize) {
        for _ in 0..n {
            let Some(frame) = self.out.pop_front() else {
                return;
            };
            if frame.is_free() {
                self.put_back(frame);
            } else if self.serial.wrapping_sub(frame.serial()) < HORIZON {
                self.out.push_back(frame);
            }
        }
    }

    /// Files a free frame under the largest class its storage holds.
    fn put_back(&mut self, frame: Bytes) {
        let room = frame.room();
        let class = class_of(room);
        let Some(class) = class.checked_sub(usize::from(class_room(class) > room)) else {
            return;
        };
        if self.free.len() <= class {
            self.free.resize_with(class + 1, Class::default);
        }
        if let Some(class) = self.free.get_mut(class) {
            class.frames.push(frame);
        }
    }
}

/// Where a writer's frames come from, so that a frame's storage is reused
/// once every receiver has dropped it: a steady stream of frames allocates
/// nothing.
///
/// A writer starts with a pool of its own that keeps its last frame and
/// refills it while no receiver holds it — all a writer that sends one
/// frame at a time needs, and most writers (a client, a bot) do. The first
/// time that frame is still held, the pool becomes a stock of frames:
/// frames handed out wait in a queue, the ones no receiver holds any more
/// go back to free lists by size class, and a frame is taken from the free
/// list of its class (or the next larger), or else made — but only after
/// a look at every frame still out. Writers can share one stock
/// ([`FramePool::share`]; the writers on one [`crate::Bus`] share the
/// bus's, [`crate::Bus::frames`]), so that one writer's frames reuse what
/// another's receivers have dropped. A stock holds the most frames of
/// each class that were out at once, and gives back those no hand-out
/// needed over the last 65 536 frames. A frame still held 65 536 frames
/// after its own is left to whoever keeps it (a history, a recorder, a
/// test): it pins only its own storage and costs the stock one
/// allocation, not one per frame.
#[derive(Debug, Default)]
pub struct FramePool {
    /// The writer's last frame, while the pool is its own.
    solo: Option<Bytes>,
    /// The stock, once there is one.
    stock: Option<Arc<Mutex<Stock>>>,
}

impl FramePool {
    /// A frame holding a copy of `data`.
    pub fn copy(&mut self, data: &[u8]) -> Bytes {
        if self.solo.as_ref().is_some_and(|frame| !frame.is_free()) {
            // Still held: from now on the writer needs a stock.
            self.stock();
        }
        if let Some(stock) = &self.stock {
            // lint: allow(hot_lock, "the stock a bus's writers share: the critical section pops a free frame, copies the frame in and queues it (now and then after a look at every frame out, four looks a frame on average), with no I/O and, once the stock has grown, no allocation")
            let mut stock = stock.lock().unwrap_or_else(PoisonError::into_inner);
            return stock.copy(data);
        }
        match &mut self.solo {
            Some(frame) => {
                if !frame.refill(data, 0) {
                    *frame = Bytes::with_room(data, class_room(class_of(data.len())), 0);
                }
                frame.clone()
            }
            None => self
                .solo
                .insert(Bytes::with_room(data, class_room(class_of(data.len())), 0))
                .clone(),
        }
    }

    /// Another handle on this pool's frames, for a second writer: both
    /// take their frames from one stock (the pool becomes one if it is not
    /// one yet), so one writer's frames reuse what the other's receivers
    /// have dropped.
    pub fn share(&mut self) -> FramePool {
        FramePool {
            solo: None,
            stock: Some(Arc::clone(self.stock())),
        }
    }

    /// The pool's stock, which it becomes if it is not one yet; the last
    /// frame waits in its queue like every frame handed out.
    fn stock(&mut self) -> &Arc<Mutex<Stock>> {
        let solo = &mut self.solo;
        self.stock.get_or_insert_with(|| {
            let mut stock = Stock::default();
            stock.out.extend(solo.take());
            Arc::new(Mutex::new(stock))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clone_shares_its_storage() {
        let frame = Bytes::from(vec![1, 2, 3]);
        let copy = frame.clone();
        assert_eq!(frame.as_ptr(), copy.as_ptr());
        assert_eq!(Arc::strong_count(&frame.0), 2);
        drop(copy);
        assert_eq!(Arc::strong_count(&frame.0), 1);
    }

    #[test]
    fn frames_compare_by_content() {
        let a = Bytes::from(b"state".to_vec());
        let b = Bytes::copy_from_slice(b"state");
        assert_ne!(a.as_ptr(), b.as_ptr());
        assert_eq!(a, b);
        assert_ne!(a, Bytes::copy_from_slice(b"stale"));
        assert_eq!(&a[1..3], b"ta");
        assert_eq!(format!("{a:?}"), "b\"state\"");
        assert_eq!(
            format!("{:?}", Bytes::from(vec![0, b'"'])),
            "b\"\\x00\\\"\""
        );
        let mut pool = FramePool::default();
        assert_eq!(pool.copy(b"state"), a, "spare room is not content");
    }

    #[test]
    fn empty_frames_work() {
        let empty = Bytes::from(Vec::new());
        assert!(empty.is_empty());
        assert_eq!(empty, Bytes::copy_from_slice(&[]));
        assert_eq!(empty.clone().len(), 0);
        assert_eq!(format!("{empty:?}"), "b\"\"");
        assert!(FramePool::default().copy(&[]).is_empty());
    }

    #[test]
    fn size_classes_cover_every_length_with_little_to_spare() {
        for len in 0..100_000 {
            let class = class_of(len);
            let room = class_room(class);
            assert!(room >= len, "{len} bytes in class {class} of {room}");
            assert!(
                room == 16 || room - len <= (len / 8).max(15),
                "{len} bytes in {room}"
            );
            assert!(class == 0 || class_room(class - 1) < len.max(1), "{len}");
        }
    }

    #[test]
    fn a_dropped_frame_is_refilled_in_place() {
        let mut pool = FramePool::default();
        let first = pool.copy(b"first frame");
        let at = first.as_ptr();
        drop(first);
        let second = pool.copy(b"second");
        assert_eq!(second.as_ptr(), at, "same storage");
        assert_eq!(&second[..], b"second");
        drop(second);
        let longer = pool.copy(&[7; 200]);
        assert_ne!(longer.as_ptr(), at, "too short: a fresh frame");
        assert_eq!(&longer[..], &[7; 200][..]);
        assert!(pool.stock.is_none(), "one frame at a time needs no stock");
    }

    #[test]
    fn rounds_of_frames_reuse_storage() {
        let mut a = FramePool::default();
        let mut b = a.share();
        let mut storage = std::collections::BTreeSet::new();
        for r in 0..50u8 {
            // Two writers share the stock; their receivers drop each
            // round's frames before the next round.
            let frames: Vec<Bytes> = [40usize, 600, 30, 3000]
                .iter()
                .flat_map(|&len| [a.copy(&vec![r; len + usize::from(r % 3)]), b.copy(&[r; 9])])
                .collect();
            assert!(frames.iter().all(|f| f.iter().all(|&x| x == r)));
            storage.extend(frames.iter().map(|f| f.as_ptr()));
        }
        assert!(
            storage.len() <= 8,
            "{} distinct frames for 8 a round",
            storage.len()
        );
    }

    #[test]
    fn a_frame_held_for_a_round_costs_one_extra_frame() {
        // A peer holds each frame until the writer's next one is out.
        let mut pool = FramePool::default();
        let mut held = pool.copy(&[0; 100]);
        let mut storage = std::collections::BTreeSet::new();
        for r in 1..100u8 {
            held = pool.copy(&[r; 100]);
            storage.insert(held.as_ptr());
        }
        assert_eq!(&held[..], &[99; 100][..]);
        assert!(storage.len() <= 3, "{} frames", storage.len());
    }

    #[test]
    fn a_kept_frame_is_left_to_its_keeper() {
        let mut pool = FramePool::default();
        pool.share();
        let kept = pool.copy(b"kept");
        let mut storage = std::collections::BTreeSet::new();
        for _ in 0..=HORIZON + 8 {
            let frame = pool.copy(b"other");
            assert_ne!(frame.as_ptr(), kept.as_ptr());
            storage.insert(frame.as_ptr());
        }
        assert!(
            storage.len() <= 2,
            "{} frames: one per frame",
            storage.len()
        );
        assert_eq!(Arc::strong_count(&kept.0), 1, "the keeper owns it alone");
        assert_eq!(&kept[..], b"kept", "a kept frame never changes");
    }

    #[test]
    fn a_frame_dropped_behind_held_ones_is_found_before_one_is_made() {
        // Receivers hold 40 frames and drop one of the newest: the
        // two-at-a-time look from the oldest does not reach it, the look
        // at every frame out does, within a quarter of 40 hand-outs.
        let mut pool = FramePool::default();
        pool.share();
        let mut held: Vec<Bytes> = (0..40u8).map(|i| pool.copy(&[i; 50])).collect();
        let dropped = held.remove(37).as_ptr();
        let next: Vec<Bytes> = (0..10).map(|_| pool.copy(&[7; 50])).collect();
        assert!(next.iter().any(|f| f.as_ptr() == dropped));
    }

    #[test]
    fn a_stock_gives_back_what_the_traffic_no_longer_needs() {
        let mut pool = FramePool::default();
        let stock = Arc::clone(pool.stock());
        let kept = |stock: &Mutex<Stock>| -> usize {
            let stock = stock.lock().unwrap_or_else(PoisonError::into_inner);
            stock.out.len() + stock.free.iter().map(|c| c.frames.len()).sum::<usize>()
        };
        let burst: Vec<Bytes> = (0..200).map(|_| pool.copy(&[1; 300])).collect();
        drop(burst);
        for _ in 0..10 {
            drop(pool.copy(&[2; 300]));
        }
        assert_eq!(kept(&stock), 200, "the burst's frames wait for reuse");
        for _ in 0..2 * HORIZON {
            drop(pool.copy(&[2; 300]));
        }
        assert!(kept(&stock) <= 3, "{} frames kept", kept(&stock));
    }
}
