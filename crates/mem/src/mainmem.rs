//! Paged big-endian backing store behind a two-level page table.

use std::sync::atomic::{AtomicU64, Ordering};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u32 = (PAGE_SIZE as u32) - 1;
/// Address bits resolved by one leaf of the page table (4 MB).
const LEAF_SHIFT: u32 = 22;
const LEAF_ENTRIES: usize = 1 << (LEAF_SHIFT - PAGE_SHIFT);
const DIR_ENTRIES: usize = 1 << (32 - LEAF_SHIFT);

/// One bit per word of a page: bit `w % 64` of entry `w / 64` is set
/// once word `w` has been fetched.
type FetchBits = [u64; PAGE_SIZE / 4 / 64];

/// Set in a leaf entry once its page holds a fetched word, so a write
/// to a page without one tests this bit instead of the page's bitmap.
/// Page slots stay below 2^20, clear of it.
const HOLDS_FETCHED: u32 = 1 << 31;

/// Index of `addr`'s page within its leaf.
fn leaf_entry(addr: u32) -> usize {
    ((addr >> PAGE_SHIFT) as usize) & (LEAF_ENTRIES - 1)
}

/// A code generation no memory state has had before. Generations come
/// from one process-wide counter that starts at 1, so 0 is never
/// current.
fn fresh_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Whether any of words `first..=last` is set in `bits`.
fn any_fetched(bits: &FetchBits, first: usize, last: usize) -> bool {
    if first == last {
        // Every store the core issues is aligned and stays in one word.
        return bits[first / 64] >> (first % 64) & 1 != 0;
    }
    let (lo, hi) = (first / 64, last / 64);
    let head = u64::MAX << (first % 64);
    let tail = u64::MAX >> (63 - last % 64);
    if lo == hi {
        return bits[lo] & head & tail != 0;
    }
    bits[lo] & head != 0 || bits[lo + 1..hi].iter().any(|&b| b != 0) || bits[hi] & tail != 0
}

/// Flat 32-bit physical address space, backed by 4-KB pages that are
/// created on first write.
///
/// All multi-byte accesses are **big-endian**, matching SPARC V8.
/// Unwritten memory reads as zero without allocating (the simulator's
/// loader zero-fills `.bss` implicitly this way); any write, even of
/// zero, makes its page resident. Pages are never released.
///
/// The pages live contiguously in one arena, in creation order. A
/// two-level table maps an address to its page: a 1024-entry directory
/// of leaf numbers, one per 4-MB region, and 1024-entry leaves of page
/// slots. An access that stays within one page therefore costs one
/// table walk; only page-straddling and wrap-around accesses go byte by
/// byte. The directory and leaves are allocated on demand too, so a
/// program touching a few regions clones in a few memcpys.
///
/// # Code generations
///
/// Instruction fetch goes through [`MainMemory::fetch_u32`], which
/// marks the word fetched. [`MainMemory::code_generation`] names the
/// current state of every fetched word: while it is unchanged, each
/// fetched word still holds the value it was fetched with, so a decode
/// cached under a generation stays valid until the generation moves.
/// A fresh generation is taken
///
/// * by a write that lands on a fetched word: `write_*` or
///   [`MainMemory::load`] over the word, or
///   [`MainMemory::page_bytes_mut`] on its page,
/// * when a page becomes resident (a fetch from a page that is not
///   resident marks nothing), and
/// * by [`MainMemory::new`] and `clone`. Generations come from one
///   process-wide counter, so no two memory states share one: a clone
///   restored in place of the memory a decode came from never
///   validates that decode.
///
/// Writes to words never fetched keep the generation, so data stores
/// next to code do not invalidate cached decodes. Fetched marks are
/// never cleared. Every write reaches page bytes through one private
/// accessor that makes the check, so a new write method cannot skip it.
///
/// `MainMemory` is purely functional; all timing lives in
/// [`SystemBus`](crate::SystemBus) and the caches.
///
/// # Example
///
/// ```
/// use flexcore_mem::MainMemory;
/// let mut m = MainMemory::new();
/// m.write_u32(0x100, 0x1122_3344);
/// assert_eq!(m.read_u8(0x100), 0x11); // big-endian: MSB first
/// assert_eq!(m.read_u16(0x102), 0x3344);
/// ```
#[derive(Debug)]
pub struct MainMemory {
    /// Leaf number + 1 for each 4-MB region (0 = no leaf). Empty until
    /// the first write, then `DIR_ENTRIES` long.
    dir: Vec<u16>,
    /// Page slot + 1 for each page of a region (0 = not resident), with
    /// [`HOLDS_FETCHED`] set once the page holds a fetched word.
    leaves: Vec<[u32; LEAF_ENTRIES]>,
    /// Resident pages, in creation order.
    pages: Vec<[u8; PAGE_SIZE]>,
    /// Fetched words of each resident page, by arena slot.
    fetched: Vec<FetchBits>,
    /// The current code generation.
    generation: u64,
}

impl Default for MainMemory {
    fn default() -> MainMemory {
        MainMemory {
            dir: Vec::new(),
            leaves: Vec::new(),
            pages: Vec::new(),
            fetched: Vec::new(),
            generation: fresh_generation(),
        }
    }
}

impl Clone for MainMemory {
    /// Copies the contents and fetched marks under a fresh generation.
    fn clone(&self) -> MainMemory {
        MainMemory {
            dir: self.dir.clone(),
            leaves: self.leaves.clone(),
            pages: self.pages.clone(),
            fetched: self.fetched.clone(),
            generation: fresh_generation(),
        }
    }
}

impl MainMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> MainMemory {
        MainMemory::default()
    }

    /// The leaf entry of the page holding `addr`, if resident.
    #[inline]
    fn entry(&self, addr: u32) -> Option<u32> {
        let leaf = *self.dir.get((addr >> LEAF_SHIFT) as usize)?;
        if leaf == 0 {
            return None;
        }
        let entry = self.leaves[usize::from(leaf) - 1][leaf_entry(addr)];
        (entry != 0).then_some(entry)
    }

    /// [`MainMemory::entry`] for setting [`HOLDS_FETCHED`].
    fn entry_mut(&mut self, addr: u32) -> Option<&mut u32> {
        let leaf = *self.dir.get((addr >> LEAF_SHIFT) as usize)?;
        if leaf == 0 {
            return None;
        }
        let entry = &mut self.leaves[usize::from(leaf) - 1][leaf_entry(addr)];
        (*entry != 0).then_some(entry)
    }

    /// Arena slot of the page holding `addr`, if resident.
    #[inline]
    fn slot(&self, addr: u32) -> Option<usize> {
        self.entry(addr).map(|e| (e & !HOLDS_FETCHED) as usize - 1)
    }

    #[inline]
    fn page(&self, addr: u32) -> Option<&[u8; PAGE_SIZE]> {
        self.slot(addr).map(|s| &self.pages[s])
    }

    /// The page holding bytes `addr..addr + len` (all on one page) for
    /// writing, made resident first if needed; takes a fresh generation
    /// if the bytes overlap a fetched word. This is the only path to a
    /// page's bytes for writing, so every write method gets the
    /// generation check here and nowhere else. On a page that holds no
    /// fetched word the check is one flag test.
    fn page_mut(&mut self, addr: u32, len: usize) -> &mut [u8; PAGE_SIZE] {
        let Some(entry) = self.entry(addr) else {
            let slot = self.allocate(addr);
            return &mut self.pages[slot];
        };
        let slot = (entry & !HOLDS_FETCHED) as usize - 1;
        let off = (addr & PAGE_MASK) as usize;
        if entry & HOLDS_FETCHED != 0
            && any_fetched(&self.fetched[slot], off / 4, (off + len - 1) / 4)
        {
            self.generation = fresh_generation();
        }
        &mut self.pages[slot]
    }

    /// Makes the page holding `addr` resident and returns its slot.
    /// Takes a fresh generation: a fetch from the page while it was not
    /// resident read zeros without marking anything.
    fn allocate(&mut self, addr: u32) -> usize {
        self.generation = fresh_generation();
        if self.dir.is_empty() {
            self.dir = vec![0; DIR_ENTRIES];
        }
        let d = (addr >> LEAF_SHIFT) as usize;
        if self.dir[d] == 0 {
            self.leaves.push([0; LEAF_ENTRIES]);
            self.dir[d] = u16::try_from(self.leaves.len()).expect("at most DIR_ENTRIES leaves");
        }
        self.pages.push([0; PAGE_SIZE]);
        self.fetched.push(FetchBits::default());
        let slot = self.pages.len();
        self.leaves[usize::from(self.dir[d]) - 1][leaf_entry(addr)] =
            u32::try_from(slot).expect("at most 2^20 pages");
        slot - 1
    }

    /// Reads `N` bytes, in one page access unless they straddle a page
    /// boundary (or wrap around the top of the address space).
    fn read_bytes<const N: usize>(&self, addr: u32) -> [u8; N] {
        let off = (addr & PAGE_MASK) as usize;
        if off + N > PAGE_SIZE {
            return std::array::from_fn(|i| self.read_u8(addr.wrapping_add(i as u32)));
        }
        self.page(addr).and_then(|p| p[off..].first_chunk().copied()).unwrap_or([0; N])
    }

    /// Writes `N` bytes, in one page access unless they straddle a page
    /// boundary.
    fn write_bytes<const N: usize>(&mut self, addr: u32, bytes: [u8; N]) {
        let off = (addr & PAGE_MASK) as usize;
        if off + N > PAGE_SIZE {
            return self.load(addr, &bytes);
        }
        self.page_mut(addr, N)[off..off + N].copy_from_slice(&bytes);
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.page(addr).map_or(0, |p| p[(addr & PAGE_MASK) as usize])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.page_mut(addr, 1)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads a big-endian halfword. `addr` is interpreted as given; the
    /// caller (the core) enforces alignment traps.
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from_be_bytes(self.read_bytes(addr))
    }

    /// Writes a big-endian halfword.
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        self.write_bytes(addr, value.to_be_bytes());
    }

    /// Reads a big-endian word.
    pub fn read_u32(&self, addr: u32) -> u32 {
        u32::from_be_bytes(self.read_bytes(addr))
    }

    /// Writes a big-endian word.
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        self.write_bytes(addr, value.to_be_bytes());
    }

    /// Reads the word at `addr` for instruction fetch and marks the
    /// words its bytes lie in as fetched (where their pages are
    /// resident), so that a later write to them moves
    /// [`MainMemory::code_generation`].
    pub fn fetch_u32(&mut self, addr: u32) -> u32 {
        for a in [addr, addr.wrapping_add(3)] {
            if let Some(entry) = self.entry_mut(a) {
                *entry |= HOLDS_FETCHED;
                let slot = (*entry & !HOLDS_FETCHED) as usize - 1;
                let w = (a & PAGE_MASK) as usize / 4;
                self.fetched[slot][w / 64] |= 1 << (w % 64);
            }
        }
        self.read_u32(addr)
    }

    /// The current code generation: unchanged since a
    /// [`MainMemory::fetch_u32`] means the fetched word still reads the
    /// same (see [Code generations](MainMemory#code-generations)).
    #[inline]
    pub fn code_generation(&self) -> u64 {
        self.generation
    }

    /// Copies `bytes` into memory starting at `addr` (the program
    /// loader).
    pub fn load(&mut self, addr: u32, bytes: &[u8]) {
        let (mut addr, mut rest) = (addr, bytes);
        while !rest.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = rest.len().min(PAGE_SIZE - off);
            self.page_mut(addr, n)[off..off + n].copy_from_slice(&rest[..n]);
            addr = addr.wrapping_add(n as u32);
            rest = &rest[n..];
        }
    }

    /// Fills `out` with the bytes starting at `addr`, one page at a
    /// time (the read-side counterpart of [`MainMemory::load`]).
    pub fn read_into(&self, addr: u32, out: &mut [u8]) {
        let (mut addr, mut rest) = (addr, out);
        while !rest.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = rest.len().min(PAGE_SIZE - off);
            let (head, tail) = rest.split_at_mut(n);
            match self.page(addr) {
                Some(page) => head.copy_from_slice(&page[off..off + n]),
                None => head.fill(0),
            }
            addr = addr.wrapping_add(n as u32);
            rest = tail;
        }
    }

    /// Reads `len` bytes starting at `addr` into a fresh vector.
    pub fn dump(&self, addr: u32, len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        self.read_into(addr, &mut out);
        out
    }

    /// Number of 4-KB pages that have been touched.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// The page size used by [`MainMemory::page_indices`] /
    /// [`MainMemory::page_bytes`], in bytes.
    pub const PAGE_BYTES: usize = PAGE_SIZE;

    /// Indices of every resident page, sorted ascending. A page's base
    /// address is `index << 12`.
    ///
    /// Checkpointing uses this (together with
    /// [`MainMemory::page_bytes`]) to delta-compress memory against a
    /// baseline image without walking the whole 32-bit address space.
    pub fn page_indices(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.pages.len());
        for (d, &leaf) in self.dir.iter().enumerate() {
            if leaf == 0 {
                continue;
            }
            let slots = &self.leaves[usize::from(leaf) - 1];
            v.extend(
                (0..LEAF_ENTRIES)
                    .filter(|&i| slots[i] != 0)
                    .map(|i| ((d << (LEAF_SHIFT - PAGE_SHIFT)) | i) as u32),
            );
        }
        v
    }

    /// The raw bytes of a resident page, or `None` if the page has
    /// never been touched (and therefore reads as zero).
    #[inline]
    pub fn page_bytes(&self, index: u32) -> Option<&[u8]> {
        let addr = index.checked_mul(PAGE_SIZE as u32)?;
        self.page(addr).map(|p| &p[..])
    }

    /// The raw bytes of page `index`, made resident first if it was
    /// never touched (like any write). Takes a fresh generation if the
    /// page holds a fetched word.
    ///
    /// # Panics
    ///
    /// If `index` is not below `2^20` (the page would lie past the top
    /// of the 32-bit address space).
    #[inline]
    pub fn page_bytes_mut(&mut self, index: u32) -> &mut [u8] {
        let addr = index.checked_mul(PAGE_SIZE as u32).expect("page index below 2^20");
        &mut self.page_mut(addr, PAGE_SIZE)[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = MainMemory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u32(0xdead_beec), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn big_endian_layout() {
        let mut m = MainMemory::new();
        m.write_u32(0x40, 0x0102_0304);
        assert_eq!(m.read_u8(0x40), 0x01);
        assert_eq!(m.read_u8(0x43), 0x04);
        assert_eq!(m.read_u16(0x40), 0x0102);
        assert_eq!(m.read_u16(0x42), 0x0304);
    }

    #[test]
    fn cross_page_word_access() {
        let mut m = MainMemory::new();
        let addr = PAGE_SIZE as u32 - 2;
        m.write_u32(addr, 0xaabb_ccdd);
        assert_eq!(m.read_u32(addr), 0xaabb_ccdd);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn load_and_dump_round_trip() {
        let mut m = MainMemory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.load(0x1000, &data);
        assert_eq!(m.dump(0x1000, 256), data);
    }

    #[test]
    fn page_bytes_mut_makes_the_page_resident() {
        let mut m = MainMemory::new();
        m.page_bytes_mut(3)[5] = 0xab;
        assert_eq!(m.resident_pages(), 1);
        assert_eq!(m.read_u8(3 << PAGE_SHIFT | 5), 0xab);
        assert_eq!(m.page_bytes(3).map(<[u8]>::len), Some(PAGE_SIZE));
    }

    /// A memory with pages 1 and 2 resident and fetched words at 0x1000
    /// and at the last word of page 1, 0x1ffc.
    fn with_fetched_words() -> MainMemory {
        let mut m = MainMemory::new();
        m.load(0x1000, &[0xaa; 2 * PAGE_SIZE]);
        m.fetch_u32(0x1000);
        m.fetch_u32(0x1ffc);
        m
    }

    #[test]
    fn every_write_to_a_fetched_word_takes_a_fresh_generation() {
        type Write = fn(&mut MainMemory);
        let writes: [(&str, Write); 7] = [
            ("byte", |m| m.write_u8(0x1003, 0)),
            ("halfword", |m| m.write_u16(0x1002, 0)),
            ("word", |m| m.write_u32(0x1000, 0)),
            ("page-straddling word", |m| m.write_u32(0x1ffe, 0)),
            ("load", |m| m.load(0x1001, &[0; 2])),
            ("page_bytes_mut", |m| m.page_bytes_mut(1)[0x800] = 0),
            ("a fetched word on a page the write makes resident", |m| {
                m.fetch_u32(0x5000);
                m.write_u8(0x5000, 1);
            }),
        ];
        for (what, write) in writes {
            let mut m = with_fetched_words();
            let before = m.code_generation();
            write(&mut m);
            assert_ne!(m.code_generation(), before, "{what}");
        }
    }

    #[test]
    fn writes_to_unfetched_words_keep_the_generation() {
        let mut m = with_fetched_words();
        m.write_u8(0x3000, 0);
        let before = m.code_generation();
        m.write_u8(0x1004, 1);
        m.write_u16(0x1006, 2);
        m.write_u32(0x1ff8, 3);
        m.load(0x1010, &[4; 64]);
        m.page_bytes_mut(3)[0] = 5; // no fetched word on page 3
        assert_eq!(m.code_generation(), before);
        // A write that allocates a page takes one, fetched or not.
        m.write_u8(0x9000, 6);
        assert_ne!(m.code_generation(), before);
    }

    #[test]
    fn fetch_marks_both_words_of_a_misaligned_fetch() {
        let mut m = with_fetched_words();
        m.fetch_u32(0x1402);
        let before = m.code_generation();
        m.write_u8(0x1405, 0);
        assert_ne!(m.code_generation(), before);
    }

    #[test]
    fn new_and_clone_never_reuse_a_generation() {
        let m = with_fetched_words();
        let mut seen = std::collections::BTreeSet::from([m.code_generation()]);
        for _ in 0..4 {
            assert!(seen.insert(MainMemory::new().code_generation()));
            let c = m.clone();
            assert!(seen.insert(c.code_generation()));
            assert_eq!(c.dump(0x1000, PAGE_SIZE), m.dump(0x1000, PAGE_SIZE));
        }
        assert_ne!(MainMemory::default().code_generation(), 0);
    }

    #[test]
    fn address_wraparound_is_defined() {
        let mut m = MainMemory::new();
        m.write_u32(0xffff_fffe, 0x1234_5678);
        assert_eq!(m.read_u8(0xffff_ffff), 0x34);
        assert_eq!(m.read_u8(0x0000_0000), 0x56);
        assert_eq!(m.read_u8(0x0000_0001), 0x78);
    }
}
