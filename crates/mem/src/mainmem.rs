//! Paged big-endian backing store behind a two-level page table.

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u32 = (PAGE_SIZE as u32) - 1;
/// Address bits resolved by one leaf of the page table (4 MB).
const LEAF_SHIFT: u32 = 22;
const LEAF_ENTRIES: usize = 1 << (LEAF_SHIFT - PAGE_SHIFT);
const DIR_ENTRIES: usize = 1 << (32 - LEAF_SHIFT);

/// Index of `addr`'s page within its leaf.
fn leaf_entry(addr: u32) -> usize {
    ((addr >> PAGE_SHIFT) as usize) & (LEAF_ENTRIES - 1)
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
#[derive(Clone, Default, Debug)]
pub struct MainMemory {
    /// Leaf number + 1 for each 4-MB region (0 = no leaf). Empty until
    /// the first write, then `DIR_ENTRIES` long.
    dir: Vec<u16>,
    /// Page slot + 1 for each page of a region (0 = not resident).
    leaves: Vec<[u32; LEAF_ENTRIES]>,
    /// Resident pages, in creation order.
    pages: Vec<[u8; PAGE_SIZE]>,
}

impl MainMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> MainMemory {
        MainMemory::default()
    }

    /// Arena slot of the page holding `addr`, if resident.
    #[inline]
    fn slot(&self, addr: u32) -> Option<usize> {
        let leaf = *self.dir.get((addr >> LEAF_SHIFT) as usize)?;
        if leaf == 0 {
            return None;
        }
        let slot = self.leaves[usize::from(leaf) - 1][leaf_entry(addr)];
        (slot != 0).then(|| slot as usize - 1)
    }

    #[inline]
    fn page(&self, addr: u32) -> Option<&[u8; PAGE_SIZE]> {
        self.slot(addr).map(|s| &self.pages[s])
    }

    fn page_mut(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE] {
        let slot = match self.slot(addr) {
            Some(s) => s,
            None => self.allocate(addr),
        };
        &mut self.pages[slot]
    }

    /// Makes the page holding `addr` resident and returns its slot.
    fn allocate(&mut self, addr: u32) -> usize {
        if self.dir.is_empty() {
            self.dir = vec![0; DIR_ENTRIES];
        }
        let d = (addr >> LEAF_SHIFT) as usize;
        if self.dir[d] == 0 {
            self.leaves.push([0; LEAF_ENTRIES]);
            self.dir[d] = u16::try_from(self.leaves.len()).expect("at most DIR_ENTRIES leaves");
        }
        self.pages.push([0; PAGE_SIZE]);
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
        match self.page_mut(addr)[off..].first_chunk_mut() {
            Some(dst) => *dst = bytes,
            None => self.load(addr, &bytes),
        }
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.page(addr).map_or(0, |p| p[(addr & PAGE_MASK) as usize])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = value;
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

    /// Copies `bytes` into memory starting at `addr` (the program
    /// loader).
    pub fn load(&mut self, addr: u32, bytes: &[u8]) {
        let (mut addr, mut rest) = (addr, bytes);
        while !rest.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = rest.len().min(PAGE_SIZE - off);
            self.page_mut(addr)[off..off + n].copy_from_slice(&rest[..n]);
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
    /// never touched (like any write).
    ///
    /// # Panics
    ///
    /// If `index` is not below `2^20` (the page would lie past the top
    /// of the 32-bit address space).
    #[inline]
    pub fn page_bytes_mut(&mut self, index: u32) -> &mut [u8] {
        let addr = index.checked_mul(PAGE_SIZE as u32).expect("page index below 2^20");
        &mut self.page_mut(addr)[..]
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

    #[test]
    fn address_wraparound_is_defined() {
        let mut m = MainMemory::new();
        m.write_u32(0xffff_fffe, 0x1234_5678);
        assert_eq!(m.read_u8(0xffff_ffff), 0x34);
        assert_eq!(m.read_u8(0x0000_0000), 0x56);
        assert_eq!(m.read_u8(0x0000_0001), 0x78);
    }
}
