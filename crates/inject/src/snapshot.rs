//! Whole-machine architectural snapshots with a stable digest.
//!
//! The campaign compares faulty runs against golden references by
//! digesting the *architectural* state: registers, resume PC, and every
//! mapped memory page in sorted-page order. The sorted order matters —
//! `SparseMemory` is hash-map backed, so naive iteration is
//! nondeterministic across processes, which would break the campaign's
//! byte-for-byte reproducibility guarantee.

use rse_mem::{SparseMemory, PAGE_BYTES};

/// A complete architectural snapshot: register file, PC, and all mapped
/// memory pages (sorted by page id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchSnapshot {
    /// Architectural register values.
    pub regs: [u32; 32],
    /// Program counter.
    pub pc: u32,
    /// `(page id, page bytes)` pairs, ascending by page id.
    pub pages: Vec<(u32, Box<[u8; PAGE_BYTES]>)>,
}

impl ArchSnapshot {
    /// Captures the current architectural state.
    ///
    /// All-zero pages are skipped: sparse memory reads unmapped pages as
    /// zero, so a mapped-but-zero page is architecturally identical to
    /// an unmapped one. Skipping them makes the snapshot (and therefore
    /// [`ArchSnapshot::digest`]) *canonical* — capture/restore/capture
    /// round trips are bit-identical even when the interim mutation
    /// mapped fresh pages that the restore then zeroes.
    pub fn capture(regs: &[u32; 32], pc: u32, mem: &SparseMemory) -> ArchSnapshot {
        let pages = mem
            .mapped_page_ids_sorted()
            .into_iter()
            .filter_map(|id| {
                let bytes = mem
                    .page_bytes(id)
                    .expect("page id from mapped_page_ids_sorted is mapped");
                if bytes.iter().all(|&b| b == 0) {
                    None
                } else {
                    Some((id, Box::new(*bytes)))
                }
            })
            .collect();
        ArchSnapshot {
            regs: *regs,
            pc,
            pages,
        }
    }

    /// Restores the snapshot's memory image into `mem`: pages that were
    /// mapped since the capture but are absent from the snapshot are
    /// zeroed, then every snapshot page is written back. Registers and
    /// PC are the caller's to restore (they live in the pipeline).
    pub fn restore_memory(&self, mem: &mut SparseMemory) {
        let zero = [0u8; PAGE_BYTES];
        for id in mem.mapped_page_ids_sorted() {
            if self.pages.binary_search_by_key(&id, |(p, _)| *p).is_err() {
                mem.restore_page(id.wrapping_mul(PAGE_BYTES as u32), &zero);
            }
        }
        for (id, bytes) in &self.pages {
            mem.restore_page(id.wrapping_mul(PAGE_BYTES as u32), bytes);
        }
    }

    /// FNV-1a digest over the full snapshot. Stable across hosts and
    /// processes.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for r in self.regs {
            h.write_u32(r);
        }
        h.write_u32(self.pc);
        for (id, bytes) in &self.pages {
            h.write_u32(*id);
            h.write_bytes(bytes.as_ref());
        }
        h.finish()
    }
}

/// A tiny FNV-1a 64-bit hasher (self-contained: the campaign must not
/// depend on `std::hash`'s unstable default hasher).
pub(crate) struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Fnv {
        Fnv(Self::OFFSET)
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub(crate) fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_with(data: &[(u32, u32)]) -> SparseMemory {
        let mut m = SparseMemory::new();
        for &(addr, val) in data {
            m.write_u32(addr, val);
        }
        m
    }

    #[test]
    fn capture_restore_round_trips() {
        let mem = mem_with(&[(0x1000, 0xAABB_CCDD), (0x40_0000, 17), (0x7FFF_F000, 3)]);
        let regs = [7u32; 32];
        let snap = ArchSnapshot::capture(&regs, 0x40_0004, &mem);

        let mut mutated = mem_with(&[(0x1000, 0xDEAD_BEEF), (0x40_0000, 0), (0x7FFF_F000, 9)]);
        mutated.write_u32(0x9000_0000, 1234); // page mapped after capture
        snap.restore_memory(&mut mutated);

        let back = ArchSnapshot::capture(&regs, 0x40_0004, &mutated);
        // The extra page is zeroed, so digests over the snapshot pages
        // agree and the extra page contributes zero content.
        assert_eq!(mutated.read_u32(0x1000), 0xAABB_CCDD);
        assert_eq!(mutated.read_u32(0x40_0000), 17);
        assert_eq!(mutated.read_u32(0x7FFF_F000), 3);
        assert_eq!(mutated.read_u32(0x9000_0000), 0);
        for (id, bytes) in &snap.pages {
            let restored = back
                .pages
                .iter()
                .find(|(p, _)| p == id)
                .expect("page survives restore");
            assert_eq!(bytes, &restored.1, "page {id} differs");
        }
    }

    #[test]
    fn digest_is_sensitive_to_every_component() {
        let mem = mem_with(&[(0x1000, 1)]);
        let regs = [0u32; 32];
        let base = ArchSnapshot::capture(&regs, 0x40_0000, &mem).digest();

        let mut regs2 = regs;
        regs2[5] = 1;
        assert_ne!(
            ArchSnapshot::capture(&regs2, 0x40_0000, &mem).digest(),
            base
        );
        assert_ne!(ArchSnapshot::capture(&regs, 0x40_0004, &mem).digest(), base);
        let mem2 = mem_with(&[(0x1000, 2)]);
        assert_ne!(
            ArchSnapshot::capture(&regs, 0x40_0000, &mem2).digest(),
            base
        );
    }

    #[test]
    fn digest_is_stable_across_insertion_orders() {
        // Same pages inserted in different orders must digest equally —
        // this is exactly the HashMap-iteration hazard the sorted page
        // walk exists to neutralize.
        let a = mem_with(&[(0x1000, 1), (0x5000, 2), (0x9000, 3)]);
        let b = mem_with(&[(0x9000, 3), (0x1000, 1), (0x5000, 2)]);
        let regs = [0u32; 32];
        assert_eq!(
            ArchSnapshot::capture(&regs, 0, &a).digest(),
            ArchSnapshot::capture(&regs, 0, &b).digest()
        );
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors, for the digest hasher and for
        // the `fnv1a64` seed derivation hashes subject names with.
        for (s, want) in [
            ("", 0xcbf2_9ce4_8422_2325),
            ("a", 0xaf63_dc4c_8601_ec8c),
            ("foobar", 0x8594_4171_f739_67e8),
        ] {
            let mut h = Fnv::new();
            h.write_bytes(s.as_bytes());
            assert_eq!(h.finish(), want);
            assert_eq!(rse_support::rng::fnv1a64(s.as_bytes()), want);
        }
    }
}
