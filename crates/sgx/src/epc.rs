//! Enclave Page Cache (EPC) and its access-control map (EPCM).
//!
//! "Memory content of the enclave is stored inside Enclave Page Cache
//! (EPC), which is protected memory [...] The processor maintains enclave
//! page cache map (EPCM) to keep meta-data associated with each EPC page
//! for access protection" (paper §2.1). We model page accounting and
//! ownership checks; page *contents* live with the enclave program (Rust
//! state), which is what the encryption by the MEE guarantees anyway —
//! the host can never observe it.

use crate::error::{Result, SgxError};
use crate::measurement::PAGE_SIZE;
use std::collections::HashMap;

/// Types of EPC pages, as recorded in the EPCM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PageType {
    /// SGX Enclave Control Structure page.
    Secs = 0,
    /// Thread Control Structure page.
    Tcs = 1,
    /// Regular code/data page.
    Regular = 2,
}

/// One EPCM entry: metadata the processor keeps per EPC page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpcmEntry {
    /// Owning enclave id.
    pub enclave_id: u64,
    /// Page type.
    pub page_type: PageType,
    /// Offset of the page within the enclave's linear range.
    pub offset: usize,
    /// Whether the page is valid (EREMOVE clears this).
    pub valid: bool,
    /// Whether the page currently resides in the EPC (false = evicted to
    /// encrypted main memory by EWB).
    pub resident: bool,
}

/// The Enclave Page Cache: a fixed pool of protected pages.
///
/// When the pool is full, pages can be evicted (EWB) to encrypted main
/// memory: the page leaves the EPC but stays logically owned by its
/// enclave; touching it again would fault it back in (ELDU). The caller
/// charges each evicted page to the evicting enclave's op meter.
#[derive(Debug)]
pub struct Epc {
    total_pages: usize,
    entries: HashMap<u64, Vec<EpcmEntry>>,
    used: usize,
    /// FIFO of (enclave, offset) in allocation order — the eviction queue.
    fifo: Vec<(u64, usize)>,
}

impl Epc {
    /// Creates an EPC with `total_pages` capacity.
    ///
    /// Real SGX1 platforms shipped with ~93 MiB of usable EPC; the default
    /// platform uses 24 576 pages (96 MiB).
    pub fn new(total_pages: usize) -> Self {
        Epc {
            total_pages,
            entries: HashMap::new(),
            used: 0,
            fifo: Vec::new(),
        }
    }

    /// EWB: evicts up to `count` of the oldest resident pages to encrypted
    /// main memory, freeing EPC capacity. Returns how many were evicted.
    pub fn evict_pages(&mut self, count: usize) -> usize {
        let mut done = 0;
        while done < count {
            let Some((enclave_id, offset)) = self.fifo.first().copied() else {
                break;
            };
            self.fifo.remove(0);
            if let Some(list) = self.entries.get_mut(&enclave_id) {
                if let Some(entry) = list
                    .iter_mut()
                    .find(|e| e.offset == offset && e.valid && e.resident)
                {
                    entry.resident = false;
                    self.used -= 1;
                    done += 1;
                }
            }
        }
        done
    }

    /// Number of free pages.
    pub fn free_pages(&self) -> usize {
        self.total_pages - self.used
    }

    /// Number of pages currently allocated.
    pub fn used_pages(&self) -> usize {
        self.used
    }

    /// Pages allocated to one enclave.
    pub fn pages_of(&self, enclave_id: u64) -> usize {
        self.entries
            .get(&enclave_id)
            .map_or(0, |v| v.iter().filter(|e| e.valid).count())
    }

    /// EADD/EAUG: allocates `count` pages of `page_type` to `enclave_id`
    /// starting at linear `offset`.
    pub fn add_pages(
        &mut self,
        enclave_id: u64,
        offset: usize,
        count: usize,
        page_type: PageType,
    ) -> Result<()> {
        if count > self.free_pages() {
            return Err(SgxError::EpcExhausted {
                requested: count,
                free: self.free_pages(),
            });
        }
        let list = self.entries.entry(enclave_id).or_default();
        for i in 0..count {
            list.push(EpcmEntry {
                enclave_id,
                page_type,
                offset: offset + i * PAGE_SIZE,
                valid: true,
                resident: true,
            });
            self.fifo.push((enclave_id, offset + i * PAGE_SIZE));
        }
        self.used += count;
        Ok(())
    }

    /// EREMOVE: releases all pages of an enclave (teardown).
    pub fn remove_enclave(&mut self, enclave_id: u64) {
        if let Some(list) = self.entries.remove(&enclave_id) {
            self.used -= list.iter().filter(|e| e.valid && e.resident).count();
        }
        self.fifo.retain(|&(id, _)| id != enclave_id);
    }

    /// Access check: does `enclave_id` own a valid page at `offset`?
    ///
    /// Models the EPCM check the processor performs on every enclave-mode
    /// access; other enclaves (or the host) asking for the page get denied.
    pub fn check_access(&self, enclave_id: u64, offset: usize) -> bool {
        let page_base = offset - offset % PAGE_SIZE;
        self.entries.get(&enclave_id).is_some_and(|list| {
            list.iter()
                .any(|e| e.valid && e.offset == page_base && e.enclave_id == enclave_id)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_and_accounting() {
        let mut epc = Epc::new(10);
        epc.add_pages(1, 0, 4, PageType::Regular).unwrap();
        assert_eq!(epc.used_pages(), 4);
        assert_eq!(epc.free_pages(), 6);
        assert_eq!(epc.pages_of(1), 4);
        assert_eq!(epc.pages_of(2), 0);
    }

    #[test]
    fn exhaustion_is_an_error() {
        let mut epc = Epc::new(3);
        epc.add_pages(1, 0, 2, PageType::Regular).unwrap();
        let err = epc.add_pages(2, 0, 2, PageType::Regular).unwrap_err();
        assert!(matches!(
            err,
            SgxError::EpcExhausted {
                requested: 2,
                free: 1
            }
        ));
    }

    #[test]
    fn remove_frees_pages() {
        let mut epc = Epc::new(5);
        epc.add_pages(1, 0, 3, PageType::Regular).unwrap();
        epc.add_pages(2, 0, 2, PageType::Tcs).unwrap();
        epc.remove_enclave(1);
        assert_eq!(epc.free_pages(), 3);
        assert_eq!(epc.pages_of(1), 0);
        assert_eq!(epc.pages_of(2), 2);
    }

    #[test]
    fn access_control_per_enclave() {
        let mut epc = Epc::new(8);
        epc.add_pages(1, 0, 2, PageType::Regular).unwrap();
        epc.add_pages(2, PAGE_SIZE * 2, 1, PageType::Regular)
            .unwrap();
        // Enclave 1 can touch its own pages (any offset within them).
        assert!(epc.check_access(1, 0));
        assert!(epc.check_access(1, PAGE_SIZE + 123));
        // Enclave 1 cannot touch enclave 2's page; enclave 2 can.
        assert!(!epc.check_access(1, PAGE_SIZE * 2));
        assert!(epc.check_access(2, PAGE_SIZE * 2 + 1));
        // Nobody can touch unallocated space.
        assert!(!epc.check_access(1, PAGE_SIZE * 7));
    }
}
