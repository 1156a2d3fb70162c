//! Enclave Page Cache (EPC) and its access-control map (EPCM).
//!
//! "Memory content of the enclave is stored inside Enclave Page Cache
//! (EPC), which is protected memory [...] The processor maintains enclave
//! page cache map (EPCM) to keep meta-data associated with each EPC page
//! for access protection" (paper §2.1). We model page accounting and EWB
//! eviction; page *contents* live with the enclave program (Rust
//! state), which is what the encryption by the MEE guarantees anyway —
//! the host can never observe it.

use crate::error::{Result, SgxError};
use crate::measurement::PAGE_SIZE;
use std::collections::{HashMap, VecDeque};

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
    fifo: VecDeque<(u64, usize)>,
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
            fifo: VecDeque::new(),
        }
    }

    /// EWB: evicts up to `count` of the oldest resident pages to encrypted
    /// main memory, freeing EPC capacity. Returns how many were evicted.
    pub fn evict_pages(&mut self, count: usize) -> usize {
        let mut done = 0;
        while done < count {
            let Some((enclave_id, offset)) = self.fifo.pop_front() else {
                break;
            };
            if let Some(list) = self.entries.get_mut(&enclave_id) {
                if let Some(entry) = list.iter_mut().find(|e| e.offset == offset && e.resident) {
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
                resident: true,
            });
            self.fifo.push_back((enclave_id, offset + i * PAGE_SIZE));
        }
        self.used += count;
        Ok(())
    }

    /// EREMOVE: releases all pages of an enclave (teardown).
    pub fn remove_enclave(&mut self, enclave_id: u64) {
        if let Some(list) = self.entries.remove(&enclave_id) {
            self.used -= list.iter().filter(|e| e.resident).count();
        }
        self.fifo.retain(|&(id, _)| id != enclave_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    impl Epc {
        /// Number of pages currently allocated.
        fn used_pages(&self) -> usize {
            self.used
        }

        /// Pages allocated to one enclave.
        fn pages_of(&self, enclave_id: u64) -> usize {
            self.entries.get(&enclave_id).map_or(0, Vec::len)
        }
    }

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
    fn eviction_takes_the_oldest_allocation_first_across_enclaves() {
        let mut epc = Epc::new(8);
        epc.add_pages(1, 0, 2, PageType::Regular).unwrap();
        epc.add_pages(2, 0, 2, PageType::Regular).unwrap();
        epc.add_pages(3, 0, 1, PageType::Regular).unwrap();
        epc.add_pages(1, 2 * PAGE_SIZE, 1, PageType::Regular)
            .unwrap();
        epc.remove_enclave(2);
        let resident = |epc: &Epc| -> BTreeSet<(u64, usize)> {
            let pages = epc.entries.values().flatten().filter(|e| e.resident);
            pages
                .map(|e| (e.enclave_id, e.offset / PAGE_SIZE))
                .collect()
        };
        let mut order = Vec::new();
        loop {
            let before = resident(&epc);
            if epc.evict_pages(1) == 0 {
                break;
            }
            order.extend(before.difference(&resident(&epc)).copied());
        }
        // Allocation order, enclave 2's pages gone from the queue with it.
        assert_eq!(order, [(1, 0), (1, 1), (3, 0), (1, 2)]);
        assert_eq!(epc.free_pages(), 8);
    }
}
