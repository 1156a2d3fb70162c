//! Enclaves, enclave programs and the in-enclave execution context.
//!
//! An *enclave program* is the application logic that would be compiled
//! into a real enclave binary. Its **identity** is the measurement of its
//! [`EnclaveProgram::code_image`] — a canonical byte serialisation of the
//! code and static configuration. Two behaviourally different programs
//! (e.g. a legitimate Tor OR and one modified to snoop, paper §3.2) must
//! produce different images, which is what makes attestation-based
//! exclusion of tampered nodes work in the case studies.

use teenet_crypto::SecureRng;

use crate::cost::{Op, OpCounts};
use crate::epc::{Epc, PageType};
use crate::error::{Result, SgxError};
use crate::keys::{derive_key, KeyRequest};
use crate::measurement::{Measurement, PAGE_SIZE};
use crate::ocall::HostCalls;
use crate::report::{ereport, Report, ReportBody, TargetInfo, REPORT_DATA_LEN};
use crate::seal::{seal, unseal, SealedBlob};
use crate::switchless::{Post, SwitchlessState};

/// Identifier of a loaded enclave within one platform.
pub type EnclaveId = u64;

/// Host crossings a packet-send batch pays besides its per-packet ones:
/// the batch's setup and its completion (Table 2: 6 SGX(U) for one
/// packet, 204 for 100).
pub const BATCH_CROSSINGS: u64 = 2;

/// Application logic executed inside an enclave.
///
/// `Send` is a supertrait: a loaded [`Enclave`] (and therefore a whole
/// [`crate::Platform`]) must be movable to another OS thread so one
/// independent platform instance can live per load-generation shard.
/// Programs hold only owned protocol state, so the bound costs nothing.
pub trait EnclaveProgram: Send {
    /// Canonical byte image of the program; its hash is the MRENCLAVE.
    ///
    /// Must cover everything behaviour-defining (code version, static
    /// configuration); anything an attacker could change to alter behaviour
    /// belongs in the image.
    fn code_image(&self) -> Vec<u8>;

    /// Handles an ecall with function id `fn_id` and marshalled `input`.
    fn ecall(&mut self, ctx: &mut EnclaveCtx<'_>, fn_id: u64, input: &[u8]) -> Result<Vec<u8>>;
}

/// A loaded enclave instance.
pub struct Enclave {
    /// Platform-local id.
    pub id: EnclaveId,
    /// Code identity.
    pub mrenclave: Measurement,
    /// Author identity.
    pub mrsigner: Measurement,
    /// Security version from the SIGSTRUCT.
    pub isv_svn: u16,
    /// Ops performed inside (and on behalf of) this enclave.
    pub counts: OpCounts,
    /// Transition mode, call ring and crossing statistics.
    pub switchless: SwitchlessState,
    pub(crate) program: Option<Box<dyn EnclaveProgram>>,
    pub(crate) next_alloc_offset: usize,
    pub(crate) heap_used: usize,
    pub(crate) destroyed: bool,
}

/// Everything an enclave program can reach while executing: the "hardware"
/// interface (EGETKEY, EREPORT, randomness), the cost accounting, dynamic
/// memory, and the untrusted host (ocalls).
pub struct EnclaveCtx<'a> {
    /// Op meter of the running enclave (charged as the program runs).
    pub counts: &'a mut OpCounts,
    /// The running enclave's own identity.
    pub mrenclave: Measurement,
    /// The running enclave's author identity.
    pub mrsigner: Measurement,
    /// The running enclave's security version.
    pub isv_svn: u16,
    pub(crate) device_key: &'a [u8; 32],
    pub(crate) rng: &'a mut SecureRng,
    pub(crate) host: &'a mut dyn HostCalls,
    pub(crate) epc: &'a mut Epc,
    pub(crate) enclave_id: EnclaveId,
    pub(crate) next_alloc_offset: &'a mut usize,
    pub(crate) heap_used: &'a mut usize,
    pub(crate) switchless: &'a mut SwitchlessState,
}

impl<'a> EnclaveCtx<'a> {
    /// Charges `n` occurrences of `op` to the running enclave.
    pub fn charge(&mut self, op: Op, n: u64) {
        self.counts.charge(op, n);
    }

    /// Routes `pairs` would-be host crossings ([`Op::HostCrossing`])
    /// through the transition layer.
    ///
    /// Classic mode charges the crossings as-is. Switchless mode posts the
    /// request to the shared call ring instead — a ring post plus a worker
    /// poll per pair, zero SGX instructions — unless the worker is asleep
    /// or the ring is full, in which case the real crossings are taken as
    /// a fallback. Returns `true` when the crossing was elided.
    fn host_transition(&mut self, pairs: u64) -> bool {
        match self.switchless.post(pairs) {
            Post::Classic => {
                self.counts.charge(Op::HostCrossing, pairs);
                self.switchless.stats.taken += pairs;
                false
            }
            Post::Elided => {
                self.counts.charge(Op::SwitchlessPost, pairs);
                self.counts.charge(Op::SwitchlessPoll, pairs);
                self.switchless.stats.elided += pairs;
                true
            }
            Post::Fallback { woke } => {
                self.counts.charge(Op::HostCrossing, pairs);
                self.switchless.stats.taken += pairs;
                self.switchless.stats.fallbacks += 1;
                if woke {
                    self.counts.charge(Op::SwitchlessWake, 1);
                }
                false
            }
        }
    }

    /// EGETKEY: derives a key bound to this enclave's identity.
    pub fn egetkey(&mut self, request: KeyRequest) -> [u8; 32] {
        self.counts.charge(Op::Egetkey, 1);
        derive_key(self.device_key, request, &self.mrenclave, &self.mrsigner)
    }

    /// EREPORT: produces a REPORT about this enclave for `target`,
    /// embedding `data` (truncated/zero-padded to 64 bytes).
    pub fn ereport(&mut self, target: TargetInfo, data: &[u8; REPORT_DATA_LEN]) -> Report {
        self.counts.charge(Op::Ereport, 1);
        // MAC computation happens in microcode, but the marshalling around
        // it is ordinary work.
        self.counts.charge(Op::HmacShort, 1);
        let body = ReportBody {
            mrenclave: self.mrenclave,
            mrsigner: self.mrsigner,
            isv_svn: self.isv_svn,
            report_data: *data,
        };
        ereport(self.device_key, target, body)
    }

    /// RDRAND-style randomness (deterministic per platform seed).
    pub fn random(&mut self, dest: &mut [u8]) {
        self.counts.charge(Op::RandomByte, dest.len() as u64);
        self.rng.fill_bytes(dest);
    }

    /// Dynamic in-enclave memory allocation, heap-style: byte-granular,
    /// extending the EPC only when the cumulative heap crosses a page
    /// boundary.
    ///
    /// Models what the paper blames for much of the steady-state overhead:
    /// "mainly due to in-enclave I/O and dynamic memory allocation that
    /// cause context switches" (§5). Every call charges [`Op::AllocBase`];
    /// a page-boundary crossing adds each new page's cost and acceptance
    /// (free on the SGX row) and one page-extension trap to the host — an
    /// exit/re-enter pair, elidable through the switchless ring.
    pub fn malloc(&mut self, bytes: usize) -> Result<()> {
        self.counts.charge(Op::AllocBase, 1);
        let backed = self.heap_used.div_ceil(PAGE_SIZE);
        *self.heap_used += bytes;
        let required = self.heap_used.div_ceil(PAGE_SIZE);
        if required > backed {
            let count = required - backed;
            self.ensure_epc_room(count)?;
            self.epc.add_pages(
                self.enclave_id,
                *self.next_alloc_offset,
                count,
                PageType::Regular,
            )?;
            *self.next_alloc_offset += count * PAGE_SIZE;
            self.counts.charge(Op::AllocPage, count as u64);
            self.counts.charge(Op::PageAccept, count as u64);
            self.host_transition(1);
        }
        Ok(())
    }

    /// Makes room in the EPC for `pages` new pages, evicting the oldest
    /// resident pages (EWB) if the cache is oversubscribed.
    ///
    /// Each eviction pays the paging crypto (encrypt + MAC a 4 KiB page)
    /// and an asynchronous exit/resume pair — the cost that makes
    /// EPC-oversubscribed enclaves slow on real hardware.
    fn ensure_epc_room(&mut self, pages: usize) -> Result<()> {
        let free = self.epc.free_pages();
        if free >= pages {
            return Ok(());
        }
        let needed = pages - free;
        let evicted = self.epc.evict_pages(needed);
        if evicted < needed {
            return Err(SgxError::EpcExhausted {
                requested: pages,
                free: self.epc.free_pages(),
            });
        }
        self.counts.charge(Op::EwbPage, evicted as u64);
        self.counts.charge(Op::AexResume, evicted as u64);
        Ok(())
    }

    /// An ocall: exit the enclave, run a host service, re-enter.
    ///
    /// Charges EEXIT + EENTER and marshalling proportional to the payload.
    /// The returned bytes are **untrusted**; pass them through
    /// [`crate::ocall::checked`] before use.
    pub fn ocall(&mut self, name: &str, payload: &[u8]) -> Vec<u8> {
        self.host_transition(1);
        let reply = self.host.ocall(name, payload);
        self.counts.marshal(payload.len() + reply.len());
        reply
    }

    /// Seals `plaintext` under this enclave's seal key (given policy).
    pub fn seal(&mut self, policy: KeyRequest, label: &[u8], plaintext: &[u8]) -> SealedBlob {
        let key = self.egetkey(policy);
        let mut nonce = [0u8; 16];
        self.random(&mut nonce);
        self.counts.keyed_aes(plaintext.len());
        seal(&key, label, nonce, plaintext)
    }

    /// Unseals a blob sealed under the same policy by an eligible enclave.
    pub fn unseal(&mut self, policy: KeyRequest, blob: &SealedBlob) -> Result<Vec<u8>> {
        let key = self.egetkey(policy);
        self.counts.keyed_aes(blob.ciphertext.len());
        unseal(&key, blob)
    }

    /// Sends packets to the host for transmission, optionally encrypting
    /// them first — the Table 2 I/O model.
    ///
    /// One batch costs [`BATCH_CROSSINGS`] host crossings (setup and
    /// completion) plus one per packet, [`Op::SendBase`] plus a
    /// [`Op::PacketCopy`] per packet, and if `encrypt` is set one AES key
    /// schedule plus AES over each packet.
    pub fn send_packets(&mut self, packets: &[&[u8]], encrypt: bool) {
        self.host_transition(BATCH_CROSSINGS);
        self.counts.charge(Op::SendBase, 1);
        if encrypt {
            self.counts.charge(Op::AesKeySchedule, 1);
        }
        for p in packets {
            self.host_transition(1);
            self.counts.charge(Op::PacketCopy, 1);
            if encrypt {
                self.counts.aes(p.len());
            }
            // The actual transmission is a host service; its reply (bytes
            // written) goes through an Iago check by the caller if used.
            self.host.ocall("send", p);
        }
    }
}

impl Enclave {
    /// Number of 4-KiB pages the program image occupies.
    pub fn image_pages(image_len: usize) -> usize {
        image_len.div_ceil(PAGE_SIZE).max(1)
    }

    pub(crate) fn check_alive(&self, op: &'static str) -> Result<()> {
        if self.destroyed {
            Err(SgxError::BadState {
                op,
                state: "destroyed",
            })
        } else {
            Ok(())
        }
    }
}
