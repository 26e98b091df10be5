//! The calibrated cost model.
//!
//! Every constant in [`CostModel`] is a simulated-nanosecond cost for one
//! device access or one modelled software action.  The device constants are
//! taken from Table 2 of the SplitFS paper (Izraelevitz et al.'s Optane DC
//! PMM measurements); the software constants were calibrated so that the
//! single-threaded 4 KiB-append microbenchmark reproduces the ordering and
//! rough magnitudes of paper Table 1 (ext4 DAX ≈ 9.0 µs, PMFS ≈ 4.2 µs,
//! NOVA-strict ≈ 3.0 µs, SplitFS-strict ≈ 1.25 µs, SplitFS-POSIX ≈ 1.16 µs
//! against a 671 ns raw 4 KiB device write).
//!
//! The absolute values are *not* claims about any particular machine; they
//! only need to preserve the relative cost structure: kernel traps and
//! journaling are an order of magnitude more expensive than a user-space
//! hash-map lookup, a jbd2 transaction writes several metadata blocks, NOVA
//! writes two cache lines and two fences per operation while the SplitFS
//! operation log writes one of each, and so on.

/// Cost constants for device accesses and modelled software actions.
///
/// All values are simulated nanoseconds (`_ns`) or nanoseconds per byte
/// (`_ns_per_byte`).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    // ------------------------------------------------------------------
    // Device: persistent memory (paper Table 2)
    // ------------------------------------------------------------------
    /// Latency of a sequential read that misses the CPU cache (Table 2:
    /// 169 ns).  Charged once per read call.
    pub pm_read_seq_latency_ns: f64,
    /// Latency of a random read that misses the CPU cache (Table 2: 305 ns).
    pub pm_read_rand_latency_ns: f64,
    /// Per-byte read cost from PM read bandwidth (Table 2: 39.4 GB/s →
    /// ~0.0254 ns/B).
    pub pm_read_ns_per_byte: f64,
    /// Fixed start-up latency of a store burst to PM (part of the 91 ns
    /// store+flush+fence figure in Table 2).
    pub pm_write_latency_ns: f64,
    /// Per-byte write cost.  Calibrated so that a 4 KiB non-temporal write
    /// costs ≈ 671 ns, the raw append cost quoted with paper Table 1
    /// (Optane write bandwidth is ~6× lower than DRAM).
    pub pm_write_ns_per_byte: f64,
    /// Cost of one `clwb`/`clflush` of a dirty cache line.
    pub clwb_ns: f64,
    /// Cost of one `sfence`.
    pub sfence_ns: f64,
    /// Per-byte cost of a DRAM copy (used when data is staged in DRAM or
    /// copied between user buffers).
    pub dram_copy_ns_per_byte: f64,

    // ------------------------------------------------------------------
    // Kernel-boundary and virtual-memory costs
    // ------------------------------------------------------------------
    /// Entering and leaving the kernel for one system call.
    pub kernel_trap_ns: f64,
    /// Generic in-kernel VFS work per system call: fd lookup, permission
    /// checks, dentry/inode reference handling.
    pub vfs_path_ns: f64,
    /// Servicing one 4 KiB page fault on a DAX mapping.
    pub page_fault_4k_ns: f64,
    /// Servicing one 2 MiB huge-page fault on a DAX mapping (cheaper per
    /// byte than 512 individual 4 KiB faults; §4 of the paper).
    pub page_fault_2m_ns: f64,
    /// Setting up an `mmap` region (VMA creation), excluding faults.
    pub mmap_setup_ns: f64,

    // ------------------------------------------------------------------
    // ext4-DAX (K-Split) software costs
    // ------------------------------------------------------------------
    /// Allocating one extent from the block allocator (bitmap scan, group
    /// descriptor update decision).
    pub ext4_alloc_ns: f64,
    /// Looking up an extent in the extent tree.
    pub ext4_extent_lookup_ns: f64,
    /// Starting + committing one jbd2 journal transaction (handle start,
    /// buffer management, commit record), excluding the journal block
    /// writes themselves which are charged as device traffic.
    pub ext4_journal_txn_ns: f64,
    /// Per metadata block logged in a jbd2 transaction.
    pub ext4_journal_per_block_ns: f64,
    /// Directory entry insert/remove/lookup work.
    pub ext4_dirent_ns: f64,
    /// Inode read/update bookkeeping in the kernel.
    pub ext4_inode_update_ns: f64,

    // ------------------------------------------------------------------
    // PMFS software costs
    // ------------------------------------------------------------------
    /// PMFS block allocation.
    pub pmfs_alloc_ns: f64,
    /// PMFS fine-grained undo-journal record (metadata only).
    pub pmfs_journal_record_ns: f64,
    /// PMFS inode/index update.
    pub pmfs_inode_update_ns: f64,

    // ------------------------------------------------------------------
    // NOVA software costs
    // ------------------------------------------------------------------
    /// Appending one entry to a per-inode NOVA log (CPU part; the two cache
    /// lines and two fences are charged as device traffic).
    pub nova_log_entry_ns: f64,
    /// NOVA per-CPU free-list allocation.
    pub nova_alloc_ns: f64,
    /// Updating NOVA's in-DRAM radix tree after an operation.
    pub nova_radix_update_ns: f64,

    // ------------------------------------------------------------------
    // Strata software costs
    // ------------------------------------------------------------------
    /// Appending a record to Strata's per-process private log (CPU part).
    pub strata_log_append_ns: f64,
    /// Per-byte cost of the digest phase (coalescing + copying from the
    /// private log into the shared area) beyond the raw device copy.
    pub strata_digest_ns_per_byte: f64,
    /// Updating Strata's user-space extent/lease metadata per operation.
    pub strata_index_ns: f64,

    // ------------------------------------------------------------------
    // SplitFS (U-Split) software costs
    // ------------------------------------------------------------------
    /// U-Split per-operation bookkeeping: fd-table lookup, cached-attribute
    /// permission check, offset update.
    pub usplit_bookkeeping_ns: f64,
    /// Looking up the collection of memory-mappings for a file offset.
    pub usplit_mmap_lookup_ns: f64,
    /// Building one 64 B operation-log entry (checksum + CAS on the DRAM
    /// tail), excluding the device write and the fence.
    pub usplit_log_entry_cpu_ns: f64,
    /// Taking a staging-file block from the pre-allocated pool.
    pub usplit_staging_take_ns: f64,
}

impl CostModel {
    /// The calibrated model used throughout the reproduction.
    pub fn calibrated() -> Self {
        Self {
            // Device (Table 2).
            pm_read_seq_latency_ns: 169.0,
            pm_read_rand_latency_ns: 305.0,
            pm_read_ns_per_byte: 0.0254,
            pm_write_latency_ns: 71.0,
            pm_write_ns_per_byte: 0.1465, // 4096 B * 0.1465 + 71 ≈ 671 ns
            clwb_ns: 25.0,
            sfence_ns: 30.0,
            dram_copy_ns_per_byte: 0.012,

            // Kernel boundary / VM.
            kernel_trap_ns: 280.0,
            vfs_path_ns: 320.0,
            page_fault_4k_ns: 2600.0,
            page_fault_2m_ns: 22_000.0,
            mmap_setup_ns: 1800.0,

            // ext4 DAX. Calibrated so a journaled 4 KiB append lands near
            // 9 µs total: trap + vfs + alloc + extent insert + txn with ~4
            // logged metadata blocks + inode update + dax write path.
            ext4_alloc_ns: 900.0,
            ext4_extent_lookup_ns: 350.0,
            ext4_journal_txn_ns: 2600.0,
            ext4_journal_per_block_ns: 450.0,
            ext4_dirent_ns: 700.0,
            ext4_inode_update_ns: 400.0,

            // PMFS: cheaper allocation and fine-grained journaling.
            pmfs_alloc_ns: 420.0,
            pmfs_journal_record_ns: 380.0,
            pmfs_inode_update_ns: 300.0,

            // NOVA: log-structured, two cache lines + two fences per op.
            nova_log_entry_ns: 380.0,
            nova_alloc_ns: 300.0,
            nova_radix_update_ns: 260.0,

            // Strata.
            strata_log_append_ns: 420.0,
            strata_digest_ns_per_byte: 0.05,
            strata_index_ns: 350.0,

            // U-Split.
            usplit_bookkeeping_ns: 120.0,
            usplit_mmap_lookup_ns: 60.0,
            usplit_log_entry_cpu_ns: 90.0,
            usplit_staging_take_ns: 70.0,
        }
    }

    /// A model where every cost is zero.  Useful for unit tests that check
    /// functional behaviour and do not care about timing.
    pub fn zero() -> Self {
        Self {
            pm_read_seq_latency_ns: 0.0,
            pm_read_rand_latency_ns: 0.0,
            pm_read_ns_per_byte: 0.0,
            pm_write_latency_ns: 0.0,
            pm_write_ns_per_byte: 0.0,
            clwb_ns: 0.0,
            sfence_ns: 0.0,
            dram_copy_ns_per_byte: 0.0,
            kernel_trap_ns: 0.0,
            vfs_path_ns: 0.0,
            page_fault_4k_ns: 0.0,
            page_fault_2m_ns: 0.0,
            mmap_setup_ns: 0.0,
            ext4_alloc_ns: 0.0,
            ext4_extent_lookup_ns: 0.0,
            ext4_journal_txn_ns: 0.0,
            ext4_journal_per_block_ns: 0.0,
            ext4_dirent_ns: 0.0,
            ext4_inode_update_ns: 0.0,
            pmfs_alloc_ns: 0.0,
            pmfs_journal_record_ns: 0.0,
            pmfs_inode_update_ns: 0.0,
            nova_log_entry_ns: 0.0,
            nova_alloc_ns: 0.0,
            nova_radix_update_ns: 0.0,
            strata_log_append_ns: 0.0,
            strata_digest_ns_per_byte: 0.0,
            strata_index_ns: 0.0,
            usplit_bookkeeping_ns: 0.0,
            usplit_mmap_lookup_ns: 0.0,
            usplit_log_entry_cpu_ns: 0.0,
            usplit_staging_take_ns: 0.0,
        }
    }

    /// Cost of reading `len` bytes from PM with the given access pattern.
    pub fn pm_read_cost(&self, len: usize, sequential: bool) -> f64 {
        let latency = if sequential {
            self.pm_read_seq_latency_ns
        } else {
            self.pm_read_rand_latency_ns
        };
        latency + len as f64 * self.pm_read_ns_per_byte
    }

    /// Cost of writing `len` bytes to PM (temporal or non-temporal store
    /// burst, excluding flushes and fences which are charged separately).
    pub fn pm_write_cost(&self, len: usize) -> f64 {
        if len == 0 {
            return 0.0;
        }
        self.pm_write_latency_ns + len as f64 * self.pm_write_ns_per_byte
    }

    /// Cost of flushing `lines` cache lines and issuing one fence.
    pub fn persist_cost(&self, lines: usize) -> f64 {
        lines as f64 * self.clwb_ns + self.sfence_ns
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_4k_write_is_about_671ns() {
        let m = CostModel::calibrated();
        let cost = m.pm_write_cost(4096);
        assert!(
            (cost - 671.0).abs() < 10.0,
            "4 KiB write cost {cost} should be ~671 ns as in paper Table 1"
        );
    }

    #[test]
    fn random_reads_cost_more_than_sequential() {
        let m = CostModel::calibrated();
        assert!(m.pm_read_cost(4096, false) > m.pm_read_cost(4096, true));
    }

    #[test]
    fn zero_model_charges_nothing() {
        let m = CostModel::zero();
        assert_eq!(m.pm_write_cost(4096), 0.0);
        assert_eq!(m.pm_read_cost(4096, true), 0.0);
        assert_eq!(m.persist_cost(10), 0.0);
    }

    #[test]
    fn empty_write_is_free() {
        let m = CostModel::calibrated();
        assert_eq!(m.pm_write_cost(0), 0.0);
    }

    #[test]
    fn kernel_costs_dominate_usplit_costs() {
        // The premise of the split architecture: a kernel round trip plus
        // journaling is far more expensive than user-space bookkeeping.
        let m = CostModel::calibrated();
        let kernel = m.kernel_trap_ns + m.vfs_path_ns + m.ext4_journal_txn_ns;
        let usplit = m.usplit_bookkeeping_ns + m.usplit_mmap_lookup_ns + m.usplit_log_entry_cpu_ns;
        assert!(kernel > 5.0 * usplit);
    }
}
