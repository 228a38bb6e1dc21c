//! The querier's durable epoch-receipt journal: HMAC-signed records on
//! top of the zero-dep `sies-receipts` framing, plus the crash-restart
//! replay that rebuilds querier verification state.
//!
//! Division of labor: `sies-receipts` owns the on-disk format (framing,
//! CRC, torn-tail discipline) and stays free of crypto; this module
//! injects the cryptography and the SIES semantics — HMAC-SHA256 record
//! signatures under a per-session key, a μTesla broadcast chain whose
//! per-record disclosures pin the querier's authenticated-broadcast
//! position, and the digest fold that makes a replayed journal reproduce
//! the live chaos fingerprint byte for byte.
//!
//! The journal answers one question after a crash: *what had the querier
//! already verified?* Each receipt carries the epoch verdict, the exact
//! sum bits, the contributor set, the recovery-protocol counters, and
//! the μTesla chain position — everything [`replay`] needs to hand a
//! restarted querier its last verified epoch, its metric counters, and a
//! resumable broadcast-auth checkpoint, without trusting anything but
//! the session key.

use sies_core::mutesla::Broadcaster;
use sies_crypto::hmac::{ct_eq, hmac};
use sies_crypto::sha256::Sha256;
use sies_crypto::HashFunction;
use sies_receipts::{
    EpochReceipt, ReceiptError, Recorder, RecorderStats, ReplaySummary, Replayer, SessionHeader,
};
// Re-exported so downstream crates (the telemetry reconciliation test
// drives an fsync-lag scenario) can configure journals and build
// receipts without a sies-receipts dependency.
pub use sies_receipts::{EpochReceipt as Receipt, FsyncPolicy};
use sies_telemetry as tel;
use sies_telemetry::EventKind;
use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Everything needed to create — or re-open after a crash — one
/// session's journal. The same config must be supplied on resume: the
/// HMAC key authenticates the records, and the μTesla seed regenerates
/// the broadcast chain (both are querier secrets that live outside the
/// journal, exactly like the SIES secret shares).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalConfig {
    /// Session identifier written into the header and every receipt.
    pub session: u64,
    /// HMAC-SHA256 key signing every record.
    pub hmac_key: [u8; 32],
    /// Seed regenerating the querier's μTesla broadcast chain.
    pub mutesla_seed: u64,
    /// μTesla chain capacity: the maximum number of receipts the
    /// session can journal (one disclosed interval per receipt).
    pub capacity: u64,
    /// μTesla disclosure delay `d`.
    pub mutesla_delay: u64,
    /// Fsync cadence for the underlying recorder.
    pub fsync: FsyncPolicy,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            session: 1,
            hmac_key: [0x5E; 32],
            mutesla_seed: 1,
            capacity: 1 << 14,
            mutesla_delay: 1,
            fsync: FsyncPolicy::EveryEpoch,
        }
    }
}

impl JournalConfig {
    fn chain(&self) -> Broadcaster {
        let mut rng = StdRng::seed_from_u64(self.mutesla_seed);
        Broadcaster::new(&mut rng, self.capacity, self.mutesla_delay.max(1))
    }

    fn signer(&self) -> sies_receipts::Signer {
        let key = self.hmac_key;
        Box::new(move |payload: &[u8]| {
            hmac::<Sha256>(&key, payload)
                .try_into()
                .expect("SHA-256 output is 32 bytes")
        })
    }
}

/// What a successful [`replay`] hands the restarted querier.
#[derive(Clone)]
pub struct ReplayedState {
    /// The verified scan: header, every intact receipt, torn-tail
    /// evidence.
    pub summary: ReplaySummary,
    /// The first epoch the querier has no receipt for.
    pub next_epoch: u64,
    /// The replayed chaos-style result digest over all receipts — byte
    /// identical to what the live run had folded at the same point.
    pub digest: Sha256,
}

/// Folds one receipt into a chaos-style result digest. This is the
/// single definition of the fold: the live harness folds the receipt it
/// just built, replay folds the receipt it just read, so digest identity
/// across a crash-restart holds by construction.
pub fn fold_receipt(digest: &mut Sha256, r: &EpochReceipt) {
    digest.update(&r.epoch.to_le_bytes());
    match r.verdict.digest_tag() {
        1 => {
            digest.update(&[1, r.integrity_checked as u8]);
            digest.update(&r.sum_bits.to_le_bytes());
        }
        tag => digest.update(&[tag]),
    }
    digest.update(&[r.corrupted as u8]);
    digest.update(&(r.contributors.len() as u64).to_le_bytes());
    for &sid in &r.contributors {
        digest.update(&sid.to_le_bytes());
    }
}

/// Scans and authenticates the journal at `path`: every record's HMAC is
/// checked under `cfg.hmac_key`, the header must match the config's
/// session and μTesla commitment, and the newest receipt's chain
/// position must re-authenticate against the commitment (via
/// [`sies_core::mutesla::Receiver::resume`]). Returns the rebuilt
/// querier state.
pub fn replay(path: &Path, cfg: &JournalConfig) -> Result<ReplayedState, ReceiptError> {
    let key = cfg.hmac_key;
    let verify = move |payload: &[u8], sig: &[u8; 32]| ct_eq(&hmac::<Sha256>(&key, payload), sig);
    let summary = Replayer::scan_path(path, Some(&verify))?;

    if summary.header.session != cfg.session {
        return Err(ReceiptError::BadLayout {
            offset: 0,
            reason: "journal belongs to a different session",
        });
    }
    let chain = cfg.chain();
    if summary.header.mutesla_commitment != chain.commitment()
        || summary.header.mutesla_delay != chain.delay()
    {
        return Err(ReceiptError::BadLayout {
            offset: 0,
            reason: "journal's muTesla bootstrap does not match this config",
        });
    }
    // Re-authenticate the chain position the newest receipt claims: a
    // tampered (but somehow signed) or mis-stamped position must not
    // move a restarted receiver onto a different chain.
    if let Some((interval, chain_key)) = summary.mutesla_position() {
        sies_core::mutesla::Receiver::resume(
            chain.commitment(),
            chain.delay(),
            interval,
            chain_key,
        )
        .map_err(|_| ReceiptError::BadLayout {
            offset: 0,
            reason: "journaled muTesla position does not chain to the commitment",
        })?;
    }

    let mut digest = Sha256::new();
    for r in &summary.receipts {
        fold_receipt(&mut digest, r);
    }
    let next_epoch = summary.last_epoch().map_or(0, |e| e + 1);

    tel::count!("journal.replays");
    tel::count!("journal.replayed_receipts", summary.receipts.len() as u64);
    tel::count!(
        "journal.replay_torn_tails",
        summary.torn_tail.is_some() as u64
    );
    tel::event(
        next_epoch,
        EventKind::JournalReplayed,
        summary.receipts.len() as u64,
        summary.torn_tail.is_some() as u64,
    );

    Ok(ReplayedState {
        summary,
        next_epoch,
        digest,
    })
}

/// The querier-side journal: signs, stamps, and durably appends one
/// receipt per epoch.
pub struct ReceiptJournal {
    recorder: Recorder,
    session: u64,
    chain: Broadcaster,
    /// The μTesla interval the next receipt discloses (1-based; one
    /// interval per journaled receipt).
    next_interval: u64,
    capacity: u64,
    /// Recorder state at the last observed fsync, for the
    /// `journal.fsync_lag` gauge (records appended but not yet durable).
    fsyncs_seen: u64,
    records_at_last_fsync: u64,
}

impl ReceiptJournal {
    /// Creates (truncating) the session journal at `path`.
    pub fn create(path: &Path, cfg: &JournalConfig) -> std::io::Result<Self> {
        let chain = cfg.chain();
        let header = SessionHeader {
            session: cfg.session,
            mutesla_commitment: chain.commitment(),
            mutesla_delay: chain.delay(),
        };
        let recorder = Recorder::create(path, &header, cfg.fsync, Some(cfg.signer()))?;
        Ok(ReceiptJournal {
            recorder,
            session: cfg.session,
            chain,
            next_interval: 1,
            capacity: cfg.capacity,
            fsyncs_seen: 0,
            records_at_last_fsync: 0,
        })
    }

    /// Re-opens the journal after a crash: [`replay`]s (authenticating
    /// every surviving record), truncates a torn final record so the
    /// file ends on an intact frame, then resumes appending. Without the
    /// truncation the next append would land *after* the torn bytes,
    /// turning a tolerated tail into a hard mid-file corruption on the
    /// following replay. Returns the journal and the rebuilt state.
    pub fn resume(path: &Path, cfg: &JournalConfig) -> Result<(Self, ReplayedState), ReceiptError> {
        let state = replay(path, cfg)?;
        if let Some(tail) = &state.summary.torn_tail {
            let file = std::fs::OpenOptions::new().write(true).open(path)?;
            file.set_len(tail.offset)?;
        }
        let recorder = Recorder::resume(path, cfg.fsync, Some(cfg.signer()))?;
        let journal = ReceiptJournal {
            recorder,
            session: cfg.session,
            chain: cfg.chain(),
            next_interval: state.summary.receipts.len() as u64 + 1,
            capacity: cfg.capacity,
            fsyncs_seen: 0,
            records_at_last_fsync: 0,
        };
        Ok((journal, state))
    }

    /// The session id receipts are stamped with.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Recorder running totals (records, bytes, fsyncs, I/O errors).
    pub fn stats(&self) -> RecorderStats {
        self.recorder.stats()
    }

    /// Stamps `receipt` with the session id and the next μTesla chain
    /// disclosure, then appends and commits it (one write + policy
    /// fsync, off the epoch's data path). A journal whose chain is
    /// exhausted keeps recording with an unstamped (interval 0) receipt
    /// rather than failing the querier.
    pub fn record(&mut self, receipt: &mut EpochReceipt) {
        receipt.session = self.session;
        if self.next_interval <= self.capacity {
            let d = self.chain.disclose(self.next_interval);
            receipt.mutesla_interval = d.interval;
            receipt.mutesla_key = d.key;
            self.next_interval += 1;
        } else {
            receipt.mutesla_interval = 0;
            receipt.mutesla_key = [0u8; 32];
        }
        self.recorder.append(receipt);
        self.recorder.commit_epoch();
        let stats = self.publish_fsync_lag();
        tel::count!("journal.receipts");
        tel::event(
            receipt.epoch,
            EventKind::ReceiptCommitted,
            stats.records,
            stats.bytes_written,
        );
    }

    /// End-of-run barrier: forces any buffered frames and a final fsync,
    /// then flushes the recorder totals into the telemetry registry.
    pub fn finish(&mut self) -> std::io::Result<()> {
        let res = self.recorder.sync();
        let stats = self.publish_fsync_lag();
        tel::count!("journal.commits", stats.commits);
        tel::count!("journal.bytes_written", stats.bytes_written);
        tel::count!("journal.fsyncs", stats.fsyncs);
        tel::count!("journal.io_errors", stats.io_errors);
        res
    }

    /// Sets the `journal.fsync_lag` gauge from the recorder's totals:
    /// receipts appended since the last fsync the recorder performed.
    /// Under `FsyncPolicy::EveryEpoch` it stays 0; a lazy policy lets it
    /// climb until the next fsync, [`finish`](Self::finish)'s included.
    fn publish_fsync_lag(&mut self) -> RecorderStats {
        let stats = self.recorder.stats();
        if stats.fsyncs != self.fsyncs_seen {
            self.fsyncs_seen = stats.fsyncs;
            self.records_at_last_fsync = stats.records;
        }
        tel::set_gauge!(
            "journal.fsync_lag",
            stats.records - self.records_at_last_fsync
        );
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sies_receipts::Verdict;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sies-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn receipt(epoch: u64) -> EpochReceipt {
        EpochReceipt {
            epoch,
            verdict: Verdict::Accepted,
            integrity_checked: true,
            sum_bits: (epoch as f64 * 3.0).to_bits(),
            contributors: vec![0, 1, 2],
            ..EpochReceipt::default()
        }
    }

    #[test]
    fn create_record_replay_round_trips() {
        let path = tmp("round.journal");
        let cfg = JournalConfig::default();
        let mut j = ReceiptJournal::create(&path, &cfg).unwrap();
        let mut live = Sha256::new();
        for e in 0..5 {
            let mut r = receipt(e);
            j.record(&mut r);
            assert_eq!(r.session, cfg.session);
            assert_eq!(r.mutesla_interval, e + 1);
            fold_receipt(&mut live, &r);
        }
        j.finish().unwrap();

        let state = replay(&path, &cfg).unwrap();
        assert_eq!(state.summary.receipts.len(), 5);
        assert_eq!(state.next_epoch, 5);
        assert!(state.summary.torn_tail.is_none());
        assert_eq!(
            state.digest.finalize(),
            live.finalize(),
            "replayed digest must equal the live fold"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_key_or_session_is_rejected() {
        let path = tmp("wrongkey.journal");
        let cfg = JournalConfig::default();
        let mut j = ReceiptJournal::create(&path, &cfg).unwrap();
        j.record(&mut receipt(0));
        j.finish().unwrap();

        let wrong_key = JournalConfig {
            hmac_key: [0xFF; 32],
            ..cfg.clone()
        };
        assert!(matches!(
            replay(&path, &wrong_key),
            Err(ReceiptError::BadSignature { .. })
        ));
        let wrong_session = JournalConfig {
            session: 999,
            ..cfg.clone()
        };
        assert!(matches!(
            replay(&path, &wrong_session),
            Err(ReceiptError::BadLayout { .. })
        ));
        // A different muTesla seed means a different commitment: the
        // header check refuses to resume onto the wrong chain.
        let wrong_chain = JournalConfig {
            mutesla_seed: 777,
            ..cfg
        };
        assert!(matches!(
            replay(&path, &wrong_chain),
            Err(ReceiptError::BadLayout { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_continues_the_chain_and_the_file() {
        let path = tmp("resume.journal");
        let cfg = JournalConfig::default();
        let mut j = ReceiptJournal::create(&path, &cfg).unwrap();
        for e in 0..3 {
            j.record(&mut receipt(e));
        }
        drop(j);

        let (mut j, state) = ReceiptJournal::resume(&path, &cfg).unwrap();
        assert_eq!(state.next_epoch, 3);
        let mut r = receipt(3);
        j.record(&mut r);
        assert_eq!(
            r.mutesla_interval, 4,
            "chain position continues across restart"
        );
        j.finish().unwrap();

        let state = replay(&path, &cfg).unwrap();
        assert_eq!(state.summary.receipts.len(), 4);
        assert_eq!(state.summary.mutesla_position().unwrap().0, 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_truncates_a_torn_tail_and_keeps_appending() {
        let path = tmp("torn-resume.journal");
        let cfg = JournalConfig::default();
        let mut j = ReceiptJournal::create(&path, &cfg).unwrap();
        for e in 0..3 {
            j.record(&mut receipt(e));
        }
        drop(j);

        // Tear the final record mid-write: chop 5 bytes off the file.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let (mut j, state) = ReceiptJournal::resume(&path, &cfg).unwrap();
        assert_eq!(state.summary.receipts.len(), 2, "torn receipt is gone");
        assert!(state.summary.torn_tail.is_some());
        assert_eq!(state.next_epoch, 2);
        // The torn epoch is re-recorded; its μTesla interval is re-used
        // (disclosure is deterministic), and the file ends intact again.
        let mut r = receipt(2);
        j.record(&mut r);
        assert_eq!(r.mutesla_interval, 3);
        j.finish().unwrap();

        let state = replay(&path, &cfg).unwrap();
        assert_eq!(state.summary.receipts.len(), 3);
        assert!(
            state.summary.torn_tail.is_none(),
            "tail must have been truncated before the new append"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn exhausted_chain_degrades_to_unstamped_receipts() {
        let path = tmp("exhausted.journal");
        let cfg = JournalConfig {
            capacity: 2,
            ..JournalConfig::default()
        };
        let mut j = ReceiptJournal::create(&path, &cfg).unwrap();
        for e in 0..4 {
            j.record(&mut receipt(e));
        }
        j.finish().unwrap();
        let state = replay(&path, &cfg).unwrap();
        assert_eq!(state.summary.receipts.len(), 4);
        // Newest *stamped* position is interval 2.
        assert_eq!(state.summary.mutesla_position().unwrap().0, 2);
        std::fs::remove_file(&path).unwrap();
    }
}
