//! Where Table 4A's unit costs come from: a physical device model.
//!
//! The paper presents `t_read = 0.035`, `t_write = 0.05`, `t_update =
//! t_read + t_write` as given "units". This module grounds them: a
//! [`DiskModel`] computes random-block service times from seek, rotation
//! and transfer parameters, and scales them into `CostParams`. A
//! 1993-class drive reproduces the paper's read/write *ratio*; swapping in
//! a modern SSD shows which conclusions were device-dependent (the
//! `experiments devices` run re-prices the same metered runs under
//! different devices — no re-execution needed, because [`crate::model`]
//! and `IoStats::cost` are parametric in the unit costs).

use atis_storage::CostParams;

/// A rotating-disk (or SSD) service-time model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Average seek time, in milliseconds (0 for SSDs).
    pub avg_seek_ms: f64,
    /// Spindle speed, revolutions per minute (`f64::INFINITY` for SSDs).
    pub rpm: f64,
    /// Sustained transfer rate, megabytes per second.
    pub transfer_mb_per_s: f64,
    /// Block size in bytes (4096 everywhere in this repository).
    pub block_bytes: usize,
    /// Multiplier applied to writes relative to reads (verify-after-write
    /// era drives were slower to write; SSD writes cost program cycles).
    pub write_factor: f64,
}

impl DiskModel {
    /// A 1993-class drive (≈12 ms seek, 3600 RPM, ≈1.5 MB/s). Its
    /// write/read ratio matches Table 4A's `0.05 / 0.035 ≈ 1.43`.
    pub fn era_1993() -> DiskModel {
        DiskModel {
            avg_seek_ms: 12.0,
            rpm: 3600.0,
            transfer_mb_per_s: 1.5,
            block_bytes: 4096,
            write_factor: 1.43,
        }
    }

    /// A modern NVMe SSD (no seek, no rotation, ~3 GB/s, writes ≈ reads
    /// at block granularity thanks to the device cache).
    pub fn modern_ssd() -> DiskModel {
        DiskModel {
            avg_seek_ms: 0.015,
            rpm: f64::INFINITY,
            transfer_mb_per_s: 3000.0,
            block_bytes: 4096,
            write_factor: 1.0,
        }
    }

    /// Average rotational latency: half a revolution, in milliseconds.
    pub fn rotational_latency_ms(&self) -> f64 {
        if self.rpm.is_infinite() {
            0.0
        } else {
            0.5 * 60_000.0 / self.rpm
        }
    }

    /// Time to transfer one block, in milliseconds.
    pub fn block_transfer_ms(&self) -> f64 {
        (self.block_bytes as f64 / (self.transfer_mb_per_s * 1e6)) * 1e3
    }

    /// Service time of one random block read, in milliseconds.
    pub fn random_read_ms(&self) -> f64 {
        self.avg_seek_ms + self.rotational_latency_ms() + self.block_transfer_ms()
    }

    /// Service time of one random block write, in milliseconds.
    pub fn random_write_ms(&self) -> f64 {
        self.random_read_ms() * self.write_factor
    }

    /// Converts the device into cost parameters, scaled so one read costs
    /// `read_unit` (pass Table 4A's `0.035` to keep the paper's scale, or
    /// `self.random_read_ms()` to price runs in real milliseconds).
    pub fn cost_params(&self, read_unit: f64) -> CostParams {
        let scale = read_unit / self.random_read_ms();
        let t_read = read_unit;
        let t_write = self.random_write_ms() * scale;
        CostParams {
            t_read,
            t_write,
            t_update: t_read + t_write,
            ..CostParams::table_4a()
        }
    }

    /// Cost parameters in real milliseconds for this device.
    pub fn cost_params_ms(&self) -> CostParams {
        self.cost_params(self.random_read_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn era_drive_reproduces_table_4a_ratio() {
        let d = DiskModel::era_1993();
        let p = d.cost_params(0.035);
        assert!((p.t_read - 0.035).abs() < 1e-12);
        // 0.05 / 0.035 = 1.428...; the drive's write factor was picked to
        // match, so t_write lands on Table 4A's 0.05 within a percent.
        assert!((p.t_write - 0.05).abs() < 0.0005, "t_write = {}", p.t_write);
        assert!((p.t_update - (p.t_read + p.t_write)).abs() < 1e-12);
    }

    #[test]
    fn era_drive_service_times_are_1993_plausible() {
        let d = DiskModel::era_1993();
        // ~12 + 8.33 + 2.73 ≈ 23 ms per random block read.
        let r = d.random_read_ms();
        assert!((20.0..30.0).contains(&r), "{r} ms");
        assert!((d.rotational_latency_ms() - 8.333).abs() < 0.01);
    }

    #[test]
    fn ssd_is_orders_of_magnitude_faster() {
        let hdd = DiskModel::era_1993();
        let ssd = DiskModel::modern_ssd();
        assert!(hdd.random_read_ms() / ssd.random_read_ms() > 500.0);
        assert_eq!(ssd.rotational_latency_ms(), 0.0);
    }

    #[test]
    fn ms_params_price_in_milliseconds() {
        let d = DiskModel::era_1993();
        let p = d.cost_params_ms();
        assert!((p.t_read - d.random_read_ms()).abs() < 1e-12);
        assert!((p.t_write - d.random_write_ms()).abs() < 1e-9);
    }
}
